// End-to-end benchmark of the MEMPHIS runtime: one workload per process.
//
//   memphis_perfbench --workload tune|score|fleet [--seed N] [--seconds S]
//                     [--trace 0|1] [--smoke] [--out-dir DIR]
//
// An untraced run prints the end-to-end metrics (client-timed throughput and
// latency, the cost-model clock, set-up time, peak memory); a traced run
// records spans around every call the benchmark makes into a layer plus the
// counters each layer exposes, and prints the per-layer ledger. Either way
// every op's output is checked bitwise against a reuse-off reference, and
// the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "ledger.h"
#include "workload.h"

namespace perfbench {
namespace {

const Clock::time_point kProcessStart = Clock::now();

/// Set-up repetitions per run: set-up time is reported as their median.
constexpr int kSetups = 3;
/// A latency percentile is valid only with ten samples beyond it.
constexpr int64_t kP90MinSamples = 100;
/// Alternation slice of traced runs (recording on / off).
constexpr double kTraceSliceSeconds = 0.5;

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"throughput_ops_s", "ops/s"}, {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},      {"sim_s_per_op", "sim_s"},
      {"setup_s", "s"},              {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& LayerMetricSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"fabric.submit_us", "us"},
      {"fabric.resolve_us", "us"},
      {"fabric.rewarmed_per_op", "count/op"},
      {"fabric.published_per_op", "count/op"},
      {"serve.queue_ms", "ms"},
      {"serve.run_ms", "ms"},
      {"serve.failures_per_op", "count/op"},
      {"compiler.parse_us", "us"},
      {"compiler.compile_us", "us"},
      {"compiler.compiles_per_op", "count/op"},
      {"compiler.verifier_violations", "count"},
      {"runtime.run_us", "us"},
      {"runtime.instructions_per_op", "count/op"},
      {"lineage.trace_sim_s_per_op", "sim_s/op"},
      {"cache.probes_per_op", "count/op"},
      {"cache.probe_sim_s_per_op", "sim_s/op"},
      {"cache.puts_per_op", "count/op"},
      {"cache.hit_ratio", "ratio"},
      {"cache.host_spills_per_op", "count/op"},
      {"cache.store.warmed_per_op", "count/op"},
      {"cache.store.warm_yield", "ratio"},
      {"cache.store.evictions_per_op", "count/op"},
      {"cache.persist.bytes_per_op", "bytes/op"},
      {"cache.persist.appends_per_op", "count/op"},
      {"cache.persist.compactions_per_op", "count/op"},
      {"cache.persist.corrupt_records", "count"},
      {"cache.gpu.recycled_per_op", "count/op"},
      {"cache.gpu.reused_per_op", "count/op"},
      {"cache.gpu.oom_per_op", "count/op"},
      {"cache.spark.rdd_hits_per_op", "count/op"},
      {"spark.jobs_per_op", "count/op"},
      {"spark.tasks_per_op", "count/op"},
      {"spark.shuffle_mb_per_op", "MB/op"},
      {"spark.job_sim_s_per_op", "sim_s/op"},
      {"gpu.kernels_per_op", "count/op"},
      {"gpu.copies_per_op", "count/op"},
      {"gpu.copy_sim_s_per_op", "sim_s/op"},
      {"gpu.mallocs_per_op", "count/op"},
      {"matrix.tsmm_ms", "ms"},
      {"matrix.fused_groups_per_op", "count/op"},
      {"matrix.input_gen_s", "s"},
      {"bench.trace_overhead_ratio", "ratio"},
      {"bench.timed_ops", "count"},
      {"bench.host_slowdown", "ratio"},
      {"fail_ratio", "ratio"},
  };
  return specs;
}

const char* UnitOf(const std::string& name) {
  for (const MetricSpec& spec : LayerMetricSpecs()) {
    if (name == spec.name) return spec.unit;
  }
  for (const MetricSpec& spec : EndToEndMetrics()) {
    if (name == spec.name) return spec.unit;
  }
  return "";
}

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "memphis_perfbench: %s\nusage: memphis_perfbench --workload "
               "tune|score|fleet [--seed N] [--seconds S] [--trace 0|1] "
               "[--smoke] [--out-dir DIR]\n",
               message);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--out-dir") {
      options.out_dir = value();
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  if (!(options.seconds > 0)) Usage("--seconds must be positive");
  return options;
}

std::unique_ptr<Workload> Make(const std::string& name) {
  if (name == "tune") return MakeTune();
  if (name == "score") return MakeScore();
  if (name == "fleet") return MakeFleet();
  Usage(("unknown workload " + name).c_str());
}

/// The per-layer metrics every workload derives the same way: counters of
/// the timed phase, normalised per op.
void CounterMetrics(const Counters& d, int64_t ops, Report* report) {
  const double n = ops > 0 ? static_cast<double>(ops) : 1.0;
  auto add = [&](const char* name, double value) {
    report->Add(name, value, UnitOf(name));
  };
  auto per_op = [&](const char* name, double value) { add(name, value / n); };
  per_op("fabric.rewarmed_per_op", Get(d, "fabric.store.rewarmed_entries"));
  per_op("fabric.published_per_op", Get(d, "fabric.store.publishes"));
  per_op("serve.failures_per_op", Get(d, "serve.rejected") +
                                      Get(d, "serve.expired") +
                                      Get(d, "serve.failed"));
  per_op("compiler.compiles_per_op", Get(d, "exec.recompilations"));
  add("compiler.verifier_violations", Get(d, "verifier.violations"));
  per_op("runtime.instructions_per_op", Get(d, "exec.cp_instructions") +
                                            Get(d, "exec.sp_instructions") +
                                            Get(d, "exec.gpu_instructions"));
  per_op("lineage.trace_sim_s_per_op", Get(d, "exec.trace_time_s"));
  per_op("cache.probes_per_op", Get(d, "cache.probes"));
  per_op("cache.probe_sim_s_per_op", Get(d, "exec.probe_time_s"));
  per_op("cache.puts_per_op", Get(d, "cache.puts"));
  const double hits = Get(d, "cache.hits_host") + Get(d, "cache.hits_scalar") +
                      Get(d, "cache.hits_rdd") + Get(d, "cache.hits_gpu") +
                      Get(d, "cache.hits_function");
  const double probes = Get(d, "cache.probes");
  add("cache.hit_ratio", probes > 0 ? hits / probes : 0.0);
  per_op("cache.host_spills_per_op", Get(d, "hostcache.spills"));
  per_op("cache.store.evictions_per_op", Get(d, "serve.store.evictions"));
  per_op("cache.persist.bytes_per_op", Get(d, "persist.bytes_written"));
  per_op("cache.persist.appends_per_op",
         Get(d, "persist.puts") + Get(d, "persist.removes"));
  per_op("cache.persist.compactions_per_op", Get(d, "persist.compactions"));
  add("cache.persist.corrupt_records", Get(d, "persist.corrupt_records"));
  per_op("cache.gpu.recycled_per_op", Get(d, "gpucache0.recycled_exact"));
  per_op("cache.gpu.reused_per_op", Get(d, "gpucache0.reused_pointers"));
  per_op("cache.gpu.oom_per_op", Get(d, "gpucache0.oom_failures"));
  per_op("cache.spark.rdd_hits_per_op", Get(d, "cache.hits_rdd"));
  per_op("spark.jobs_per_op", Get(d, "spark.jobs"));
  per_op("spark.tasks_per_op", Get(d, "spark.tasks"));
  per_op("spark.shuffle_mb_per_op",
         Get(d, "spark.shuffle_bytes") / (1024.0 * 1024.0));
  per_op("spark.job_sim_s_per_op", Get(d, "spark.job_duration_s"));
  per_op("gpu.kernels_per_op", Get(d, "gpu0.kernels"));
  per_op("gpu.copies_per_op",
         Get(d, "gpu0.h2d_copies") + Get(d, "gpu0.d2h_copies"));
  per_op("gpu.copy_sim_s_per_op", Get(d, "gpu0.copy_time_s"));
  per_op("gpu.mallocs_per_op", Get(d, "gpu0.mallocs"));
  per_op("matrix.fused_groups_per_op", Get(d, "fusion.groups_executed"));
}

std::string CountersJson(const Counters& counters) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ", ";
    out += JsonString(name) + ": " + JsonNumber(value);
    first = false;
  }
  return out + "}";
}

int RunWorkload(Workload* workload, const Options& options) {
  SpanLog log;
  if (options.trace) log.Enable(/*alternate=*/false, 0.0);

  // Set-up (input generation, reference outputs, warm-up) runs several
  // times; set-up time is their median. The first one also pays process
  // start-up. Set-up computes its references on several threads, which the
  // single-threaded canary does not track, so set-up time is as measured.
  const int setups = options.smoke ? 1 : kSetups;
  std::vector<double> setup_seconds;
  std::vector<double> input_gen_seconds;
  for (int i = 0; i < setups; ++i) {
    const Clock::time_point start = i == 0 ? kProcessStart : Clock::now();
    {
      ScopedSpan span(&log, "setup");
      workload->Setup(options, &log);
    }
    setup_seconds.push_back(SecondsSince(start));
    input_gen_seconds.push_back(workload->InputGenSeconds());
  }

  // Timed phase: a closed loop until the deadline, with the host canary
  // measured between ops.
  const int64_t min_ops = std::max<int64_t>(workload->MinOps(), 1);
  if (options.trace) log.Enable(/*alternate=*/true, kTraceSliceSeconds);
  HostCanary canary;
  canary.Measure();
  const Counters before = workload->SnapshotCounters();
  const Clock::time_point timed_start = Clock::now();
  const Clock::time_point deadline =
      options.smoke
          ? timed_start
          : timed_start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(options.seconds));
  std::vector<OpRecord> ops;
  workload->RunTimed(deadline, min_ops, &log, &canary, &ops);
  const Clock::time_point timed_end = Clock::now();
  const double timed_seconds =
      std::chrono::duration<double>(timed_end - timed_start).count();
  workload->Quiesce();
  const Counters after = workload->SnapshotCounters();
  const Counters delta = Diff(before, after);
  const double overhead_ratio = log.OverheadRatio();

  const int64_t attempted = static_cast<int64_t>(ops.size());
  int64_t completed = 0;
  int64_t failed = 0;
  std::vector<double> latencies;      // As measured.
  std::vector<double> nominal_latencies;  // Divided by the host slowdown.
  double window_sim = 0.0;
  int64_t window_ops = 0;
  const int64_t sim_window = workload->SimWindow();
  for (const OpRecord& op : ops) {
    if (op.completed) {
      ++completed;
      latencies.push_back(op.latency_ms);
      const Clock::time_point middle =
          op.start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             op.latency_ms / 2));
      nominal_latencies.push_back(op.latency_ms / canary.Slowdown(middle));
    }
    if (!op.completed || !op.correct) ++failed;
    if (sim_window == 0 || window_ops < sim_window) {
      window_sim += op.sim_s;
      ++window_ops;
    }
  }
  const std::string guard = workload->ShapeGuard(delta, attempted);
  const double nominal_timed_seconds =
      canary.NominalSeconds(timed_start, timed_end);

  Report report;
  if (options.trace) {
    log.Enable(/*alternate=*/false, 0.0);
    workload->RunProbes(&log);
    CounterMetrics(delta, attempted, &report);
    workload->LayerMetrics(delta, attempted, &log, &report);
    report.Add("matrix.input_gen_s", Median(input_gen_seconds),
               UnitOf("matrix.input_gen_s"));
    report.Add("bench.trace_overhead_ratio", overhead_ratio,
               UnitOf("bench.trace_overhead_ratio"));
    report.Add("bench.timed_ops", static_cast<double>(attempted),
               UnitOf("bench.timed_ops"));
    report.Add("bench.host_slowdown", canary.MedianSlowdown(),
               UnitOf("bench.host_slowdown"));
    report.Add("fail_ratio",
               attempted > 0 ? static_cast<double>(failed) / attempted : 1.0,
               UnitOf("fail_ratio"));
    // Every named layer metric is emitted, zero where the workload
    // bypasses the layer.
    Report ordered;
    for (const MetricSpec& spec : LayerMetricSpecs()) {
      ordered.Add(spec.name, report.Has(spec.name) ? report.Value(spec.name)
                                                   : 0.0,
                  spec.unit);
    }
    report = ordered;
  } else {
    auto add = [&](const char* name, double value) {
      report.Add(name, value, UnitOf(name));
    };
    // Wall-clock metrics read as on the reference host (see HostCanary);
    // the run record keeps them as measured.
    add("throughput_ops_s",
        nominal_timed_seconds > 0
            ? static_cast<double>(completed) / nominal_timed_seconds
            : 0.0);
    add("latency_p50_ms", Quantile(nominal_latencies, 0.5));
    add("latency_p90_ms", Quantile(nominal_latencies, 0.9));
    add("sim_s_per_op",
        window_ops > 0 ? window_sim / static_cast<double>(window_ops) : 0.0);
    add("setup_s", Median(setup_seconds));
    add("peak_rss_mb", PeakRssMb());
  }

  // Run record: what ran where, then the human-readable table.
  std::string setups_json = "[";
  for (size_t i = 0; i < setup_seconds.size(); ++i) {
    setups_json += (i ? ", " : "") + JsonNumber(setup_seconds[i]);
  }
  setups_json += "]";
  const std::string record =
      "\"workload\": " + JsonString(options.workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"nproc\": " + std::to_string(OnlineCpus()) +
      ", \"cpu_model\": " + JsonString(CpuModel()) +
      ", \"trace\": " + (options.trace ? "true" : "false") +
      ", \"smoke\": " + (options.smoke ? "true" : "false") +
      ", \"timed_seconds\": " + JsonNumber(timed_seconds) +
      ", \"host_slowdown\": " + JsonNumber(canary.MedianSlowdown()) +
      ", \"measured\": {\"throughput_ops_s\": " +
      JsonNumber(timed_seconds > 0 ? completed / timed_seconds : 0.0) +
      ", \"latency_p50_ms\": " + JsonNumber(Quantile(latencies, 0.5)) +
      ", \"latency_p90_ms\": " + JsonNumber(Quantile(latencies, 0.9)) +
      "}" +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"completed\": " + std::to_string(completed) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"fail_ratio\": " +
      JsonNumber(attempted > 0 ? static_cast<double>(failed) / attempted
                               : 1.0) +
      ", \"latency_samples\": " + std::to_string(latencies.size()) +
      ", \"p90_valid\": " +
      (static_cast<int64_t>(latencies.size()) >= kP90MinSamples ? "true"
                                                                : "false") +
      ", \"sim_window_ops\": " + std::to_string(window_ops) +
      ", \"setup_s_samples\": " + setups_json + ", " + workload->RecordJson();
  std::printf("perfbench %s seed=%llu%s: %lld ops in %.3f s (%lld failed)\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? " traced" : "",
              static_cast<long long>(attempted), timed_seconds,
              static_cast<long long>(failed));
  std::printf("%s", report.Table().c_str());
  std::printf("{\"run\": {%s}}\n", record.c_str());

  if (options.trace) {
    std::error_code ignored;
    std::filesystem::create_directories(options.out_dir, ignored);
    const std::string path =
        options.out_dir + "/spans-" + options.workload + ".json";
    const std::string header =
        "\"run\": {" + record + "},\n \"counters_before\": " +
        CountersJson(before) + ",\n \"counters_after\": " +
        CountersJson(after) + ",\n \"layers\": " + report.MetricsJson();
    if (!log.Write(path, header)) {
      std::fprintf(stderr, "memphis_perfbench: cannot write %s\n",
                   path.c_str());
      workload->Teardown();
      return 1;
    }
  }
  workload->Teardown();

  if (!guard.empty()) {
    std::fprintf(stderr,
                 "memphis_perfbench: workload %s no longer loads the layers "
                 "it exists for: %s\n",
                 options.workload.c_str(), guard.c_str());
    return 3;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<long long>(attempted),
              static_cast<long long>(failed), report.MetricsJson().c_str());
  std::fflush(stdout);
  return 0;
}

int Run(const Options& options) {
  std::unique_ptr<Workload> workload = Make(options.workload);
  try {
    return RunWorkload(workload.get(), options);
  } catch (...) {
    workload->Teardown();  // Stops the workload's threads, removes its files.
    throw;
  }
}

}  // namespace

Counters GlobalLayerCounters() {
  Counters all = Snapshot(memphis::obs::MetricsRegistry::Global());
  Counters layers;
  for (const char* prefix :
       {"verifier.", "serve.", "persist.", "fabric."}) {
    const std::string p = prefix;
    for (auto it = all.lower_bound(p);
         it != all.end() && it->first.compare(0, p.size(), p) == 0; ++it) {
      layers.insert(*it);
    }
  }
  return layers;
}

int SetupThreads() { return std::min(4, OnlineCpus()); }

}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::ParseArgs(argc, argv);
  try {
    return perfbench::Run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "memphis_perfbench: %s\n", e.what());
    return 1;
  }
}
