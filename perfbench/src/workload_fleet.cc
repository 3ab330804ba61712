// `fleet`: multi-tenant script serving through the full serving stack.
//
// A 2-site ServingFabric; each site is a 1-worker SessionManager whose
// shared lineage store is backed by the durable segment-log tier. One client
// thread keeps two requests outstanding (a closed loop: callers wait for
// their result) and times each from Submit to Resolve. Requests are the
// serve layer's `ridge`, `gridsearch` and `stats` scripts from six tenants;
// each tenant draws inputs from its own finite pool, sized so the tenant's
// store partition runs a little above its quota, and the durable tier's
// budget sits below the stores' live volume. Client plus two workers,
// thread pool of one.

#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "compiler/parser.h"
#include "compiler/placement.h"
#include "core/system.h"
#include "fabric/fabric.h"
#include "matrix/kernels.h"
#include "serve/workloads.h"
#include "workload.h"

namespace perfbench {
namespace {

using memphis::SystemConfig;
namespace fabric = memphis::fabric;
namespace serve = memphis::serve;
namespace fs = std::filesystem;

constexpr int kSites = 2;
constexpr int kTenantsPerSite = 3;
constexpr size_t kPoolSize = 8;
constexpr int kOutstanding = 2;
constexpr size_t kPoolRows[] = {512, 768, 1024};
constexpr size_t kPoolCols[] = {16, 24, 32};
/// Per-tenant store partition quota, a little below a pool's live volume.
constexpr size_t kTenantQuota = 160ull << 10;
/// Durable-tier budget per site, below the site's live store volume.
constexpr size_t kPersistBudget = 384ull << 10;
constexpr int kWarmRequests = 240;
constexpr int kCompileProbeReps = 5;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

SystemConfig SessionConfig() {
  SystemConfig config;  // The serving default: full MEMPHIS reuse.
  config.enable_gpu = false;  // CPU-only serving sites.
  config.cp_threads = 1;
  return config;
}

struct PoolInput {
  serve::ScriptRequest request;
  double reference_loss = 0.0;
};

class FleetWorkload : public Workload {
 public:
  void Setup(const Options& options, SpanLog* log) override {
    smoke_ = options.smoke;
    fabric_.reset();  // Drains the previous set-up's sites first.
    store_dir_ = options.out_dir + "/fleet-store";
    fs::remove_all(store_dir_);
    store_fresh_ = !fs::exists(store_dir_);
    fs::create_directories(store_dir_);
    memphis::Rng rng(options.seed);

    fabric::FabricConfig config;
    config.num_sites = kSites;
    config.serve.workers = 1;
    config.serve.session = SessionConfig();
    config.serve.store_tenant_quota = kTenantQuota;
    config.persist_root = store_dir_;
    config.persist_budget = kPersistBudget;
    fabric_ = std::make_unique<fabric::ServingFabric>(config);

    {
      ScopedSpan span(log, "setup.inputs");
      const Clock::time_point start = Clock::now();
      PickTenants();
      const std::vector<std::string> names = serve::WorkloadNames();
      // Every pool has the same mix of scripts and shapes, so a seed
      // changes input values and request order, not the work per request.
      pools_.assign(tenants_.size(), {});
      for (size_t t = 0; t < tenants_.size(); ++t) {
        for (size_t i = 0; i < kPoolSize; ++i) {
          const std::string& name = names[i % names.size()];
          const size_t rows = kPoolRows[(i / 3) % std::size(kPoolRows)];
          const size_t cols = kPoolCols[(i + t) % std::size(kPoolCols)];
          const uint64_t seed = 1 + rng.NextInt(1u << 30);
          PoolInput input;
          input.request =
              serve::MakeWorkloadRequest(tenants_[t], name, rows, cols, seed);
          pools_[t].push_back(std::move(input));
        }
      }
      input_gen_s_ = SecondsSince(start);
    }
    {
      ScopedSpan span(log, "setup.reference");
      for (auto& pool : pools_) {
        for (PoolInput& input : pool) input.reference_loss = Reference(input);
      }
    }
    sequence_rng_ = memphis::Rng(options.seed + 7);
    result_stats_ = {};
    {
      ScopedSpan span(log, "setup.warmup");
      std::vector<OpRecord> warm;
      SpanLog idle;
      const int requests = smoke_ ? kWarmRequests / 2 : kWarmRequests;
      warmup_requests_ = requests;
      Loop(Clock::now(), requests, &idle, /*canary=*/nullptr, &warm);
      for (const OpRecord& record : warm) {
        MEMPHIS_CHECK_MSG(record.completed && record.correct,
                          "fleet warm-up request failed or differs from the "
                          "reference");
      }
    }
  }

  void RunTimed(Clock::time_point deadline, int64_t min_ops, SpanLog* log,
                HostCanary* canary, std::vector<OpRecord>* ops) override {
    Loop(deadline, min_ops, log, canary, ops);
  }

  void Quiesce() override {
    // Shutting the sites down destroys their sessions, which flushes the
    // session counters into the global registry.
    if (fabric_ != nullptr) fabric_->Shutdown();
  }

  Counters SnapshotCounters() override {
    // Sessions live inside the sites: their counters reach the global
    // registry when a session is rebuilt or the site shuts down. Sampled
    // gauges there hold the last session's value, not a total, so they
    // are left out.
    Counters counters;
    for (const auto& [name, value] :
         Snapshot(memphis::obs::MetricsRegistry::Global())) {
      if (name.rfind("hostcache.", 0) == 0 || name.rfind("bm.", 0) == 0 ||
          name.rfind("arena", 0) == 0 || name == "cache.hit_ratio" ||
          name == "cache.evictions") {
        continue;
      }
      counters[name] = value;
    }
    return counters;
  }

  void RunProbes(SpanLog* log) override {
    // Parse and compile (fusion and verifier included) every pool script
    // at its input shapes, outside any session.
    const SystemConfig config = SessionConfig().Scaled();
    std::set<std::tuple<std::string, size_t, size_t>> seen;
    for (const auto& pool : pools_) {
      for (const PoolInput& input : pool) {
        const serve::ScriptRequest& request = input.request;
        const size_t rows = request.inputs[0].rows;
        const size_t cols = request.inputs[0].cols;
        if (!seen.insert({request.workload, rows, cols}).second) continue;
        memphis::compiler::ShapeResolver resolver =
            [rows, cols](const std::string& var) -> memphis::compiler::VarInfo {
          if (var == "X") return {{rows, cols}, memphis::Backend::kCP};
          if (var == "y") return {{rows, 1}, memphis::Backend::kCP};
          return {{1, 1}, memphis::Backend::kCP};
        };
        memphis::compiler::CompileOptions compile_options;
        compile_options.async_operators = config.async_operators;
        compile_options.max_parallelize = config.max_parallelize;
        compile_options.checkpoint_placement = config.checkpoint_placement;
        for (int rep = 0; rep < kCompileProbeReps; ++rep) {
          memphis::compiler::Program program;
          {
            ScopedSpan span(log, "compiler.parse");
            program = memphis::compiler::ParseProgram(
                serve::WorkloadSource(request.workload, cols));
          }
          ScopedSpan span(log, "compiler.compile");
          for (const auto& block : program.blocks) {
            if (block->kind() != memphis::compiler::Block::Kind::kBasic) {
              continue;
            }
            const auto& basic =
                static_cast<const memphis::compiler::BasicBlock&>(*block);
            memphis::compiler::CompileResult result =
                memphis::compiler::CompileDag(basic.dag(), config, resolver,
                                              compile_options);
            MEMPHIS_CHECK(!result.instructions.empty());
          }
        }
      }
    }
  }

  void LayerMetrics(const Counters& /*delta*/, int64_t ops, SpanLog* log,
                    Report* report) override {
    const auto summary = log->Summarize();
    auto p50 = [&](const char* name) {
      auto it = summary.find(name);
      return it == summary.end() ? 0.0 : it->second.p50_us;
    };
    const double n = ops > 0 ? static_cast<double>(ops) : 1.0;
    const ResultStats& s = result_stats_;
    report->Add("fabric.submit_us", p50("fabric.submit"), "us");
    report->Add("fabric.resolve_us", p50("fabric.resolve"), "us");
    report->Add("serve.queue_ms", Median(s.queue_ms), "ms");
    report->Add("serve.run_ms", Median(s.run_ms), "ms");
    report->Add("compiler.parse_us", p50("compiler.parse"), "us");
    report->Add("compiler.compile_us", p50("compiler.compile"), "us");
    report->Add("cache.hit_ratio",
                s.probes > 0 ? static_cast<double>(s.hits) / s.probes : 0.0,
                "ratio");
    report->Add("cache.store.warmed_per_op", static_cast<double>(s.warmed) / n,
                "count/op");
    report->Add("cache.store.warm_yield",
                s.warmed > 0 ? static_cast<double>(s.cross_hits) / s.warmed
                             : 0.0,
                "ratio");
  }

  std::string ShapeGuard(const Counters& delta, int64_t ops) override {
    const double n = static_cast<double>(ops);
    if (Get(delta, "serve.store.evictions") < n) {
      return "fewer store quota evictions than requests";
    }
    if (Get(delta, "persist.puts") + Get(delta, "persist.removes") < n) {
      return "fewer durable segment appends than requests";
    }
    if (Get(delta, "fabric.store.rewarmed_entries") < n) {
      return "fewer fabric rewarms than requests";
    }
    return "";
  }

  int64_t SimWindow() const override { return 0; }
  int64_t MinOps() const override {
    return smoke_ ? 4 * kSites * kTenantsPerSite : 1;
  }
  double InputGenSeconds() const override { return input_gen_s_; }

  std::string RecordJson() const override {
    return "\"store_dir\": " + JsonString(store_dir_) +
           ", \"store_fresh\": " + (store_fresh_ ? "true" : "false") +
           ", \"warmup_requests\": " + std::to_string(warmup_requests_);
  }

  void Teardown() override {
    fabric_.reset();
    fs::remove_all(store_dir_);
  }

 private:
  struct ResultStats {
    std::vector<double> queue_ms;
    std::vector<double> run_ms;
    int64_t probes = 0;
    int64_t hits = 0;
    int64_t warmed = 0;
    int64_t cross_hits = 0;
  };

  struct Pending {
    fabric::FabricTicketPtr ticket;
    Clock::time_point start;
    int span = -1;
    double expected = 0.0;
  };

  /// Six tenants, three homed on each site by the fabric's own router.
  void PickTenants() {
    tenants_.clear();
    int per_site[kSites] = {};
    for (int k = 0; static_cast<int>(tenants_.size()) <
                        kSites * kTenantsPerSite && k < 4096;
         ++k) {
      const std::string tenant = "tenant" + std::to_string(k);
      const int site = fabric_->SiteOf(tenant);
      if (per_site[site] < kTenantsPerSite) {
        ++per_site[site];
        tenants_.push_back(tenant);
      }
    }
    MEMPHIS_CHECK(static_cast<int>(tenants_.size()) ==
                  kSites * kTenantsPerSite);
  }

  /// The request's `loss` with reuse off, computed from the same inputs the
  /// serving session binds.
  static double Reference(const PoolInput& input) {
    SystemConfig config = SessionConfig();
    config.reuse_mode = memphis::ReuseMode::kNone;
    memphis::MemphisSystem system(config);
    memphis::ExecutionContext& ctx = system.ctx();
    for (const serve::ScriptRequest::Input& in : input.request.inputs) {
      ctx.BindMatrixWithId(
          in.name, memphis::kernels::RandGaussian(in.rows, in.cols, in.seed),
          serve::StableInputId(in.name, in.rows, in.cols, in.seed));
    }
    memphis::compiler::Program program =
        memphis::compiler::ParseProgram(input.request.source);
    system.Run(program);
    return ctx.FetchScalar(input.request.result_var);
  }

  /// Closed loop with kOutstanding requests in flight until `deadline` has
  /// passed and `min_ops` were attempted. When the canary is due the loop
  /// drains, measures it with nothing in flight, and refills. Only timed
  /// runs (with a canary) keep result statistics.
  void Loop(Clock::time_point deadline, int64_t min_ops, SpanLog* log,
            HostCanary* canary, std::vector<OpRecord>* ops) {
    std::deque<Pending> pending;
    int64_t submitted = 0;
    auto more = [&] { return submitted < min_ops || Clock::now() < deadline; };
    for (;;) {
      while (static_cast<int>(pending.size()) < kOutstanding && more() &&
             (canary == nullptr || !canary->Due())) {
        log->Tick();
        const size_t t = sequence_rng_.NextInt(tenants_.size());
        const PoolInput& input = pools_[t][sequence_rng_.NextInt(kPoolSize)];
        Pending p;
        p.start = Clock::now();
        p.span = log->Begin("fleet.request", -1, submitted);
        p.expected = input.reference_loss;
        {
          ScopedSpan span(log, "fabric.submit", p.span);
          p.ticket = fabric_->Submit(input.request);
        }
        pending.push_back(std::move(p));
        ++submitted;
      }
      if (pending.empty()) {
        if (canary == nullptr || !more()) break;
        canary->Measure();
        continue;
      }
      Pending p = std::move(pending.front());
      pending.pop_front();
      {
        ScopedSpan span(log, "serve.wait", p.span);
        p.ticket->ticket->Wait();
      }
      serve::RequestResult result;
      {
        ScopedSpan span(log, "fabric.resolve", p.span);
        result = fabric_->Resolve(p.ticket);
      }
      log->End(p.span);
      OpRecord record;
      record.start = p.start;
      record.latency_ms = MillisSince(p.start);
      record.sim_s = result.sim_seconds;
      record.completed = result.outcome == serve::RequestOutcome::kCompleted;
      record.correct = record.completed && result.has_result &&
                       SameBits(result.result_value, p.expected);
      if (!record.completed) {
        std::fprintf(stderr, "fleet request %s: %s %s\n",
                     serve::ToString(result.outcome),
                     result.reject_reason.c_str(), result.error.c_str());
      }
      ops->push_back(record);
      log->CountOp();
      if (canary != nullptr && record.completed) {
        result_stats_.queue_ms.push_back(result.queue_ms);
        result_stats_.run_ms.push_back(result.run_ms);
        result_stats_.probes += result.cache_probes;
        result_stats_.hits += result.cache_hits;
        result_stats_.warmed += result.warmed_entries;
        result_stats_.cross_hits += result.cross_session_hits;
      }
    }
  }

  bool smoke_ = false;
  std::string store_dir_;
  bool store_fresh_ = false;
  int warmup_requests_ = 0;
  std::unique_ptr<fabric::ServingFabric> fabric_;
  std::vector<std::string> tenants_;
  std::vector<std::vector<PoolInput>> pools_;
  memphis::Rng sequence_rng_{1};
  ResultStats result_stats_;
  double input_gen_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeFleet() {
  return std::make_unique<FleetWorkload>();
}

}  // namespace perfbench
