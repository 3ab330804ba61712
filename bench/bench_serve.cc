// Serving-layer benchmark: shared cross-session lineage cache vs the
// one-session-per-job baseline, plus an overload section demonstrating
// explicit load shedding.
//
//   ./bench_serve [--smoke] [--trace=FILE] [--metrics=FILE] [--journal=FILE]
//
// Closed-loop tenant clients submit mixed named workloads (ridge /
// gridsearch / stats over per-tenant inputs) and wait for each result. In
// shared mode a tenant's Gram matrix and solve products survive session
// churn through the SharedLineageStore, so repeat requests mostly hit; in
// per-session mode every request pays the full pipeline. Latency
// percentiles here are *exact* (computed from the sorted per-request
// latency vector, not from histogram buckets).
//
// scripts/validate_bench.py checks the emitted BENCH_serve.json: schema,
// outcome accounting, that shared mode's lineage hit rate materially beats
// per-session mode's, and that the observer-effect section (median request
// latency with tracing + journal on vs off) stays within 3% -- the
// observability layer's cost contract, measured end to end.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "serve/session_manager.h"
#include "serve/workloads.h"

using namespace memphis;

namespace {

struct Traffic {
  int tenants = 3;
  int clients_per_tenant = 2;
  int requests_per_client = 8;
  size_t rows = 384;
  size_t cols = 24;
  int workers = 4;
};

/// Everything one mode run produces: exact latencies plus reuse counters.
struct ModeStats {
  std::vector<double> latencies_ms;
  int64_t probes = 0;
  int64_t hits = 0;
  int64_t cross_session_hits = 0;
  int64_t warmed = 0;
  int completed = 0;
  int rejected = 0;
  int expired = 0;
  int failed = 0;

  void Absorb(const serve::RequestResult& result) {
    switch (result.outcome) {
      case serve::RequestOutcome::kCompleted:
        ++completed;
        latencies_ms.push_back(result.total_ms);
        probes += result.cache_probes;
        hits += result.cache_hits;
        cross_session_hits += result.cross_session_hits;
        warmed += result.warmed_entries;
        break;
      case serve::RequestOutcome::kRejected: ++rejected; break;
      case serve::RequestOutcome::kDeadlineExpired: ++expired; break;
      default: ++failed; break;
    }
  }

  double HitRate() const {
    return probes > 0 ? static_cast<double>(hits) / static_cast<double>(probes)
                      : 0.0;
  }
  int Total() const { return completed + rejected + expired + failed; }
};

/// Exact quantile of a latency sample (nearest-rank on the sorted copy).
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(q * (values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Runs the closed-loop tenant traffic against one cache mode. The session
/// config defaults to the stock SystemConfig; the verifier-effect section
/// overrides `verify_plans` per leg.
ModeStats RunMode(bool shared_cache, const Traffic& traffic,
                  VerifyMode verify_plans = SystemConfig{}.verify_plans) {
  serve::ServeConfig config;
  config.workers = traffic.workers;
  config.shared_cache = shared_cache;
  config.session.verify_plans = verify_plans;
  // Closed-loop clients hold at most clients_per_tenant requests of one
  // tenant in flight; headroom keeps admission out of this section's way.
  config.admission.tenant_max_in_flight = traffic.clients_per_tenant + 2;
  serve::SessionManager manager(config);

  const std::vector<std::string> names = serve::WorkloadNames();
  const int total_clients = traffic.tenants * traffic.clients_per_tenant;
  std::vector<std::vector<serve::RequestResult>> results(total_clients);
  std::vector<std::thread> clients;
  clients.reserve(total_clients);
  for (int c = 0; c < total_clients; ++c) {
    clients.emplace_back([&, c] {
      const int tenant_index = c / traffic.clients_per_tenant;
      const std::string tenant = "tenant" + std::to_string(tenant_index);
      for (int r = 0; r < traffic.requests_per_client; ++r) {
        // Per-tenant inputs (seeded by tenant) so reuse can only come from
        // the tenant's own partition; the workload mix cycles per client.
        serve::RequestTicketPtr ticket =
            manager.Submit(serve::MakeWorkloadRequest(
                tenant, names[(c + r) % names.size()], traffic.rows,
                traffic.cols, /*seed=*/11 + tenant_index));
        ticket->Wait();
        results[c].push_back(ticket->result());
      }
    });
  }
  for (std::thread& client : clients) client.join();
  manager.Shutdown();

  ModeStats stats;
  for (const auto& per_client : results) {
    for (const serve::RequestResult& result : per_client) {
      stats.Absorb(result);
    }
  }
  return stats;
}

/// Overload section: a burst far beyond one worker's capacity against a
/// tiny queue. The point is the *explicit* shedding -- every request
/// terminates as completed, rejected, or expired; nothing hangs.
ModeStats RunOverload(const Traffic& traffic) {
  serve::ServeConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  config.admission.tenant_max_in_flight = 2;
  serve::SessionManager manager(config);

  const std::vector<std::string> names = serve::WorkloadNames();
  const int burst = 8 * traffic.tenants;
  std::vector<serve::RequestTicketPtr> tickets;
  tickets.reserve(burst);
  for (int i = 0; i < burst; ++i) {
    serve::ScriptRequest request = serve::MakeWorkloadRequest(
        "tenant" + std::to_string(i % traffic.tenants),
        names[i % names.size()], traffic.rows, traffic.cols, /*seed=*/11);
    if (i % 2 == 1) request.deadline_ms = 50;
    request.priority = i % 3;
    tickets.push_back(manager.Submit(request));
  }
  ModeStats stats;
  for (const auto& ticket : tickets) {
    ticket->Wait();
    stats.Absorb(ticket->result());
  }
  manager.Shutdown();
  return stats;
}

/// Observer-effect section: the per-request cost of full observability
/// (tracing + journal). One 1-worker manager serves one closed-loop client
/// that cycles through the workloads: kWarmup requests, then kMeasured more
/// with observability switched on for every other request, toggled while
/// nothing is in flight. Both arms thus share one session, its cache and the
/// host's drift, and each (workload, arm) pair gets the same number of
/// samples. The table records each workload's median client latency per
/// arm; validate_bench.py gates the geometric mean of the on/off ratios at
/// 1.03. The section resets the event rings at its end -- which would
/// destroy the events a --trace/--journal run asked to keep -- so main()
/// skips it then.
void RunObserverEffect(const Traffic& traffic) {
  constexpr int kWarmup = 12;
  constexpr int kMeasured = 1344;  // 224 per (workload, arm).
  serve::ServeConfig config;
  config.workers = 1;
  config.shared_cache = true;
  const std::vector<std::string> names = serve::WorkloadNames();
  // Small rings bound the section's footprint; emission cost per event does
  // not depend on ring size.
  obs::SetEventRingCapacity(size_t{1} << 9);
  std::vector<std::vector<double>> latencies_ms[2];  // [observed][workload]
  latencies_ms[0].resize(names.size());
  latencies_ms[1].resize(names.size());
  {
    serve::SessionManager manager(config);
    for (int i = 0; i < kWarmup + kMeasured; ++i) {
      const size_t workload = static_cast<size_t>(i) % names.size();
      const bool observed = i % 2 == 1;
      obs::EnableTracing(observed);
      obs::EnableJournal(observed);
      const auto start = std::chrono::steady_clock::now();
      serve::RequestTicketPtr ticket = manager.Submit(
          serve::MakeWorkloadRequest("tenant0", names[workload], traffic.rows,
                                     traffic.cols, /*seed=*/11));
      ticket->Wait();
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      if (i >= kWarmup) latencies_ms[observed][workload].push_back(ms);
    }
    obs::EnableTracing(false);
    obs::EnableJournal(false);
    manager.Shutdown();
  }
  // The worker is joined: no thread is emitting, so draining here honors
  // the quiescence contract.
  obs::ResetTrace();
  obs::ResetJournal();
  obs::SetEventRingCapacity(size_t{1} << 17);

  std::vector<bench::Row> rows;
  double log_ratio_sum = 0.0;
  for (size_t w = 0; w < names.size(); ++w) {
    const double off_ms = Percentile(latencies_ms[0][w], 0.50);
    const double on_ms = Percentile(latencies_ms[1][w], 0.50);
    rows.push_back({"p50_" + names[w], {off_ms / 1e3, on_ms / 1e3}});
    log_ratio_sum += std::log(on_ms / off_ms);
  }
  rows.push_back(
      {"overhead_ratio",
       {1.0, std::exp(log_ratio_sum / static_cast<double>(names.size()))}});
  bench::PrintTable("Serve observer effect (s)", {"disabled", "enabled"},
                    rows);
}

/// Verifier-effect section: the wall-clock cost of the static plan verifier
/// (compiler/verifier.h) at each mode over the same deterministic
/// steady-state load as the observer section. Legs interleave off / summary
/// / full within each repetition and the table records the min of each leg.
/// validate_bench.py gates summary (the release contract) at off * 1.02;
/// full is reported for reference. Compile results are cached per shape
/// signature, so the verifier runs once per unique block, not per request --
/// the gate proves that stays true end to end.
void RunVerifierEffect(const Traffic& traffic) {
  constexpr int kReps = 7;
  Traffic load = traffic;
  load.workers = 1;
  load.clients_per_tenant = 1;
  load.tenants = 1;
  load.requests_per_client = std::max(load.requests_per_client, 192);
  constexpr VerifyMode kModes[3] = {VerifyMode::kOff, VerifyMode::kSummary,
                                    VerifyMode::kFull};
  double best[3] = {std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity()};
  for (int rep = 0; rep < kReps; ++rep) {
    for (int leg = 0; leg < 3; ++leg) {
      const auto start = std::chrono::steady_clock::now();
      RunMode(/*shared_cache=*/true, load, kModes[leg]);
      best[leg] = std::min(
          best[leg], std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count());
    }
  }
  bench::PrintTable(
      "Serve verifier effect (s)", {"off", "summary", "full"},
      {{"wall_min_of_7", {best[0], best[1], best[2]}},
       {"overhead_ratio",
        {1.0, best[0] > 0 ? best[1] / best[0] : 0.0,
         best[0] > 0 ? best[2] / best[0] : 0.0}}});
}

}  // namespace

int main(int argc, char** argv) {
  Traffic traffic;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      traffic = {/*tenants=*/2, /*clients_per_tenant=*/1,
                 /*requests_per_client=*/3, /*rows=*/128, /*cols=*/12};
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  bench::Init(static_cast<int>(passthrough.size()), passthrough.data(),
              "serve");

  std::printf("serve traffic: %d tenants x %d clients x %d requests, "
              "X = %zux%zu\n",
              traffic.tenants, traffic.clients_per_tenant,
              traffic.requests_per_client, traffic.rows, traffic.cols);

  const ModeStats per_session = RunMode(/*shared_cache=*/false, traffic);
  const ModeStats shared = RunMode(/*shared_cache=*/true, traffic);

  bench::PrintTable(
      "Serve latency (s)", {"per-session", "shared"},
      {{"p50", {Percentile(per_session.latencies_ms, 0.50) / 1e3,
                Percentile(shared.latencies_ms, 0.50) / 1e3}},
       {"p95", {Percentile(per_session.latencies_ms, 0.95) / 1e3,
                Percentile(shared.latencies_ms, 0.95) / 1e3}},
       {"p99", {Percentile(per_session.latencies_ms, 0.99) / 1e3,
                Percentile(shared.latencies_ms, 0.99) / 1e3}},
       {"mean", {Mean(per_session.latencies_ms) / 1e3,
                 Mean(shared.latencies_ms) / 1e3}}});

  bench::PrintTable(
      "Serve reuse", {"per-session", "shared"},
      {{"lineage_hit_rate", {per_session.HitRate(), shared.HitRate()}},
       {"cross_session_hits_per_req",
        {0.0, shared.completed > 0
                  ? static_cast<double>(shared.cross_session_hits) /
                        shared.completed
                  : 0.0}},
       {"warmed_per_req",
        {0.0, shared.completed > 0
                  ? static_cast<double>(shared.warmed) / shared.completed
                  : 0.0}}});

  if (obs::TracePath().empty() && obs::JournalPath().empty()) {
    RunObserverEffect(traffic);
    RunVerifierEffect(traffic);
  } else {
    std::printf("\nobserver-effect and verifier-effect sections skipped: "
                "--trace/--journal active "
                "(the observer section resets the rings this run wants to "
                "keep)\n");
  }

  const ModeStats overload = RunOverload(traffic);
  bench::PrintTable(
      "Serve overload", {"count"},
      {{"completed", {static_cast<double>(overload.completed)}},
       {"rejected", {static_cast<double>(overload.rejected)}},
       {"expired", {static_cast<double>(overload.expired)}},
       {"failed", {static_cast<double>(overload.failed)}},
       {"total", {static_cast<double>(overload.Total())}}});

  std::printf("\nhit rate: per-session=%.3f shared=%.3f; "
              "shared p95 %.2fms vs per-session %.2fms\n",
              per_session.HitRate(), shared.HitRate(),
              Percentile(shared.latencies_ms, 0.95),
              Percentile(per_session.latencies_ms, 0.95));
  return bench::Finish();
}
