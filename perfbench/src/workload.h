#ifndef MEMPHIS_PERFBENCH_WORKLOAD_H_
#define MEMPHIS_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ledger.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;           // A few ops, one setup: the self-test mode.
  std::string out_dir = ".perfbench_out";
};

/// One attempted op of the timed phase, as the client saw it.
struct OpRecord {
  Clock::time_point start;
  double latency_ms = 0;
  double sim_s = 0;         // Cost-model seconds the op charged.
  bool completed = false;   // Finished without error, rejection or expiry.
  bool correct = false;     // Output bitwise equal to the reference.
};

/// A benchmark workload: a seeded, fixed op sequence run as a closed loop.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs, computes the reuse-off reference outputs and
  /// warms the system up. A second call discards the first call's state.
  virtual void Setup(const Options& options, SpanLog* log) = 0;

  /// Runs ops until `deadline` has passed and at least `min_ops` were
  /// attempted, appending one record per attempted op. Whenever the canary
  /// is due it is measured between ops, with no op in flight.
  virtual void RunTimed(Clock::time_point deadline, int64_t min_ops,
                        SpanLog* log, HostCanary* canary,
                        std::vector<OpRecord>* ops) = 0;

  /// Ends the timed phase: work still buffered in the program (session
  /// counters not yet flushed) is settled so a counter snapshot sees it.
  virtual void Quiesce() {}

  /// Values of every counter this workload's layers expose, as of now.
  virtual Counters SnapshotCounters() = 0;

  /// Out-of-loop probes of single layers (traced runs only): timed kernel
  /// or compiler calls at the workload's own input shapes.
  virtual void RunProbes(SpanLog* /*log*/) {}

  /// Adds the workload's own per-layer metrics (span- and result-derived)
  /// on top of the counter-derived ones the harness fills in.
  virtual void LayerMetrics(const Counters& delta, int64_t ops,
                            SpanLog* log, Report* report) = 0;

  /// Empty when the timed phase loaded every layer the workload exists
  /// for; otherwise what it missed.
  virtual std::string ShapeGuard(const Counters& delta, int64_t ops) = 0;

  /// Number of leading timed ops over which sim_s_per_op is averaged, so it
  /// repeats exactly for a seed; 0 = every timed op.
  virtual int64_t SimWindow() const = 0;

  /// Fewest timed ops a run attempts, whatever the deadline.
  virtual int64_t MinOps() const = 0;

  /// Seconds the last Setup spent in the dataset generators.
  virtual double InputGenSeconds() const = 0;

  /// Workload-specific fields of the run record, as JSON members.
  virtual std::string RecordJson() const = 0;

  /// Releases every resource (threads, directories) the workload holds.
  virtual void Teardown() {}
};

std::unique_ptr<Workload> MakeTune();
std::unique_ptr<Workload> MakeScore();
std::unique_ptr<Workload> MakeFleet();

/// Global-registry counters of the layers that live outside a session
/// (verifier, serve and its shared store, durable tier, fabric).
Counters GlobalLayerCounters();

/// Worker threads for the reference outputs computed in set-up. Results do
/// not depend on the pool size; every timed session pins its own.
int SetupThreads();

}  // namespace perfbench

#endif  // MEMPHIS_PERFBENCH_WORKLOAD_H_
