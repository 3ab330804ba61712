#ifndef MEMPHIS_PERFBENCH_LEDGER_H_
#define MEMPHIS_PERFBENCH_LEDGER_H_

// The benchmark's own measurement plumbing: an in-memory span log around
// the calls the benchmark makes into the program's layers, counter
// snapshots of the registries those layers already expose, and the
// result record every run prints.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
double MillisSince(Clock::time_point start);

/// Quantile of `values` by linear interpolation between order statistics
/// (the "inclusive" definition). 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Host-speed canary. The shared host this benchmark runs on changes speed
/// in phases of seconds (the same single-threaded job takes 85 ms in one
/// phase and 150 ms in the next), which no run length averages away. The
/// canary is fixed work owned by the benchmark -- a naive dense multiply
/// plus a streaming sum, about 1 ms -- timed only while no op is in flight,
/// so program changes cannot move it. Its local time over kNominalMs is the
/// host's slowdown at that moment; times divided by it read as on the
/// reference host (the 4-vCPU Xeon the nominal time was taken on).
class HostCanary {
 public:
  static constexpr double kNominalMs = 1.0;
  /// Measurement cadence during the timed phase (about 1.5% of the time).
  static constexpr double kIntervalS = 0.2;

  /// Runs the canary (best of three) and records its time now.
  void Measure();
  /// True when kIntervalS has passed since the last measurement.
  bool Due() const;

  /// Slowdown around `t`: median of the nearest five measurements over
  /// kNominalMs (1 when nothing was measured).
  double Slowdown(Clock::time_point t) const;
  /// Wall seconds from `from` to `to`, less the canary's own time, each
  /// stretch between measurements divided by its slowdown.
  double NominalSeconds(Clock::time_point from, Clock::time_point to) const;
  /// Median slowdown over every measurement.
  double MedianSlowdown() const;

 private:
  struct Sample {
    Clock::time_point at;  // End of the measurement.
    double ms;             // Best of three.
    double spent_s;        // Wall time the measurement took.
  };
  std::vector<Sample> samples_;
};

/// Spans recorded around the benchmark's calls into the program. Each span
/// has a name, start, end, parent span and the id of the op it belongs to;
/// they stay in memory and are written once, when the run ends.
///
/// In a traced run the log alternates between recording and idle slices of
/// fixed length, so one process measures its own tracing overhead: ops
/// completed per second in idle slices over those in recording slices.
class SpanLog {
 public:
  SpanLog();

  /// Turns recording on; with `alternate` it flips every `slice_s` seconds.
  void Enable(bool alternate, double slice_s);
  bool recording() const { return recording_; }

  /// Called once per op start: advances the alternating slice clock.
  void Tick();
  /// Counts one completed op in the current slice.
  void CountOp();

  /// Opens a span (returns -1 while not recording). `parent` is a span id
  /// from Begin or -1; `op` groups the spans of one op.
  int Begin(const char* name, int parent = -1, int64_t op = -1);
  void End(int id);

  struct Summary {
    int64_t count = 0;
    double total_us = 0;
    double self_us = 0;  // Duration minus the union of the children's.
    double p50_us = 0;
  };
  std::map<std::string, Summary> Summarize() const;

  /// Untraced over traced throughput from the alternating slices (1 when
  /// the log never alternated).
  double OverheadRatio();

  /// JSON dump: every span plus the per-name summary.
  bool Write(const std::string& path, const std::string& header_json) const;

 private:
  struct Span {
    const char* name;
    int parent;
    int64_t op;
    int64_t start_ns;
    int64_t end_ns;
  };
  int64_t NowNs() const;
  void CloseSlice();

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  bool recording_ = false;
  bool alternate_ = false;
  double slice_s_ = 0.5;
  Clock::time_point slice_start_;
  int64_t slice_ops_ = 0;
  double on_seconds_ = 0, off_seconds_ = 0;
  int64_t on_ops_ = 0, off_ops_ = 0;
};

/// RAII span; a no-op while the log is not recording.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent = -1, int64_t op = -1)
      : log_(log), id_(log->Begin(name, parent, op)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Point-in-time values of every metric in a registry (histograms by sum).
using Counters = std::map<std::string, double>;
Counters Snapshot(const memphis::obs::MetricsRegistry& registry);
/// after - before, name by name; a name missing on one side reads as 0.
Counters Diff(const Counters& before, const Counters& after);
/// Adds every value of `add` into `sum`.
void Accumulate(const Counters& add, Counters* sum);
double Get(const Counters& counters, const std::string& name);

/// Named metric values with units, printed as the run's result line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Value(const std::string& name) const;
  /// {"name": {"value": v, "unit": u}, ...} in insertion order.
  std::string MetricsJson() const;
  /// One "name value unit" line per metric.
  std::string Table() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Shortest decimal text that reads back as exactly `value`.
std::string JsonNumber(double value);
std::string JsonString(const std::string& text);

double PeakRssMb();
std::string CpuModel();
int OnlineCpus();

}  // namespace perfbench

#endif  // MEMPHIS_PERFBENCH_LEDGER_H_
