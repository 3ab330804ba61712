#include "ledger.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// --- HostCanary -----------------------------------------------------------------

namespace {

volatile double canary_sink = 0.0;  // Keeps the canary's work observable.

double RunCanaryOnce() {
  constexpr size_t n = 96;
  static std::vector<double> a(n * n, 1.000001), b(n * n, 0.999999),
      c(n * n), stream(size_t{1} << 19, 1.0);  // 4 MiB streamed.
  const Clock::time_point start = Clock::now();
  std::fill(c.begin(), c.end(), 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < n; ++k) {
      const double av = a[i * n + k];
      for (size_t j = 0; j < n; ++j) c[i * n + j] += av * b[k * n + j];
    }
  }
  double sum = 0.0;
  for (double v : stream) sum += v;
  canary_sink = canary_sink + c[n + 1] + sum;
  return MillisSince(start);
}

}  // namespace

void HostCanary::Measure() {
  const Clock::time_point start = Clock::now();
  double best = RunCanaryOnce();
  for (int rep = 1; rep < 3; ++rep) best = std::min(best, RunCanaryOnce());
  samples_.push_back({Clock::now(), best, SecondsSince(start)});
}

bool HostCanary::Due() const {
  return samples_.empty() || SecondsSince(samples_.back().at) >= kIntervalS;
}

double HostCanary::Slowdown(Clock::time_point t) const {
  if (samples_.empty()) return 1.0;
  // Nearest measurement, then the five around it.
  const auto it = std::lower_bound(
      samples_.begin(), samples_.end(), t,
      [](const Sample& s, Clock::time_point at) { return s.at < at; });
  const size_t next = static_cast<size_t>(it - samples_.begin());
  size_t nearest = next;
  if (next == samples_.size() ||
      (next > 0 && t - samples_[next - 1].at < samples_[next].at - t)) {
    nearest = next - 1;
  }
  const size_t hi = std::min(samples_.size(), std::max<size_t>(nearest, 2) + 3);
  const size_t lo = hi >= 5 ? hi - 5 : 0;
  std::vector<double> window;
  for (size_t i = lo; i < hi; ++i) window.push_back(samples_[i].ms);
  return Median(window) / kNominalMs;
}

double HostCanary::NominalSeconds(Clock::time_point from,
                                  Clock::time_point to) const {
  auto stretch = [&](Clock::time_point a, Clock::time_point b) {
    if (b <= a) return 0.0;
    const double seconds = std::chrono::duration<double>(b - a).count();
    return seconds / Slowdown(a + (b - a) / 2);
  };
  double total = 0.0;
  Clock::time_point cursor = from;
  for (const Sample& sample : samples_) {
    if (sample.at <= from || sample.at > to) continue;
    const Clock::time_point began =
        sample.at - std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(sample.spent_s));
    total += stretch(cursor, began);
    cursor = sample.at;  // The canary's own time is not the system's.
  }
  return total + stretch(cursor, to);
}

double HostCanary::MedianSlowdown() const {
  std::vector<double> ms;
  for (const Sample& sample : samples_) ms.push_back(sample.ms);
  return ms.empty() ? 1.0 : Median(ms) / kNominalMs;
}

// --- SpanLog ------------------------------------------------------------------

SpanLog::SpanLog() : epoch_(Clock::now()), slice_start_(epoch_) {}

int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void SpanLog::Enable(bool alternate, double slice_s) {
  recording_ = true;
  alternate_ = alternate;
  slice_s_ = slice_s;
  slice_start_ = Clock::now();
  slice_ops_ = 0;
}

void SpanLog::CloseSlice() {
  const double elapsed = SecondsSince(slice_start_);
  if (recording_) {
    on_seconds_ += elapsed;
    on_ops_ += slice_ops_;
  } else {
    off_seconds_ += elapsed;
    off_ops_ += slice_ops_;
  }
  slice_ops_ = 0;
  slice_start_ = Clock::now();
}

void SpanLog::Tick() {
  if (!alternate_ || SecondsSince(slice_start_) < slice_s_) return;
  CloseSlice();
  recording_ = !recording_;
}

void SpanLog::CountOp() { ++slice_ops_; }

double SpanLog::OverheadRatio() {
  if (!alternate_) return 1.0;
  CloseSlice();
  if (on_ops_ == 0 || off_ops_ == 0 || on_seconds_ <= 0 || off_seconds_ <= 0) {
    return 1.0;
  }
  const double off_rate = static_cast<double>(off_ops_) / off_seconds_;
  const double on_rate = static_cast<double>(on_ops_) / on_seconds_;
  return off_rate / on_rate;
}

int SpanLog::Begin(const char* name, int parent, int64_t op) {
  if (!recording_) return -1;
  if (op < 0 && parent >= 0) op = spans_[static_cast<size_t>(parent)].op;
  spans_.push_back({name, parent, op, NowNs(), -1});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

std::map<std::string, SpanLog::Summary> SpanLog::Summarize() const {
  std::vector<std::vector<int>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    if (parent >= 0 && spans_[i].end_ns >= 0) {
      children[static_cast<size_t>(parent)].push_back(static_cast<int>(i));
    }
  }
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, Summary> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;  // Left open by an aborted op.
    const double duration_us =
        static_cast<double>(span.end_ns - span.start_ns) / 1000.0;
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (int c : children[i]) {
      const Span& child = spans_[static_cast<size_t>(c)];
      covered.emplace_back(std::max(child.start_ns, span.start_ns),
                           std::min(child.end_ns, span.end_ns));
    }
    std::sort(covered.begin(), covered.end());
    int64_t covered_ns = 0;
    int64_t reach = span.start_ns;
    for (const auto& [lo, hi] : covered) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered_ns += hi - from;
        reach = hi;
      }
    }
    Summary& summary = out[span.name];
    ++summary.count;
    summary.total_us += duration_us;
    summary.self_us += duration_us - static_cast<double>(covered_ns) / 1000.0;
    durations[span.name].push_back(duration_us);
  }
  for (auto& [name, summary] : out) {
    summary.p50_us = Median(durations[name]);
  }
  return out;
}

bool SpanLog::Write(const std::string& path,
                    const std::string& header_json) const {
  std::ofstream out(path);
  out << "{" << header_json << ",\n \"spans\": [";
  bool first = true;
  for (const Span& span : spans_) {
    if (span.end_ns < 0) continue;
    out << (first ? "\n  " : ",\n  ") << "{\"name\": " << JsonString(span.name)
        << ", \"op\": " << span.op << ", \"parent\": " << span.parent
        << ", \"start_us\": " << JsonNumber(span.start_ns / 1000.0)
        << ", \"end_us\": " << JsonNumber(span.end_ns / 1000.0) << "}";
    first = false;
  }
  out << "\n ],\n \"summary\": {";
  first = true;
  for (const auto& [name, summary] : Summarize()) {
    out << (first ? "\n  " : ",\n  ") << JsonString(name)
        << ": {\"count\": " << summary.count
        << ", \"total_us\": " << JsonNumber(summary.total_us)
        << ", \"self_us\": " << JsonNumber(summary.self_us)
        << ", \"p50_us\": " << JsonNumber(summary.p50_us) << "}";
    first = false;
  }
  out << "\n }\n}\n";
  return out.good();
}

// --- counters -------------------------------------------------------------------

Counters Snapshot(const memphis::obs::MetricsRegistry& registry) {
  Counters counters;
  for (const auto& sample : registry.Snapshot()) {
    counters[sample.name] = sample.value;
  }
  return counters;
}

double Get(const Counters& counters, const std::string& name) {
  auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

Counters Diff(const Counters& before, const Counters& after) {
  Counters delta;
  for (const auto& [name, value] : after) delta[name] = value - Get(before, name);
  for (const auto& [name, value] : before) {
    if (after.count(name) == 0) delta[name] = -value;
  }
  return delta;
}

void Accumulate(const Counters& add, Counters* sum) {
  for (const auto& [name, value] : add) (*sum)[name] += value;
}

// --- report ---------------------------------------------------------------------

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

bool Report::Has(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return true;
  }
  return false;
}

double Report::Value(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return entry.value;
  }
  return 0.0;
}

std::string Report::MetricsJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(entries_[i].name) + ": {\"value\": " +
           JsonNumber(entries_[i].value) +
           ", \"unit\": " + JsonString(entries_[i].unit) + "}";
  }
  return out + "}";
}

std::string Report::Table() const {
  std::ostringstream out;
  for (const Entry& entry : entries_) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-34s %16.6g %s\n",
                  entry.name.c_str(), entry.value, entry.unit.c_str());
    out << line;
  }
  return out.str();
}

// --- host facts -------------------------------------------------------------------

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

int OnlineCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

}  // namespace perfbench
