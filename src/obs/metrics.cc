#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/event_ring.h"

namespace memphis::obs {

namespace {

void AtomicAddDouble(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMinDouble(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value < current && !target->compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value > current && !target->compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

// --- Histogram --------------------------------------------------------------

int Histogram::BucketIndex(double value) const {
  if (!(value > 0.0) || value < lowest_) return 0;
  // frexp(v / lowest) = m * 2^e with m in [0.5, 1): v == lowest * 2^i gives
  // m == 0.5, e == i + 1 exactly, so boundaries are lower-inclusive with no
  // rounding slop from a log() call.
  int exponent = 0;
  const double mantissa = std::frexp(value / lowest_, &exponent);
  (void)mantissa;
  const int bucket = exponent - 1;
  if (bucket < 0) return 0;
  if (bucket >= kNumBuckets) return kNumBuckets - 1;
  return bucket;
}

double Histogram::BucketLowerBound(int bucket) const {
  return lowest_ * std::ldexp(1.0, bucket);
}

void Histogram::Record(double value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_, value);
  AtomicMinDouble(&min_, value);
  AtomicMaxDouble(&max_, value);
}

double Histogram::min() const { return min_.load(std::memory_order_relaxed); }
double Histogram::max() const { return max_.load(std::memory_order_relaxed); }

double Histogram::mean() const {
  const int64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

double Histogram::Quantile(double q) const {
  const int64_t n = count();
  if (n == 0) return 0.0;
  // Rank of the q-th sample, 1-based, clamped into [1, n].
  const auto rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  int64_t seen = 0;
  for (int bucket = 0; bucket < kNumBuckets; ++bucket) {
    seen += buckets_[bucket].load(std::memory_order_relaxed);
    if (seen >= std::max<int64_t>(1, rank)) return BucketLowerBound(bucket);
  }
  return BucketLowerBound(kNumBuckets - 1);
}

void Histogram::MergeFrom(const Histogram& other) {
  for (int bucket = 0; bucket < kNumBuckets; ++bucket) {
    const int64_t delta =
        other.buckets_[bucket].load(std::memory_order_relaxed);
    if (delta != 0) buckets_[bucket].fetch_add(delta, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  AtomicAddDouble(&sum_, other.sum());
  AtomicMinDouble(&min_, other.min());
  AtomicMaxDouble(&max_, other.max());
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

// --- MetricsRegistry --------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = [] {
    auto* created = new MetricsRegistry();
    // Lock-rank violations detected by the debug-build sync validator (the
    // counter also ticks in no-abort test mode; see common/sync.h).
    created->RegisterCallback("sync.rank_violations", [] {
      return static_cast<double>(RankViolationCount());
    });
    return created;
  }();
  return *registry;
}

MetricsRegistry::Entry& MetricsRegistry::Slot(const std::string& name) {
  return entries_[name];
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  WriterLock lock(mu_);
  Entry& entry = Slot(name);
  if (entry.counter == nullptr) {
    owned_counters_.push_back(std::make_unique<Counter>());
    entry.counter = owned_counters_.back().get();
  }
  return entry.counter;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  WriterLock lock(mu_);
  Entry& entry = Slot(name);
  if (entry.gauge == nullptr) {
    owned_gauges_.push_back(std::make_unique<Gauge>());
    entry.gauge = owned_gauges_.back().get();
  }
  return entry.gauge;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         double lowest) {
  WriterLock lock(mu_);
  Entry& entry = Slot(name);
  if (entry.histogram == nullptr) {
    owned_histograms_.push_back(std::make_unique<Histogram>(lowest));
    entry.histogram = owned_histograms_.back().get();
  }
  return entry.histogram;
}

void MetricsRegistry::Register(const std::string& name, Counter* counter) {
  WriterLock lock(mu_);
  Slot(name).counter = counter;
}

void MetricsRegistry::Register(const std::string& name, Gauge* gauge) {
  WriterLock lock(mu_);
  Slot(name).gauge = gauge;
}

void MetricsRegistry::Register(const std::string& name, Histogram* histogram) {
  WriterLock lock(mu_);
  Slot(name).histogram = histogram;
}

void MetricsRegistry::RegisterCallback(const std::string& name,
                                       std::function<double()> fn) {
  WriterLock lock(mu_);
  Slot(name).callback = std::move(fn);
}

size_t MetricsRegistry::size() const {
  ReaderLock lock(mu_);
  return entries_.size();
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::Snapshot() const {
  // Shared: snapshots (and the callbacks they sample) never mutate the
  // registry, so concurrent exporters don't serialize.
  ReaderLock lock(mu_);
  std::vector<Sample> samples;
  samples.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    Sample sample;
    sample.name = name;
    if (entry.histogram != nullptr) {
      const Histogram& h = *entry.histogram;
      sample.kind = Sample::Kind::kHistogram;
      sample.count = h.count();
      sample.value = h.sum();
      sample.p50 = h.Quantile(0.50);
      sample.p95 = h.Quantile(0.95);
      sample.p99 = h.Quantile(0.99);
      sample.min = sample.count > 0 ? h.min() : 0.0;
      sample.max = sample.count > 0 ? h.max() : 0.0;
    } else if (entry.counter != nullptr) {
      sample.kind = Sample::Kind::kCounter;
      sample.value = static_cast<double>(entry.counter->value());
    } else if (entry.gauge != nullptr) {
      sample.kind = Sample::Kind::kGauge;
      sample.value = entry.gauge->value();
    } else if (entry.callback) {
      sample.kind = Sample::Kind::kCallback;
      sample.value = entry.callback();
    } else {
      continue;
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

std::string MetricsRegistry::ToText() const {
  std::ostringstream oss;
  for (const Sample& sample : Snapshot()) {
    oss << "  " << sample.name << " = ";
    if (sample.kind == Sample::Kind::kHistogram) {
      oss << "count=" << sample.count << " sum=" << sample.value
          << " p50=" << sample.p50 << " p95=" << sample.p95
          << " p99=" << sample.p99;
    } else {
      oss << sample.value;
    }
    oss << "\n";
  }
  return oss.str();
}

std::string MetricsRegistry::ToJson() const {
  std::ostringstream oss;
  oss << "{";
  bool first = true;
  for (const Sample& sample : Snapshot()) {
    if (!first) oss << ",";
    first = false;
    oss << "\n  \"" << sample.name << "\": ";
    if (sample.kind == Sample::Kind::kHistogram) {
      char buffer[256];
      std::snprintf(buffer, sizeof(buffer),
                    "{\"count\": %lld, \"sum\": %.9g, \"p50\": %.9g, "
                    "\"p95\": %.9g, \"p99\": %.9g, \"min\": %.9g, "
                    "\"max\": %.9g}",
                    static_cast<long long>(sample.count), sample.value,
                    sample.p50, sample.p95, sample.p99, sample.min,
                    sample.max);
      oss << buffer;
    } else {
      char buffer[48];
      std::snprintf(buffer, sizeof(buffer), "%.9g", sample.value);
      oss << buffer;
    }
  }
  oss << "\n}\n";
  return oss.str();
}

bool MetricsRegistry::WriteJson(const std::string& path) const {
  return internal::WriteTextFile(path, ToJson());
}

void MetricsRegistry::FlushInto(MetricsRegistry* target) const {
  struct HistogramFlush {
    std::string name;
    const Histogram* source;
  };
  std::vector<Sample> samples;
  std::vector<HistogramFlush> histograms;
  {
    ReaderLock lock(mu_);
    for (const auto& [name, entry] : entries_) {
      if (entry.histogram != nullptr) {
        histograms.push_back({name, entry.histogram});
      }
    }
  }
  samples = Snapshot();
  for (const Sample& sample : samples) {
    switch (sample.kind) {
      case Sample::Kind::kCounter:
        target->GetCounter(sample.name)
            ->Add(static_cast<int64_t>(sample.value));
        break;
      case Sample::Kind::kGauge:
        target->GetGauge(sample.name)->Add(sample.value);
        break;
      case Sample::Kind::kCallback:
        target->GetGauge(sample.name)->Set(sample.value);
        break;
      case Sample::Kind::kHistogram:
        break;  // Merged below with full bucket detail.
    }
  }
  for (const HistogramFlush& flush : histograms) {
    target->GetHistogram(flush.name, flush.source->lowest())
        ->MergeFrom(*flush.source);
  }
}

}  // namespace memphis::obs
