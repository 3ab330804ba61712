// Tests for the observability layer (src/obs/): the metrics primitives and
// registry, the trace collector's ring accounting, disabled-mode cost
// contract, quiescence enforcement, and Chrome-trace export; the reuse
// journal's accounting and request-context stamping; the crash flight
// recorder; and the snapshot exporter's late-flush landing pad.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "common/thread_pool.h"
#include "core/system.h"
#include "matrix/kernels.h"
#include "obs/exporter.h"
#include "obs/flight.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/trace.h"
#include "sim/timeline.h"

namespace memphis {
namespace {

// --- metrics primitives -----------------------------------------------------

TEST(MetricsTest, CounterIsDropInForInt64) {
  obs::Counter counter;
  ++counter;
  counter += 4;
  counter.Add(5);
  EXPECT_EQ(counter, 10);  // Implicit conversion, like the old plain fields.
  EXPECT_EQ(counter.value(), 10);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(MetricsTest, GaugeAccumulatesAndSets) {
  obs::Gauge gauge;
  gauge += 1.5;
  gauge.Add(2.5);
  EXPECT_DOUBLE_EQ(gauge, 4.0);
  gauge.Set(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), -1.0);
}

TEST(MetricsTest, HistogramBucketBoundariesAreExact) {
  // Bucket i covers [lowest * 2^i, lowest * 2^(i+1)): the lower bound must
  // land in bucket i exactly -- no log() rounding slop -- and the largest
  // representable value strictly below it in bucket i-1.
  for (double lowest : {1.0, 1e-6, 1e-9, 3.0}) {
    obs::Histogram h(lowest);
    for (int i = 0; i < obs::Histogram::kNumBuckets; ++i) {
      const double bound = h.BucketLowerBound(i);
      EXPECT_EQ(h.BucketIndex(bound), i)
          << "lowest=" << lowest << " bucket=" << i;
      if (i > 0) {
        EXPECT_EQ(h.BucketIndex(std::nextafter(bound, 0.0)), i - 1)
            << "lowest=" << lowest << " bucket=" << i;
      }
    }
  }
}

TEST(MetricsTest, HistogramClampsOutOfRangeValues) {
  obs::Histogram h(1.0);
  EXPECT_EQ(h.BucketIndex(0.0), 0);
  EXPECT_EQ(h.BucketIndex(-5.0), 0);
  EXPECT_EQ(h.BucketIndex(0.25), 0);  // Below `lowest` lands in bucket 0.
  EXPECT_EQ(h.BucketIndex(std::ldexp(1.0, 200)),
            obs::Histogram::kNumBuckets - 1);
}

TEST(MetricsTest, HistogramQuantilesPickBucketLowerBounds) {
  obs::Histogram h(1.0);
  for (int i = 0; i < 50; ++i) h.Record(1.0);  // bucket 0
  for (int i = 0; i < 30; ++i) h.Record(2.0);  // bucket 1
  for (int i = 0; i < 20; ++i) h.Record(4.0);  // bucket 2
  EXPECT_EQ(h.count(), 100);
  EXPECT_DOUBLE_EQ(h.mean(), 1.9);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.50), 1.0);  // rank 50 is the last 1.0.
  EXPECT_DOUBLE_EQ(h.Quantile(0.80), 2.0);  // rank 80 is the last 2.0.
  EXPECT_DOUBLE_EQ(h.Quantile(0.95), 4.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 4.0);
}

TEST(MetricsTest, HistogramMergePreservesBucketsAndExtrema) {
  obs::Histogram a(1.0);
  obs::Histogram b(1.0);
  a.Record(1.0);
  a.Record(8.0);
  b.Record(2.0);
  b.Record(32.0);
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), 4);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 32.0);
  EXPECT_EQ(a.BucketCount(1), 1);  // The 2.0 arrived in its exact bucket.
  EXPECT_EQ(a.BucketCount(5), 1);  // And the 32.0.
}

// --- registry ---------------------------------------------------------------

TEST(MetricsRegistryTest, OwnedMetricsAreIdentityStable) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("x.count");
  EXPECT_EQ(counter, registry.GetCounter("x.count"));
  obs::Histogram* histogram = registry.GetHistogram("x.hist", 1e-3);
  EXPECT_EQ(histogram, registry.GetHistogram("x.hist"));
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistryTest, SnapshotCoversAllFlavors) {
  obs::MetricsRegistry registry;
  obs::Counter external;
  external += 7;
  registry.Register("ext.counter", &external);
  registry.GetGauge("own.gauge")->Set(2.5);
  registry.RegisterCallback("cb.depth", [] { return 42.0; });
  registry.GetHistogram("own.hist", 1.0)->Record(4.0);

  const auto samples = registry.Snapshot();
  ASSERT_EQ(samples.size(), 4u);
  // std::map ordering: names come back sorted.
  EXPECT_EQ(samples[0].name, "cb.depth");
  EXPECT_DOUBLE_EQ(samples[0].value, 42.0);
  EXPECT_EQ(samples[1].name, "ext.counter");
  EXPECT_DOUBLE_EQ(samples[1].value, 7.0);
  EXPECT_EQ(samples[2].name, "own.gauge");
  EXPECT_EQ(samples[3].name, "own.hist");
  EXPECT_EQ(samples[3].count, 1);

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"ext.counter\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"own.hist\": {\"count\": 1"), std::string::npos)
      << json;
}

TEST(MetricsRegistryTest, FlushIntoAccumulates) {
  obs::MetricsRegistry source;
  obs::Counter counter;
  counter += 5;
  source.Register("test.counter", &counter);
  source.GetGauge("test.gauge")->Set(2.0);
  source.RegisterCallback("test.callback", [] { return 7.0; });
  source.GetHistogram("test.hist", 1.0)->Record(2.0);

  obs::MetricsRegistry target;
  source.FlushInto(&target);
  source.FlushInto(&target);
  EXPECT_EQ(target.GetCounter("test.counter")->value(), 10);  // Counters add.
  EXPECT_DOUBLE_EQ(target.GetGauge("test.gauge")->value(), 4.0);  // Add.
  EXPECT_DOUBLE_EQ(target.GetGauge("test.callback")->value(),
                   7.0);  // Last value wins.
  EXPECT_EQ(target.GetHistogram("test.hist")->count(), 2);  // Buckets merge.
  EXPECT_EQ(target.GetHistogram("test.hist")->BucketCount(1), 2);
}

// --- trace collector --------------------------------------------------------

TEST(TraceTest, DisabledMacrosEmitNothing) {
  obs::EnableTracing(false);
  obs::ResetTrace();
  for (int i = 0; i < 100; ++i) {
    MEMPHIS_TRACE_SPAN1("test", "span", "i", static_cast<double>(i));
    MEMPHIS_TRACE_INSTANT2("test", "instant", "a", 1.0, "b", 2.0);
  }
  const obs::TraceSnapshot snapshot = obs::CollectTrace();
  EXPECT_EQ(snapshot.emitted, 0u);
  EXPECT_EQ(snapshot.dropped, 0u);
  EXPECT_TRUE(snapshot.events.empty());
}

TEST(TraceTest, ScopedSpanBalancesEvenIfFlagFlipsMidSpan) {
  obs::EnableTracing(true);
  obs::ResetTrace();
  {
    MEMPHIS_TRACE_SPAN("test", "outer");
    obs::EnableTracing(false);  // Destructor must still emit the 'E'.
  }
  obs::EnableTracing(false);
  const obs::TraceSnapshot snapshot = obs::CollectTrace();
  ASSERT_EQ(snapshot.events.size(), 2u);
  EXPECT_EQ(snapshot.events[0].ph, 'B');
  EXPECT_EQ(snapshot.events[1].ph, 'E');
  obs::ResetTrace();
}

TEST(TraceTest, InternReturnsStablePointers) {
  const char* a = obs::Intern("op:matmult");
  const char* b = obs::Intern("op:" + std::string("matmult"));
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "op:matmult");
}

TEST(TraceTest, SimTimelineReservationsLandOnLanes) {
  obs::EnableTracing(true);
  obs::ResetTrace();
  sim::Timeline timeline("test-resource");
  timeline.Reserve(0.0, 0.5, "work-a");
  timeline.Reserve(0.0, 0.25);  // Unlabeled: the timeline's name is used.
  sim::MultiLaneTimeline lanes("test-lanes", 2);
  lanes.Reserve(0.0, 1.0, "job");
  lanes.Reserve(0.0, 1.0, "job");
  obs::EnableTracing(false);

  const obs::TraceSnapshot snapshot = obs::CollectTrace();
  ASSERT_EQ(snapshot.events.size(), 4u);
  for (const obs::TraceEvent& event : snapshot.events) {
    EXPECT_EQ(event.ph, 'X');
    EXPECT_GE(event.lane, 0);
    EXPECT_STREQ(event.cat, "sim");
  }
  EXPECT_STREQ(snapshot.events[0].name, "work-a");
  EXPECT_DOUBLE_EQ(snapshot.events[0].dur_us, 0.5 * 1e6);
  EXPECT_STREQ(snapshot.events[1].name, "test-resource");
  // Second Reserve on the serial timeline queues FIFO behind the first.
  EXPECT_DOUBLE_EQ(snapshot.events[1].ts_us, 0.5 * 1e6);
  // The two concurrent jobs land on *different* lanes at t=0.
  EXPECT_NE(snapshot.events[2].lane, snapshot.events[3].lane);
  obs::ResetTrace();
}

// No lost-event accounting under ring wrap-around: 8 threads each emit
// enough to overflow a deliberately tiny ring; emitted == collected +
// dropped must hold exactly, and every surviving ring holds exactly its
// capacity of the newest events.
TEST(TraceTest, ConcurrentEmissionAccountsForEveryEvent) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 1000;  // 2000 events; ring holds 1024.
  constexpr uint64_t kCapacity = 1024;

  obs::ResetTrace();
  obs::SetEventRingCapacity(kCapacity);
  obs::EnableTracing(true);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        MEMPHIS_TRACE_SPAN2("test", "work", "thread", static_cast<double>(t),
                            "i", static_cast<double>(i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  obs::EnableTracing(false);

  const obs::TraceSnapshot snapshot = obs::CollectTrace();
  const uint64_t expected_emitted = uint64_t{kThreads} * kSpansPerThread * 2;
  EXPECT_EQ(snapshot.emitted, expected_emitted);
  EXPECT_EQ(snapshot.events.size(), uint64_t{kThreads} * kCapacity);
  EXPECT_EQ(snapshot.emitted, snapshot.events.size() + snapshot.dropped);
  obs::ResetTrace();
  obs::SetEventRingCapacity(size_t{1} << 17);  // Restore the default.
}

// Pool threads share the collector with the driver thread: emission from
// inside ParallelFor chunks must be race-free (this test is the TSan canary)
// and the accounting invariant must still hold with the pool's own
// instrumentation (parallel-for/chunk spans) interleaved.
TEST(TraceTest, PoolThreadsEmitConcurrently) {
  obs::ResetTrace();
  obs::EnableTracing(true);
  ThreadPool::Global().Resize(8);
  constexpr int kItems = 4096;
  std::vector<double> sink(kItems, 0.0);
  ThreadPool::Global().ParallelFor(0, kItems, 64, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      MEMPHIS_TRACE_INSTANT1("test", "item", "i", static_cast<double>(i));
      sink[i] = static_cast<double>(i);
    }
  });
  ThreadPool::Global().Resize(1);
  obs::EnableTracing(false);

  const obs::TraceSnapshot snapshot = obs::CollectTrace();
  EXPECT_GE(snapshot.emitted, static_cast<uint64_t>(kItems));
  EXPECT_EQ(snapshot.emitted, snapshot.events.size() + snapshot.dropped);
  int instants = 0;
  for (const obs::TraceEvent& event : snapshot.events) {
    if (event.ph == 'i' && std::string(event.name) == "item") ++instants;
  }
  EXPECT_LE(instants, kItems);
  if (snapshot.dropped == 0) {
    EXPECT_EQ(instants, kItems);  // No ring wrapped: every item survived.
  }
  obs::ResetTrace();
}

// --- export -----------------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int CountOccurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(TraceExportTest, WritesBalancedChromeTrace) {
  obs::ResetTrace();
  obs::EnableTracing(true);
  {
    MEMPHIS_TRACE_SPAN("test", "outer");
    MEMPHIS_TRACE_SPAN1("test", "inner", "k", 1.0);
    MEMPHIS_TRACE_INSTANT("test", "tick");
  }
  // An unmatched 'B' (as left behind by ring wrap-around): the exporter
  // must synthesize its closing 'E' so the file stays stack-balanced.
  obs::EmitBegin("test", "unclosed");
  sim::Timeline timeline("export-lane");
  timeline.Reserve(0.0, 1.0, "sim-work");
  obs::EnableTracing(false);

  const std::string path = ::testing::TempDir() + "/obs_export_test.json";
  ASSERT_TRUE(obs::WriteChromeTrace(path));
  const std::string json = ReadFile(path);

  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("wall-clock"), std::string::npos);
  EXPECT_NE(json.find("simulated-time"), std::string::npos);
  EXPECT_NE(json.find("export-lane"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""),
            CountOccurrences(json, "\"ph\":\"E\""));
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"unclosed\""), 2);  // B + E.
  std::remove(path.c_str());
  obs::ResetTrace();
}

// --- quiescence enforcement -------------------------------------------------

std::atomic<bool> g_pause_armed{false};
std::atomic<bool> g_in_window{false};
std::atomic<bool> g_release{false};

// Traps the first emission after arming inside the mid-emission window until
// the test releases it (the hook runs on the emitting thread, between its
// mid-flight registration and the ring push).
void PauseFirstEmission() {
  if (!g_pause_armed.exchange(false)) return;
  g_in_window.store(true);
  while (!g_release.load()) std::this_thread::yield();
}

// Arms PauseFirstEmission and the no-abort mode for one test; the destructor
// releases a held emitter's window and restores the defaults.
class ScopedEmissionPause {
 public:
  ScopedEmissionPause() {
    obs::SetQuiescenceAbortForTest(false);
    obs::SetEmissionPauseHookForTest(&PauseFirstEmission);
    g_release.store(false);
    g_in_window.store(false);
    g_pause_armed.store(true);
  }
  ~ScopedEmissionPause() {
    g_release.store(true);
    obs::SetEmissionPauseHookForTest(nullptr);
    obs::SetQuiescenceAbortForTest(true);
  }
  void WaitUntilHeld() {
    while (!g_in_window.load()) std::this_thread::yield();
  }
  void Release() { g_release.store(true); }
};

// The drain contract is enforced, not just documented: CollectTrace while a
// worker is mid-emission is a detected violation (counted here, an abort in
// production), and becomes legal again once the emitter finished.
TEST(TraceQuiescenceTest, CollectWhileEmittingIsDetected) {
  obs::ResetTrace();
  obs::EnableTracing(true);
  ScopedEmissionPause pause;
  const int64_t before = obs::QuiescenceViolations();
  std::thread emitter([] { MEMPHIS_TRACE_INSTANT("test", "mid-emission"); });
  pause.WaitUntilHeld();
  obs::CollectTrace();  // Mid-emission drain: must be caught.
  EXPECT_EQ(obs::QuiescenceViolations(), before + 1);

  pause.Release();
  emitter.join();
  const int64_t held = obs::QuiescenceViolations();
  obs::CollectTrace();  // Emitter joined: draining is legal again.
  EXPECT_EQ(obs::QuiescenceViolations(), held);
  obs::EnableTracing(false);
  obs::ResetTrace();
}

// Journal drains carry the same enforced contract as trace drains.
TEST(TraceQuiescenceTest, CollectJournalWhileEmittingIsDetected) {
  obs::ResetJournal();
  obs::EnableJournal(true);
  ScopedEmissionPause pause;
  const int64_t before = obs::QuiescenceViolations();
  std::thread emitter(
      [] { MEMPHIS_JOURNAL(kProbe, kHost, kNone, 0x5, 0.0, 0.0); });
  pause.WaitUntilHeld();
  obs::CollectJournal();  // Mid-emission drain: must be caught.
  EXPECT_EQ(obs::QuiescenceViolations(), before + 1);

  pause.Release();
  emitter.join();
  const int64_t held = obs::QuiescenceViolations();
  EXPECT_EQ(obs::CollectJournal().events.size(), 1u);
  EXPECT_EQ(obs::QuiescenceViolations(), held);
  obs::EnableJournal(false);
  obs::ResetJournal();
}

// --- reuse journal ----------------------------------------------------------

TEST(JournalTest, DisabledMacroCostsOneLoadAndEvaluatesNoArgs) {
  obs::EnableJournal(false);
  obs::ResetJournal();
  int evaluations = 0;
  for (int i = 0; i < 100; ++i) {
    MEMPHIS_JOURNAL(kProbe, kHost, kNone,
                    static_cast<uint64_t>(++evaluations), 1.0, 2.0);
  }
  EXPECT_EQ(evaluations, 0);  // Args must not be evaluated while disabled.
  const obs::JournalSnapshot snapshot = obs::CollectJournal();
  EXPECT_EQ(snapshot.emitted, 0u);
  EXPECT_TRUE(snapshot.events.empty());
}

TEST(JournalTest, StampsRequestContextOnEveryEvent) {
  obs::ResetJournal();
  obs::EnableJournal(true);
  {
    obs::RequestContext context;
    context.rid = 7;
    context.tenant = "tenant-seven";
    obs::ScopedRequestContext scope(context);
    MEMPHIS_JOURNAL(kProbe, kHost, kNone, 0xabc, 2.0, 128.0);
    MEMPHIS_JOURNAL(kHit, kHost, kNone, 0xabc, 2.0, 128.0);
  }
  MEMPHIS_JOURNAL(kEvict, kHost, kQuota, 0xdef, 1.0, 64.0);  // Background.
  obs::EnableJournal(false);

  const obs::JournalSnapshot snapshot = obs::CollectJournal();
  ASSERT_EQ(snapshot.events.size(), 3u);
  EXPECT_EQ(snapshot.events[0].rid, 7u);
  EXPECT_STREQ(snapshot.events[0].tenant, "tenant-seven");
  EXPECT_EQ(snapshot.events[0].kind, obs::JournalKind::kProbe);
  EXPECT_EQ(snapshot.events[1].rid, 7u);
  EXPECT_EQ(snapshot.events[2].rid, 0u);  // No request in scope.
  EXPECT_EQ(snapshot.events[2].reason, obs::JournalReason::kQuota);
  obs::ResetJournal();
}

TEST(JournalTest, ConcurrentEmissionAccountsForEveryEvent) {
  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 2000;  // Ring holds 1024: must wrap.
  constexpr uint64_t kCapacity = 1024;

  obs::ResetJournal();
  obs::SetEventRingCapacity(kCapacity);
  obs::EnableJournal(true);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      obs::RequestContext context;
      context.rid = static_cast<uint64_t>(t) + 1;
      context.tenant = "stress";
      obs::ScopedRequestContext scope(context);
      for (int i = 0; i < kEventsPerThread; ++i) {
        MEMPHIS_JOURNAL(kProbe, kHost, kNone, static_cast<uint64_t>(i), 1.0,
                        8.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  obs::EnableJournal(false);

  const obs::JournalSnapshot snapshot = obs::CollectJournal();
  EXPECT_EQ(snapshot.emitted, uint64_t{kThreads} * kEventsPerThread);
  EXPECT_EQ(snapshot.events.size(), uint64_t{kThreads} * kCapacity);
  EXPECT_EQ(snapshot.emitted, snapshot.events.size() + snapshot.dropped);
  obs::ResetJournal();
  obs::SetEventRingCapacity(size_t{1} << 17);  // Restore the default.
}

// A thread's trace and journal events carry one tid: the thread that
// emits both kinds registers after a trace-only thread, so per-kind tid
// counters would disagree.
TEST(JournalTest, SharesTheThreadsTraceTid) {
  obs::ResetTrace();
  obs::ResetJournal();
  obs::EnableTracing(true);
  obs::EnableJournal(true);
  std::thread([] { MEMPHIS_TRACE_INSTANT("test", "trace-only"); }).join();
  std::thread([] {
    MEMPHIS_TRACE_INSTANT("test", "both");
    MEMPHIS_JOURNAL(kProbe, kHost, kNone, 0xb, 0.0, 0.0);
  }).join();
  obs::EnableTracing(false);
  obs::EnableJournal(false);

  const obs::TraceSnapshot trace = obs::CollectTrace();
  const obs::JournalSnapshot journal = obs::CollectJournal();
  ASSERT_EQ(trace.events.size(), 2u);
  ASSERT_EQ(journal.events.size(), 1u);
  EXPECT_STREQ(trace.events[1].name, "both");
  EXPECT_EQ(journal.events[0].tid, trace.events[1].tid);
  EXPECT_NE(journal.events[0].tid, trace.events[0].tid);
  obs::ResetTrace();
  obs::ResetJournal();
}

TEST(JournalExportTest, WritesExplainableJson) {
  obs::ResetJournal();
  obs::EnableJournal(true);
  {
    obs::RequestContext context;
    context.rid = 9;
    context.tenant = "export-tenant";
    obs::ScopedRequestContext scope(context);
    MEMPHIS_JOURNAL(kProbe, kNone, kNone, 0x77, 0.0, 0.0);
    MEMPHIS_JOURNAL(kMiss, kNone, kPlaceholder, 0x77, 0.0, 0.0);
  }
  obs::EnableJournal(false);

  const std::string path = ::testing::TempDir() + "/journal_export_test.json";
  ASSERT_TRUE(obs::WriteJournalJson(path));
  const std::string json = ReadFile(path);
  EXPECT_NE(json.find("\"memphis_journal\":1"), std::string::npos);
  EXPECT_NE(json.find("\"emitted\":2"), std::string::npos);
  EXPECT_NE(json.find("{\"rid\":9,"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"probe\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"placeholder\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"export-tenant\""), std::string::npos);
  std::remove(path.c_str());
  obs::ResetJournal();
}

// --- crash flight recorder --------------------------------------------------

TEST(FlightRecorderTest, OnDemandDumpCarriesBothTails) {
  obs::ResetTrace();
  obs::ResetJournal();
  obs::EnableTracing(true);
  obs::EnableJournal(true);
  obs::EnableFlightRecorder(::testing::TempDir());
  {
    obs::RequestContext context;
    context.rid = 77;
    context.tenant = "flight-tenant";
    obs::ScopedRequestContext scope(context);
    obs::ScopedSpanReq span("test", "flight-span", context.rid);
    MEMPHIS_JOURNAL(kProbe, kHost, kNone, 0x42, 3.0, 256.0);
    MEMPHIS_JOURNAL(kHit, kHost, kNone, 0x42, 3.0, 256.0);
  }
  const int64_t dumps_before = obs::FlightDumpCount();
  const std::string path = obs::DumpFlightRecord("test-dump");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(obs::FlightDumpCount(), dumps_before + 1);

  const std::string json = ReadFile(path);
  EXPECT_NE(json.find("\"memphis_flight\":1"), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"test-dump\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_tail\":["), std::string::npos);
  EXPECT_NE(json.find("\"journal_tail\":["), std::string::npos);
  EXPECT_NE(json.find("\"rid\":77"), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"flight-tenant\""), std::string::npos);

  std::remove(path.c_str());
  obs::DisableFlightRecorder();
  obs::EnableTracing(false);
  obs::EnableJournal(false);
  obs::ResetTrace();
  obs::ResetJournal();
}

// The recorder drains both rings with the unchecked crash-path collectors:
// a dump taken while another thread is held mid-way through a journal
// emission is written and counts no quiescence violation.
TEST(FlightRecorderTest, DumpsWhileAJournalEmissionIsInFlight) {
  obs::ResetJournal();
  obs::EnableJournal(true);
  obs::EnableFlightRecorder(::testing::TempDir());
  ScopedEmissionPause pause;
  const int64_t violations = obs::QuiescenceViolations();
  std::thread emitter(
      [] { MEMPHIS_JOURNAL(kProbe, kHost, kNone, 0x51, 0.0, 0.0); });
  pause.WaitUntilHeld();
  const std::string path = obs::DumpFlightRecord("paused-journal");
  EXPECT_FALSE(path.empty());
  EXPECT_EQ(obs::QuiescenceViolations(), violations);

  pause.Release();
  emitter.join();
  if (!path.empty()) std::remove(path.c_str());
  obs::DisableFlightRecorder();
  obs::EnableJournal(false);
  obs::ResetJournal();
}

// A lock-rank inversion must trigger a dump through the sync-layer hook (the
// validator in no-abort mode stands in for the production abort). Skipped
// when the rank validator is compiled out (release builds without
// MEMPHIS_SYNC_VALIDATE=1): the hook never fires without it.
TEST(FlightRecorderTest, RankInversionTriggersDump) {
  if (!SyncValidatorEnabled()) {
    GTEST_SKIP() << "rank validator disabled (MEMPHIS_SYNC_VALIDATE=0?)";
  }
  obs::EnableTracing(true);
  MEMPHIS_TRACE_INSTANT("test", "pre-violation");  // A non-empty tail.
  obs::EnableFlightRecorder(::testing::TempDir());
  const int64_t dumps_before = obs::FlightDumpCount();
  SetSyncValidatorAbortForTest(false);
  {
    Mutex outer(LockRank::kMetrics, "flight-test-outer");
    Mutex inner(LockRank::kPool, "flight-test-inner");
    MutexLock hold_outer(outer);
    MutexLock hold_inner(inner);  // Rank 8 under rank 11: violation.
  }
  SetSyncValidatorAbortForTest(true);
  obs::DisableFlightRecorder();
  EXPECT_EQ(obs::FlightDumpCount(), dumps_before + 1);

  const std::string path = ::testing::TempDir() + "/memphis_flight_" +
                           std::to_string(getpid()) + ".json";
  const std::string json = ReadFile(path);
  EXPECT_NE(json.find("\"memphis_flight\":1"), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"lock rank inversion\""),
            std::string::npos);
  std::remove(path.c_str());
  obs::EnableTracing(false);
  obs::ResetTrace();
}

// --- end to end through the runtime ----------------------------------------

TEST(ObsRuntimeTest, ExecutionContextRegistersComponentMetrics) {
  SystemConfig config;
  config.reuse_mode = ReuseMode::kMemphis;
  MemphisSystem system(config);
  auto block = compiler::MakeBasicBlock();
  {
    auto& dag = block->dag();
    auto gram = dag.Op("matmult", {dag.Op("transpose", {dag.Read("X")}),
                                   dag.Read("X")});
    dag.Write("g", gram);
  }
  system.ctx().BindMatrix("X", kernels::RandGaussian(64, 8, 3));
  system.Run(*block);
  system.Run(*block);  // Second run hits the lineage cache.

  const std::string text = system.ctx().metrics().ToText();
  for (const char* name :
       {"exec.cp_instructions", "cache.probes", "cache.hit_ratio",
        "spark.jobs", "gpu0.mallocs", "gpucache0.recycled_exact",
        "arena0.allocated_bytes", "bm.storage_used", "hostcache.used_bytes",
        "cache.evictions"}) {
    EXPECT_NE(text.find(name), std::string::npos) << "missing " << name;
  }
  EXPECT_GT(system.ctx().stats().cp_instructions.value(), 0);
  EXPECT_GT(system.ctx().cache().stats().probes.value(), 0);
  // The StatsReport is now just the registry's text dump plus a header.
  const std::string report = system.StatsReport();
  EXPECT_NE(report.find("mode=MPH"), std::string::npos);
  EXPECT_NE(report.find("exec.cp_instructions"), std::string::npos);
}

TEST(ObsRuntimeTest, ContextFlushesIntoGlobalRegistryOnDestruction) {
  const int64_t before =
      obs::MetricsRegistry::Global().GetCounter("exec.cp_instructions")
          ->value();
  int64_t executed = 0;
  {
    SystemConfig config;
    config.reuse_mode = ReuseMode::kNone;
    MemphisSystem system(config);
    auto block = compiler::MakeBasicBlock();
    {
      auto& dag = block->dag();
      dag.Write("s", dag.Op("sum", {dag.Read("X")}));
    }
    system.ctx().BindMatrix("X", kernels::RandGaussian(8, 4, 11));
    system.Run(*block);
    executed = system.ctx().stats().cp_instructions.value();
    EXPECT_GT(executed, 0);
  }
  const int64_t after =
      obs::MetricsRegistry::Global().GetCounter("exec.cp_instructions")
          ->value();
  EXPECT_EQ(after, before + executed);
}

// A context that flushes after the exporter stopped (session destroyed by
// whoever held the last reference) must not silently drop its entries from
// the exported file: the flush is counted under obs.late_flushes and the
// snapshot is re-exported with it included.
TEST(SnapshotExporterTest, LateFlushIsCountedAndReexported) {
  const std::string path = ::testing::TempDir() + "/late_snapshot_test.json";
  obs::SnapshotExporter& exporter = obs::SnapshotExporter::Global();
  ASSERT_TRUE(exporter.Start(path, /*interval_ms=*/0.0));
  exporter.Stop();  // Not running, but the path stays configured.

  obs::Counter* late =
      obs::MetricsRegistry::Global().GetCounter("obs.late_flushes");
  const int64_t late_before = late->value();
  const int64_t snapshots_before = exporter.snapshots_written();
  {
    SystemConfig config;
    config.reuse_mode = ReuseMode::kNone;
    MemphisSystem system(config);
    auto block = compiler::MakeBasicBlock();
    {
      auto& dag = block->dag();
      dag.Write("s", dag.Op("sum", {dag.Read("X")}));
    }
    system.ctx().BindMatrix("X", kernels::RandGaussian(8, 4, 11));
    system.Run(*block);
  }  // Destruction flushes -- late, because the exporter already stopped.

  EXPECT_EQ(late->value(), late_before + 1);
  EXPECT_EQ(exporter.snapshots_written(), snapshots_before + 1);
  const std::string json = ReadFile(path);
  EXPECT_NE(json.find("\"obs.late_flushes\""), std::string::npos);
  EXPECT_NE(json.find("\"exec.cp_instructions\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace memphis
