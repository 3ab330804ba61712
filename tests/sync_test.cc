// Tests for the annotated sync layer (common/sync.h): wrapper semantics,
// the runtime lock-rank validator (death tests for inversion / recursion /
// same-rank nesting), the observed-edge graph, and validator-clean stress
// at several pool sizes. The death tests use the "threadsafe" style because
// the process may own pool worker threads when they fork.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace memphis {
namespace {

/// Restores abort-on-violation when a no-abort test scope exits.
class ScopedNoAbort {
 public:
  ScopedNoAbort() { SetSyncValidatorAbortForTest(false); }
  ~ScopedNoAbort() { SetSyncValidatorAbortForTest(true); }
};

class SyncDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    if (!SyncValidatorEnabled()) {
      GTEST_SKIP() << "rank validator disabled (MEMPHIS_SYNC_VALIDATE=0?)";
    }
  }
};

TEST_F(SyncDeathTest, RankInversionAborts) {
  EXPECT_DEATH(
      {
        // Paren-init: commas inside braces would split the macro arguments.
        Mutex outer(LockRank::kMetrics, "death-outer");
        Mutex inner(LockRank::kPool, "death-inner");
        MutexLock hold_outer(outer);
        MutexLock hold_inner(inner);  // pool < metrics: inversion.
      },
      "lock rank inversion");
}

TEST_F(SyncDeathTest, RecursiveAcquisitionAborts) {
  EXPECT_DEATH(
      {
        Mutex mu(LockRank::kTest, "death-recursive");
        MutexLock first(mu);
        mu.Lock();  // Same mutex, same thread.
      },
      "recursive acquisition");
}

TEST_F(SyncDeathTest, SameRankNestingAborts) {
  EXPECT_DEATH(
      {
        Mutex a(LockRank::kTest, "death-same-a");
        Mutex b(LockRank::kTest, "death-same-b");
        MutexLock hold_a(a);
        MutexLock hold_b(b);  // Distinct mutexes, equal rank.
      },
      "same-rank acquisition");
}

TEST_F(SyncDeathTest, AssertHeldAbortsWhenNotHeld) {
  EXPECT_DEATH(
      {
        Mutex mu(LockRank::kTest, "death-assert");
        mu.AssertHeld();
      },
      "does not hold");
}

TEST(SyncValidatorTest, OrderedAcquisitionIsCleanAndRecordsEdges) {
  if (!SyncValidatorEnabled()) GTEST_SKIP();
  Mutex tier{LockRank::kCacheTier, "edge-tier"};
  Mutex shard{LockRank::kCacheShard, "edge-shard"};
  Mutex metrics{LockRank::kMetrics, "edge-metrics"};
  {
    MutexLock hold_tier(tier);
    MutexLock hold_shard(shard);
    MutexLock hold_metrics(metrics);
  }
  EXPECT_TRUE(SyncEdgeObserved(LockRank::kCacheTier, LockRank::kCacheShard));
  EXPECT_TRUE(SyncEdgeObserved(LockRank::kCacheTier, LockRank::kMetrics));
  EXPECT_TRUE(SyncEdgeObserved(LockRank::kCacheShard, LockRank::kMetrics));
  // The reverse edges were never taken.
  EXPECT_FALSE(SyncEdgeObserved(LockRank::kMetrics, LockRank::kCacheTier));
}

TEST(SyncValidatorTest, NoAbortModeCountsViolations) {
  if (!SyncValidatorEnabled()) GTEST_SKIP();
  const int64_t before = RankViolationCount();
  {
    ScopedNoAbort no_abort;
    Mutex outer{LockRank::kMetrics, "count-outer"};
    Mutex inner{LockRank::kPool, "count-inner"};
    MutexLock hold_outer(outer);
    MutexLock hold_inner(inner);  // Inversion: counted, not fatal here.
  }
  EXPECT_EQ(RankViolationCount(), before + 1);
}

TEST(SyncValidatorTest, ViolationCountIsPublishedAsMetric) {
  bool seen = false;
  for (const auto& sample : obs::MetricsRegistry::Global().Snapshot()) {
    if (sample.name == "sync.rank_violations") {
      seen = true;
      EXPECT_DOUBLE_EQ(sample.value,
                       static_cast<double>(RankViolationCount()));
    }
  }
  EXPECT_TRUE(seen);
}

TEST(SyncMutexTest, TryLockRegistersAndFailsCleanlyWhenContended) {
  Mutex mu{LockRank::kTest, "trylock"};
  ASSERT_TRUE(mu.TryLock());
  mu.AssertHeld();
  mu.Unlock();

  // Contended TryLock must fail without corrupting the held-lock stack.
  mu.Lock();
  std::atomic<bool> failed{false};
  std::thread contender([&] {
    if (!mu.TryLock()) {
      failed = true;
      // This thread holds nothing, so ordered locking still works.
      Mutex other{LockRank::kObsRegistry, "trylock-other"};
      MutexLock hold(other);
    } else {
      mu.Unlock();
    }
  });
  contender.join();
  mu.Unlock();
  EXPECT_TRUE(failed);
}

TEST(SyncMutexTest, CondVarWaitKeepsHeldStackExact) {
  Mutex mu{LockRank::kTest, "condvar"};
  CondVar cv;
  bool ready = false;  // Guarded by mu (annotation elided: local).
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!ready) cv.Wait(&mu);
    mu.AssertHeld();  // Re-acquired and re-pushed after the wait.
    woke = true;
  });
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyAll();
  waiter.join();
  EXPECT_TRUE(woke);
}

TEST(SyncMutexTest, SharedMutexAllowsConcurrentReaders) {
  SharedMutex mu{LockRank::kTest, "rwlock"};
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      ReaderLock lock(mu);
      const int now = ++concurrent;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      mu.AssertReaderHeld();
      --concurrent;
    });
  }
  for (auto& reader : readers) reader.join();
  {
    WriterLock lock(mu);
    mu.AssertHeld();
    EXPECT_EQ(concurrent, 0);
  }
  EXPECT_GE(peak, 1);
}

// GUARDED_BY smoke: compiles under GCC (macros are no-ops) and, in the
// -DMEMPHIS_THREAD_SAFETY=ON clang config, verifies that annotated access
// through MutexLock and a REQUIRES helper is accepted by the analysis.
class GuardedCounter {
 public:
  GuardedCounter() : mu_(LockRank::kTest, "guarded-counter") {}

  void Add(int delta) MEMPHIS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    AddLocked(delta);
  }
  int value() const MEMPHIS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return value_;
  }

 private:
  void AddLocked(int delta) MEMPHIS_REQUIRES(mu_) { value_ += delta; }

  mutable Mutex mu_;
  int value_ MEMPHIS_GUARDED_BY(mu_) = 0;
};

TEST(SyncAnnotationTest, GuardedByCompilesAndCounts) {
  GuardedCounter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) counter.Add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), 4000);
}

// Regression for the metrics -> pool inversion the migration surfaced: the
// "pool.queue_depth" callback used to take the pool lock while the registry
// lock was held. It must now be lock-free, so snapshotting the global
// registry under an active validator is rank-clean.
TEST(SyncRegressionTest, GlobalSnapshotSamplesPoolGaugesRankClean) {
  ThreadPool::Global();  // Ensure the pool metrics are registered.
  bool saw_queue_depth = false;
  for (const auto& sample : obs::MetricsRegistry::Global().Snapshot()) {
    if (sample.name == "pool.queue_depth") saw_queue_depth = true;
  }
  EXPECT_TRUE(saw_queue_depth);
}

class SyncStressTest : public ::testing::Test {
 protected:
  ~SyncStressTest() override { ThreadPool::Global().Resize(1); }
};

// Wrapper + validator stress across pool sizes: chunks serialize on a kTest
// mutex, emit trace instants while holding it (the kTest -> kObsRegistry
// edge is sanctioned), and the main thread snapshots metrics concurrently.
// Any rank violation aborts; TSan builds check the wrappers' memory
// ordering.
TEST_F(SyncStressTest, PoolSizes148AreValidatorClean) {
  for (const int pool_size : {1, 4, 8}) {
    ThreadPool::Global().Resize(pool_size);
    Mutex mu{LockRank::kTest, "stress"};
    int64_t sum = 0;  // Guarded by mu.
    obs::EnableTracing(true);
    std::atomic<bool> done{false};
    std::thread sampler([&] {
      while (!done) {
        (void)obs::MetricsRegistry::Global().Snapshot();
      }
    });
    ParallelFor(0, 2000, 16, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        MutexLock lock(mu);
        MEMPHIS_TRACE_INSTANT("sync-test", "stress-tick");
        sum += static_cast<int64_t>(i);
      }
    });
    done = true;
    sampler.join();
    obs::EnableTracing(false);
    obs::ResetTrace();
    EXPECT_EQ(sum, int64_t{2000} * 1999 / 2) << "pool size " << pool_size;
  }
}

}  // namespace
}  // namespace memphis
