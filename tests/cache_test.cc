#include <gtest/gtest.h>

#include "cache/lineage_cache.h"

#include <filesystem>
#include <memory>

#include "common/status.h"
#include "matrix/kernels.h"
#include "testing_util.h"

namespace memphis {
namespace {

SystemConfig TestConfig() {
  SystemConfig config;
  config.mem_scale = 1.0;
  config.num_executors = 2;
  config.cores_per_executor = 4;
  config.executor_memory = 8ull << 20;
  config.driver_lineage_cache = 1 << 20;  // 1 MB driver cache.
  config.gpu_memory = 1 << 20;            // 1 MB device.
  config.lazy_materialize_after_misses = 2;
  return config;
}

class CacheTest : public ::testing::Test {
 protected:
  CacheTest()
      : config_(TestConfig()),
        spark_(config_, &cost_model_),
        gpu_(config_.gpu_memory, &cost_model_),
        gpu_cache_(&gpu_, /*recycling_enabled=*/true),
        cache_(config_, &cost_model_, &spark_, &gpu_cache_) {}

  LineageItemPtr Key(const std::string& tag) {
    return LineageItem::Create("op", tag, {LineageItem::Leaf("extern", "X")});
  }

  SystemConfig config_;
  sim::CostModel cost_model_;
  spark::SparkContext spark_;
  gpu::GpuContext gpu_;
  GpuCacheManager gpu_cache_;
  LineageCache cache_;
};

TEST_F(CacheTest, HostPutAndReuse) {
  double now = 0.0;
  auto value = kernels::Rand(10, 10, 0, 1, 1.0, 1);
  auto key = Key("a");
  EXPECT_NE(cache_.PutHost(key, value, 1.0, /*delay=*/1, &now), nullptr);
  CacheEntryPtr entry = cache_.Reuse(Key("a"), &now);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->host_value, value);
  EXPECT_EQ(entry->hits, 1);
  EXPECT_EQ(cache_.stats().hits_host, 1);
}

TEST_F(CacheTest, MissOnUnknownKey) {
  double now = 0.0;
  EXPECT_EQ(cache_.Reuse(Key("missing"), &now), nullptr);
  EXPECT_EQ(cache_.stats().misses, 1);
}

TEST_F(CacheTest, StructuralKeysMatchAcrossObjects) {
  double now = 0.0;
  cache_.PutHost(Key("same"), kernels::Rand(2, 2, 0, 1, 1.0, 2), 1.0, 1, &now);
  // A structurally identical but distinct key object hits.
  EXPECT_NE(cache_.Reuse(Key("same"), &now), nullptr);
}

TEST_F(CacheTest, DelayedCachingCountdown) {
  double now = 0.0;
  auto key = Key("delayed");
  auto value = kernels::Rand(2, 2, 0, 1, 1.0, 3);
  // delay=3: first PUT creates a placeholder only.
  EXPECT_EQ(cache_.PutHost(key, value, 1.0, 3, &now), nullptr);
  EXPECT_EQ(cache_.Reuse(Key("delayed"), &now), nullptr);  // Still a miss.
  EXPECT_EQ(cache_.PutHost(Key("delayed"), value, 1.0, 3, &now), nullptr);
  EXPECT_EQ(cache_.Reuse(Key("delayed"), &now), nullptr);
  // Third repetition: the object is actually stored.
  EXPECT_NE(cache_.PutHost(Key("delayed"), value, 1.0, 3, &now), nullptr);
  EXPECT_NE(cache_.Reuse(Key("delayed"), &now), nullptr);
}

TEST_F(CacheTest, ScalarEntries) {
  double now = 0.0;
  cache_.PutScalar(Key("s"), 42.0, 0.1, 1, &now);
  CacheEntryPtr entry = cache_.Reuse(Key("s"), &now);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->scalar_value, 42.0);
  EXPECT_EQ(entry->kind, CacheKind::kScalar);
}

TEST_F(CacheTest, HostEvictionSpillsAndRestores) {
  double now = 0.0;
  // Fill the 1 MB cache with 200 KB entries -> evictions to disk.
  for (int i = 0; i < 8; ++i) {
    cache_.PutHost(Key("big" + std::to_string(i)),
                   kernels::Rand(160, 160, 0, 1, 1.0, i), /*cost=*/1.0 + i, 1,
                   &now);
  }
  EXPECT_GT(cache_.host_cache().num_spills(), 0);
  EXPECT_LE(cache_.host_cache().used_bytes(), config_.driver_lineage_cache);
  // A spilled entry still hits (restored from disk, charging time).
  const double before = now;
  CacheEntryPtr entry = cache_.Reuse(Key("big0"), &now);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->status, CacheStatus::kCached);
  EXPECT_GT(now, before);
  EXPECT_GT(cache_.host_cache().num_restores(), 0);
}

TEST_F(CacheTest, ObjectLargerThanCacheNotAdmitted) {
  double now = 0.0;
  auto huge = kernels::Rand(600, 600, 0, 1, 1.0, 4);  // 2.9 MB > 1 MB.
  EXPECT_EQ(cache_.PutHost(Key("huge"), huge, 1.0, 1, &now), nullptr);
  EXPECT_EQ(cache_.Reuse(Key("huge"), &now), nullptr);
}

TEST_F(CacheTest, RddRegistrationPersistsLazily) {
  double now = 0.0;
  auto m = kernels::Rand(100, 10, 0, 1, 1.0, 5);
  auto rdd = spark_.Parallelize("X", m, 2);
  cache_.PutRdd(Key("rdd"), rdd, 5.0, 1, StorageLevel::kMemoryAndDisk, now);
  EXPECT_TRUE(rdd->persisted());
  EXPECT_FALSE(spark_.IsMaterialized(rdd));  // Lazy until a job runs.
  CacheEntryPtr entry = cache_.Reuse(Key("rdd"), &now);
  ASSERT_NE(entry, nullptr);  // Unmaterialized RDDs are still reused.
  EXPECT_EQ(entry->rdd, rdd);
}

TEST_F(CacheTest, SparkEvictionUsesCostSizeScore) {
  double now = 0.0;
  // Budget: 2 executors * 8MB * 0.6 * 0.5 * 0.8 = ~3.8 MB of reuse storage.
  // Register three 1.6 MB RDDs; the cheapest-per-byte must be evicted.
  auto make = [&](uint64_t seed) {
    auto m = kernels::Rand(20000, 10, 0, 1, 1.0, seed);
    return spark_.Parallelize("X", m, 2);
  };
  auto cheap = make(1);
  auto costly1 = make(2);
  auto costly2 = make(3);
  cache_.PutRdd(Key("cheap"), cheap, /*cost=*/0.001, 1,
                StorageLevel::kMemoryOnly, now);
  cache_.PutRdd(Key("costly1"), costly1, 100.0, 1, StorageLevel::kMemoryOnly,
                now);
  cache_.PutRdd(Key("costly2"), costly2, 100.0, 1, StorageLevel::kMemoryOnly,
                now);
  EXPECT_GT(cache_.spark_manager().stats().rdds_evicted, 0);
  EXPECT_FALSE(cheap->persisted());     // Evicted (lowest score).
  EXPECT_TRUE(costly2->persisted());
  EXPECT_EQ(cache_.Reuse(Key("cheap"), &now), nullptr);  // Entry dropped.
}

TEST_F(CacheTest, AsyncMaterializationAfterKMisses) {
  double now = 0.0;
  auto m = kernels::Rand(100, 10, 0, 1, 1.0, 6);
  auto rdd = spark_.Parallelize("X", m, 2);
  cache_.PutRdd(Key("pending"), rdd, 5.0, 1, StorageLevel::kMemoryAndDisk,
                now);
  // Another reused entry ticks the miss counter of the pending RDD; with
  // k=2, the second reuse triggers the async count() job.
  cache_.PutHost(Key("other"), kernels::Rand(2, 2, 0, 1, 1.0, 7), 1.0, 1,
                 &now);
  cache_.Reuse(Key("other"), &now);
  EXPECT_FALSE(spark_.IsMaterialized(rdd));
  cache_.Reuse(Key("other"), &now);
  EXPECT_TRUE(spark_.IsMaterialized(rdd));
  EXPECT_EQ(cache_.spark_manager().stats().async_materializations, 1);
}

TEST_F(CacheTest, LazyCleanupDestroysUpstreamBroadcasts) {
  double now = 0.0;
  auto m = kernels::Rand(100, 10, 0, 1, 1.0, 8);
  auto w = kernels::Rand(10, 10, 0, 1, 1.0, 9);
  auto x = spark_.Parallelize("X", m, 2);
  auto broadcast = spark_.CreateBroadcast(w);
  auto mapped = spark::Rdd::Narrow(
      "mapmm", {x}, 100, 10,
      [w](const std::vector<const spark::Partition*>& in) {
        return kernels::MatMult(*in[0]->data, *w);
      });
  mapped->AddBroadcastDep(broadcast);
  cache_.PutRdd(Key("mm"), mapped, 5.0, 1, StorageLevel::kMemoryAndDisk, now);
  spark_.Count(mapped, now);  // Materialize.
  EXPECT_FALSE(broadcast->destroyed());
  cache_.Reuse(Key("mm"), &now);  // Reuse runs the lazy GC pass.
  EXPECT_TRUE(broadcast->destroyed());
  EXPECT_GT(cache_.spark_manager().stats().broadcasts_destroyed, 0);
}

TEST_F(CacheTest, LazyCleanupProtectsPendingRdds) {
  double now = 0.0;
  auto m = kernels::Rand(100, 10, 0, 1, 1.0, 10);
  auto w = kernels::Rand(10, 10, 0, 1, 1.0, 11);
  auto x = spark_.Parallelize("X", m, 2);
  auto broadcast = spark_.CreateBroadcast(w);
  auto mapped = spark::Rdd::Narrow(
      "mapmm", {x}, 100, 10,
      [w](const std::vector<const spark::Partition*>& in) {
        return kernels::MatMult(*in[0]->data, *w);
      });
  mapped->AddBroadcastDep(broadcast);
  // Materialized consumer AND a pending (unmaterialized) consumer that still
  // needs the broadcast.
  auto downstream = spark::Rdd::Narrow(
      "down", {mapped}, 100, 10,
      [](const std::vector<const spark::Partition*>& in) {
        return in[0]->data;
      });
  cache_.PutRdd(Key("down"), downstream, 5.0, 1, StorageLevel::kMemoryAndDisk,
                now);
  cache_.PutHost(Key("o"), kernels::Rand(2, 2, 0, 1, 1.0, 12), 1.0, 1, &now);
  cache_.Reuse(Key("o"), &now);
  EXPECT_FALSE(broadcast->destroyed());  // Protected by the pending RDD.
}

// --- GPU cache manager (Algorithm 1 / Eq. 2) ---------------------------------

TEST_F(CacheTest, GpuAllocateFastPath) {
  double now = 0.0;
  auto object = gpu_cache_.Allocate(1024, &now);
  EXPECT_EQ(object->ref_count, 1);
  EXPECT_FALSE(object->in_free_list);
}

TEST_F(CacheTest, GpuReleaseMovesToFreeList) {
  double now = 0.0;
  auto object = gpu_cache_.Allocate(1024, &now);
  gpu_cache_.Release(object, &now);
  EXPECT_TRUE(object->in_free_list);
  EXPECT_EQ(gpu_cache_.free_list_size(), 1u);
  EXPECT_EQ(gpu_.stats().frees, 0);  // No cudaFree: recyclable.
}

TEST_F(CacheTest, GpuRefCountSharing) {
  double now = 0.0;
  auto object = gpu_cache_.Allocate(1024, &now);
  gpu_cache_.AddRef(object);
  gpu_cache_.Release(object, &now);
  EXPECT_FALSE(object->in_free_list);  // Still one live reference.
  gpu_cache_.Release(object, &now);
  EXPECT_TRUE(object->in_free_list);
}

TEST_F(CacheTest, GpuExactSizeRecyclingSkipsCudaMalloc) {
  double now = 0.0;
  // Fill the 1 MB device, free everything, then allocate the same size.
  std::vector<GpuCacheObjectPtr> objects;
  for (int i = 0; i < 8; ++i) {
    objects.push_back(gpu_cache_.Allocate(128 * 1024, &now));
  }
  for (auto& object : objects) gpu_cache_.Release(object, &now);
  const int64_t mallocs_before = gpu_.stats().mallocs.value();
  auto recycled = gpu_cache_.Allocate(128 * 1024, &now);
  EXPECT_EQ(gpu_.stats().mallocs, mallocs_before);  // No cudaMalloc.
  EXPECT_EQ(gpu_cache_.stats().recycled_exact, 1);
  EXPECT_EQ(recycled->ref_count, 1);
  EXPECT_EQ(recycled->lineage, nullptr);  // Cache link invalidated.
}

TEST_F(CacheTest, GpuFreesJustLargerPointer) {
  double now = 0.0;
  auto big = gpu_cache_.Allocate(900 * 1024, &now);
  gpu_cache_.Release(big, &now);  // 900 KB recyclable; ~124 KB truly free.
  // 200 KB does not fit the remaining space and has no exact-size match:
  // Algorithm 1 frees the just-larger 900 KB pointer, then cudaMallocs.
  auto small = gpu_cache_.Allocate(200 * 1024, &now);
  EXPECT_EQ(gpu_cache_.stats().freed_larger, 1);
  EXPECT_EQ(small->buffer->bytes, 200u * 1024);
}

TEST_F(CacheTest, GpuRepeatedFreesUntilFit) {
  double now = 0.0;
  std::vector<GpuCacheObjectPtr> objects;
  for (int i = 0; i < 8; ++i) {
    objects.push_back(gpu_cache_.Allocate(128 * 1024, &now));
  }
  for (auto& object : objects) gpu_cache_.Release(object, &now);
  // 8 x 128KB free pointers; a 512KB request must free several.
  auto large = gpu_cache_.Allocate(512 * 1024, &now);
  EXPECT_GE(gpu_cache_.stats().freed_for_space, 1);
  EXPECT_EQ(large->buffer->bytes, 512u * 1024);
}

TEST_F(CacheTest, GpuOomWhenLiveVariablesFillDevice) {
  double now = 0.0;
  auto a = gpu_cache_.Allocate(512 * 1024, &now);
  auto b = gpu_cache_.Allocate(500 * 1024, &now);
  (void)a;
  (void)b;
  EXPECT_THROW(gpu_cache_.Allocate(512 * 1024, &now), GpuOutOfMemoryError);
  EXPECT_GE(gpu_cache_.stats().oom_failures, 1);
}

TEST_F(CacheTest, GpuEvictionScorePrefersStaleCheapShallow) {
  double now = 100.0;
  auto stale = gpu_cache_.Allocate(1024, &now);
  auto fresh = gpu_cache_.Allocate(1024, &now);
  auto deep_key = LineageItem::Create(
      "op", "deep",
      {LineageItem::Create("op", "", {LineageItem::Leaf("extern", "X")})});
  auto shallow_key = Key("shallow");
  // stale: old access, shallow lineage, cheap.
  gpu_cache_.Annotate(stale, shallow_key, /*cost=*/0.001, /*now=*/1.0);
  stale->last_access = 1.0;
  // fresh: recent, deep lineage, expensive.
  gpu_cache_.Annotate(fresh, deep_key, 10.0, now);
  gpu_cache_.Release(stale, &now);
  gpu_cache_.Release(fresh, &now);
  // Force a global eviction of exactly one pointer.
  gpu_cache_.EvictPercent(40.0, &now);
  EXPECT_EQ(stale->lineage, nullptr);   // Evicted.
  EXPECT_NE(fresh->lineage, nullptr);   // Kept.
}

TEST_F(CacheTest, GpuReuseMovesFreeToLive) {
  double now = 0.0;
  auto object = gpu_cache_.Allocate(1024, &now);
  gpu_cache_.Annotate(object, Key("g"), 1.0, now);
  gpu_cache_.Release(object, &now);
  EXPECT_TRUE(object->in_free_list);
  gpu_cache_.Reuse(object, now);
  EXPECT_FALSE(object->in_free_list);
  EXPECT_EQ(object->ref_count, 1);
  EXPECT_EQ(gpu_cache_.stats().reused_pointers, 1);
}

TEST_F(CacheTest, GpuPutAndReuseThroughLineageCache) {
  double now = 0.0;
  auto object = gpu_cache_.Allocate(800, &now);
  object->buffer->data = kernels::Rand(10, 10, 0, 1, 1.0, 20);
  gpu_cache_.Release(object, &now);  // Variable went out of scope.
  cache_.PutGpu(Key("gpu"), object, 2.0, 1, now);
  CacheEntryPtr entry = cache_.Reuse(Key("gpu"), &now);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->gpu, object);
  EXPECT_FALSE(object->in_free_list);  // Back in the live list.
}

TEST_F(CacheTest, RecycledGpuEntryInvalidatesOnProbe) {
  double now = 0.0;
  auto object = gpu_cache_.Allocate(800, &now);
  object->buffer->data = kernels::Rand(10, 10, 0, 1, 1.0, 21);
  cache_.PutGpu(Key("gone"), object, 2.0, 1, now);
  // Fill the remaining device memory with a live variable, then release the
  // cached pointer: the next same-size allocation must recycle it.
  auto filler = gpu_cache_.Allocate((1 << 20) - 800, &now);
  (void)filler;
  gpu_cache_.Release(object, &now);
  auto recycled = gpu_cache_.Allocate(800, &now);
  EXPECT_EQ(recycled, object);
  EXPECT_EQ(cache_.Reuse(Key("gone"), &now), nullptr);
  EXPECT_EQ(cache_.stats().invalidated_gpu, 1);
}

// ABA guard: recycling drops the old entry's contents, and tagging the same
// object with a new key must not make the old entry look valid again.
TEST_F(CacheTest, RecycledAndRetaggedGpuPointerMissesOldKey) {
  double now = 0.0;
  auto object = gpu_cache_.Allocate(800, &now);
  object->buffer->data = kernels::Rand(10, 10, 0, 1, 1.0, 21);
  cache_.PutGpu(Key("old"), object, 2.0, 1, now);
  auto filler = gpu_cache_.Allocate((1 << 20) - 800, &now);
  (void)filler;
  gpu_cache_.Release(object, &now);
  auto recycled = gpu_cache_.Allocate(800, &now);
  ASSERT_EQ(recycled, object);
  recycled->buffer->data = kernels::Rand(10, 10, 0, 1, 1.0, 23);
  cache_.PutGpu(Key("new"), recycled, 2.0, 1, now);
  EXPECT_EQ(cache_.Reuse(Key("old"), &now), nullptr);
  EXPECT_EQ(cache_.stats().invalidated_gpu, 1);
  CacheEntryPtr fresh = cache_.Reuse(Key("new"), &now);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->gpu, object);
}

TEST_F(CacheTest, D2hEvictionPreservesValueInHostTier) {
  double now = 0.0;
  auto value = kernels::Rand(10, 10, 0, 1, 1.0, 22);
  auto object = gpu_cache_.Allocate(800, &now);
  object->buffer->data = value;
  cache_.PutGpu(Key("spill"), object, 2.0, 1, now);
  gpu_cache_.Release(object, &now);
  gpu_cache_.EvictPercent(100.0, &now, /*preserve_to_host=*/true);
  EXPECT_GT(gpu_cache_.stats().d2h_evictions, 0);
  // The entry survived as a host entry.
  CacheEntryPtr entry = cache_.Reuse(Key("spill"), &now);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->kind, CacheKind::kHostMatrix);
  EXPECT_TRUE(entry->host_value->ApproxEquals(*value));
}

TEST_F(CacheTest, EagerFreeModeSkipsFreeList) {
  GpuCacheManager eager(&gpu_, /*recycling_enabled=*/false);
  double now = 0.0;
  auto object = eager.Allocate(1024, &now);
  const int64_t frees_before = gpu_.stats().frees.value();
  eager.Release(object, &now);
  EXPECT_EQ(gpu_.stats().frees, frees_before + 1);  // Immediate cudaFree.
  EXPECT_EQ(eager.free_list_size(), 0u);
}

// ---------------------------------------------------------------------------
// Durable tier wiring (the deep persistence tests live in persist_test.cc;
// these cover the cache-facing config boundaries).

/// A cache stack with the durable tier dialed by `persist_budget`.
class PersistBoundaryTest : public ::testing::Test {
 protected:
  std::unique_ptr<LineageCache> MakeCache(const std::string& dir,
                                          size_t persist_budget) {
    config_ = TestConfig();
    config_.persist_dir = dir;
    config_.persist_budget_bytes = persist_budget;
    spark_ = std::make_unique<spark::SparkContext>(config_, &cost_model_);
    gpu_ = std::make_unique<gpu::GpuContext>(config_.gpu_memory, &cost_model_);
    gpu_cache_ =
        std::make_unique<GpuCacheManager>(gpu_.get(), /*recycling_enabled=*/true);
    return std::make_unique<LineageCache>(config_, &cost_model_, spark_.get(),
                                          gpu_cache_.get());
  }

  LineageItemPtr StableKey(const std::string& id) {
    return LineageItem::Create(
        "op", id, {LineageItem::Leaf("extern", "stable:" + id)});
  }

  SystemConfig config_;
  sim::CostModel cost_model_;
  std::unique_ptr<spark::SparkContext> spark_;
  std::unique_ptr<gpu::GpuContext> gpu_;
  std::unique_ptr<GpuCacheManager> gpu_cache_;
};

TEST_F(PersistBoundaryTest, ZeroBudgetDisablesTheTier) {
  memphis::testing::TempDir dir("cache-persist-zero");
  auto cache = MakeCache(dir.path(), /*persist_budget=*/0);
  EXPECT_EQ(cache->persist_tier(), nullptr);
  double now = 0.0;
  ASSERT_NE(cache->PutHost(StableKey("a"), kernels::Rand(8, 8, 0, 1, 1.0, 1),
                           50.0, /*delay=*/1, &now),
            nullptr);
  // Harvesting with no tier is a clean no-op, and nothing hits disk.
  EXPECT_EQ(cache->HarvestToDiskNow(), 0);
  EXPECT_TRUE(std::filesystem::is_empty(dir.path()));
}

TEST_F(PersistBoundaryTest, HarvestRespectsDiskBudgetBoundary) {
  memphis::testing::TempDir dir("cache-persist-budget");
  // A budget that holds roughly two of the three harvested matrices: the
  // tier must stay at or under it, evicting oldest-first, and the overflow
  // must never corrupt the tier.
  const size_t one_record = 8 * 8 * sizeof(double) + 256;
  auto cache = MakeCache(dir.path(), 2 * one_record);
  ASSERT_NE(cache->persist_tier(), nullptr);
  double now = 0.0;
  for (const char* id : {"a", "b", "c"}) {
    ASSERT_NE(cache->PutHost(StableKey(id), kernels::Rand(8, 8, 0, 1, 1.0, 7),
                             50.0, /*delay=*/1, &now),
              nullptr);
  }
  EXPECT_GT(cache->HarvestToDiskNow(), 0);
  PersistentTier* tier = cache->persist_tier();
  EXPECT_LE(tier->LiveBytes(), 2 * one_record);
  EXPECT_GT(tier->LiveRecords(), 0u);
  EXPECT_LT(tier->LiveRecords(), 3u);  // At least one overflowed.
  EXPECT_EQ(tier->CheckInvariants(), "");
}

}  // namespace
}  // namespace memphis
