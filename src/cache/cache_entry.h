#ifndef MEMPHIS_CACHE_CACHE_ENTRY_H_
#define MEMPHIS_CACHE_CACHE_ENTRY_H_

#include <atomic>
#include <memory>

#include "cache/gpu_cache_manager.h"
#include "common/config.h"
#include "lineage/lineage_item.h"
#include "matrix/matrix_block.h"
#include "spark/rdd.h"

namespace memphis {

/// Which backend holds the cached object (Section 3.3: entries are wrappers
/// around backend-specific pointers).
enum class CacheKind { kHostMatrix, kScalar, kRdd, kGpu };

/// Entry lifecycle. kToBeCached implements delayed caching (Section 5.2):
/// the placeholder counts repetitions until the delay factor is reached.
enum class CacheStatus { kToBeCached, kCached, kSpilled };

/// One lineage-cache entry: the lineage key, the backend-specific pointer,
/// and the metadata driving the eviction policies (compute cost c(o), size
/// s(o), reference counters r_h/r_m/r_j, last access T_a).
///
/// Thread safety: the counters and the status are atomics because concurrent
/// tasks probe entries (LineageCache::Reuse) while the tier managers spill or
/// evict them. Backend pointers and size/cost metadata are only mutated under
/// LineageCache's tier lock; readers reach them only after taking that lock
/// (or single-threaded, after joining the workers).
struct CacheEntry {
  LineageItemPtr key;
  CacheKind kind = CacheKind::kHostMatrix;
  std::atomic<CacheStatus> status{CacheStatus::kToBeCached};

  // Backend pointers (exactly one is set for kCached entries).
  MatrixPtr host_value;
  double scalar_value = 0.0;
  spark::RddPtr rdd;
  GpuCacheObjectPtr gpu;
  uint64_t gpu_generation = 0;  // gpu->generation when this entry was put.

  // Metadata.
  double compute_cost = 0.0;       // c(o): analytic cost of recomputing.
  size_t size_bytes = 0;           // s(o): (estimated worst-case) size.
  std::atomic<int> hits{0};        // r_h.
  std::atomic<int> misses{0};      // r_m (probes while TO-BE-CACHED).
  std::atomic<int> jobs{0};        // r_j (jobs touching a cached RDD).
  std::atomic<double> last_access{0.0};  // T_a.
  std::atomic<int> delay_remaining{0};   // delayed-caching countdown.
};
using CacheEntryPtr = std::shared_ptr<CacheEntry>;

}  // namespace memphis

#endif  // MEMPHIS_CACHE_CACHE_ENTRY_H_
