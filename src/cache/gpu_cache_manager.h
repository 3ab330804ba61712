#ifndef MEMPHIS_CACHE_GPU_CACHE_MANAGER_H_
#define MEMPHIS_CACHE_GPU_CACHE_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "gpu/gpu_context.h"
#include "lineage/lineage_item.h"
#include "obs/metrics.h"

namespace memphis {

/// A GPU pointer under lineage-cache management (Section 4.2): the device
/// buffer, the reference count of live variables sharing it, the lineage key
/// (when the output is cached for reuse), and the eviction-score metadata.
class GpuCacheManager;

struct GpuCacheObject {
  gpu::GpuBufferPtr buffer;
  LineageItemPtr lineage;      // nullptr once recycled / for uncached temps.
  uint64_t generation = 0;     // bumped whenever the contents are dropped.
  int ref_count = 0;           // live variables referencing the pointer.
  bool in_free_list = false;
  double last_access = 0.0;    // T_a(o).
  double compute_cost = 0.0;   // c(o).
  int height = 0;              // h(o) = lineage trace height.
  int device = 0;              // device index (multi-GPU, Section 5.4).
  GpuCacheManager* owner = nullptr;  // manager of `device`'s cache.
};
using GpuCacheObjectPtr = std::shared_ptr<GpuCacheObject>;

/// Counters for reports (e.g. "255K/139K recycled/reused pointers").
/// Atomic (obs::Counter): the allocation ladder runs under tier_mu_ today,
/// but instruction slots release references from pool threads.
struct GpuCacheStats {
  obs::Counter recycled_exact;    // exact-size pointer recycling.
  obs::Counter freed_larger;      // freed a just-larger pointer.
  obs::Counter freed_for_space;   // repeated frees until cudaMalloc succeeds.
  obs::Counter full_cleanups;
  obs::Counter d2h_evictions;
  obs::Counter defrags;
  obs::Counter reused_pointers;
  obs::Counter oom_failures;

  /// Registers every field under "<prefix><field>" ("gpucache0." etc.).
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix);
};

/// Unified GPU memory manager with moving reuse/recycle boundaries: all
/// pointers from allocation to deallocation live in a Live list (pending
/// consumers) or a size-keyed Free list (recyclable and/or reusable).
/// Implements Algorithm 1's allocation ladder and the eviction scoring of
/// Eq. (2):  argmin  T_a(o) + 1/h(o) + c(o).
class GpuCacheManager {
 public:
  /// `d2h_sink`: callback that receives a device object's value right before
  /// its pointer is freed by the device-to-host eviction step, so the host
  /// tier of the hierarchical cache can retain it.
  using D2hSink =
      std::function<void(const LineageItemPtr&, const MatrixPtr&, double*)>;

  GpuCacheManager(gpu::GpuContext* gpu, bool recycling_enabled,
                  int device = 0);

  void set_d2h_sink(D2hSink sink) { d2h_sink_ = std::move(sink); }

  /// Serves an output allocation (Algorithm 1). Returns a live object with
  /// ref_count 1. Throws GpuOutOfMemoryError if the full ladder fails.
  GpuCacheObjectPtr Allocate(size_t bytes, double* now);

  /// Marks one more live variable referencing the pointer.
  void AddRef(const GpuCacheObjectPtr& object);

  /// Releases one live reference; when the count reaches zero the pointer
  /// moves to the Free list (Figure 8(b)) -- it stays reusable while free.
  void Release(const GpuCacheObjectPtr& object, double* now);

  /// Reuses a cached pointer: moves it Free -> Live (Figure 8(c)).
  void Reuse(const GpuCacheObjectPtr& object, double now);

  /// Attaches cache metadata after a PUT.
  void Annotate(const GpuCacheObjectPtr& object, LineageItemPtr lineage,
                double compute_cost, double now);

  /// evict(pct) instruction (Section 5.2): frees `percent`% of the free
  /// list's bytes in eviction-score order. With `preserve_to_host`, cached
  /// values are copied to the host tier first (the slower device-to-host
  /// eviction path used as an allocation last resort).
  void EvictPercent(double percent, double* now,
                    bool preserve_to_host = false);

  /// Total bytes sitting in the free list.
  size_t FreeListBytes() const;
  size_t free_list_size() const;

  const GpuCacheStats& stats() const { return stats_; }
  GpuCacheStats& mutable_stats() { return stats_; }
  int device() const { return device_; }
  gpu::GpuContext& gpu() { return *gpu_; }

 private:
  /// Removes `object` from the free list and invalidates its cache link.
  void RemoveFromFreeList(const GpuCacheObjectPtr& object);

  /// The free object with minimum eviction score among `candidates`.
  GpuCacheObjectPtr MinScore(const std::vector<GpuCacheObjectPtr>& candidates,
                             double now) const;

  /// Picks the free-list victim with the minimum score across all sizes.
  GpuCacheObjectPtr GlobalMinScore(double now) const;

  double Score(const GpuCacheObject& object, double now) const;

  gpu::GpuContext* gpu_;
  bool recycling_enabled_;
  int device_ = 0;
  D2hSink d2h_sink_;
  /// Size -> free objects of that size (priority by eviction score).
  std::map<size_t, std::vector<GpuCacheObjectPtr>> free_list_;
  double max_cost_seen_ = 1.0;  // for normalizing c(o).
  GpuCacheStats stats_;
};

}  // namespace memphis

#endif  // MEMPHIS_CACHE_GPU_CACHE_MANAGER_H_
