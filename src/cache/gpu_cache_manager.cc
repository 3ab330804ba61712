#include "cache/gpu_cache_manager.h"

#include <algorithm>

#include "common/status.h"
#include "obs/trace.h"

namespace memphis {

void GpuCacheStats::RegisterMetrics(obs::MetricsRegistry* registry,
                                    const std::string& prefix) {
  registry->Register(prefix + "recycled_exact", &recycled_exact);
  registry->Register(prefix + "freed_larger", &freed_larger);
  registry->Register(prefix + "freed_for_space", &freed_for_space);
  registry->Register(prefix + "full_cleanups", &full_cleanups);
  registry->Register(prefix + "d2h_evictions", &d2h_evictions);
  registry->Register(prefix + "defrags", &defrags);
  registry->Register(prefix + "reused_pointers", &reused_pointers);
  registry->Register(prefix + "oom_failures", &oom_failures);
}

GpuCacheManager::GpuCacheManager(gpu::GpuContext* gpu, bool recycling_enabled,
                                 int device)
    : gpu_(gpu), recycling_enabled_(recycling_enabled), device_(device) {}

double GpuCacheManager::Score(const GpuCacheObject& object, double now) const {
  // Eq. (2): T_a(o) + 1/h(o) + c(o), each term normalized to [0, 1]:
  // recent accesses, short lineage (input-pipeline slices), and cheap
  // recomputation all *raise* the score's components selectively so that the
  // minimum identifies stale, deep, cheap objects first.
  const double t_a = now > 0 ? object.last_access / now : 0.0;
  const double inv_height = 1.0 / static_cast<double>(object.height + 1);
  const double cost = object.compute_cost / max_cost_seen_;
  return t_a + inv_height + cost;
}

GpuCacheObjectPtr GpuCacheManager::MinScore(
    const std::vector<GpuCacheObjectPtr>& candidates, double now) const {
  GpuCacheObjectPtr best;
  double best_score = 0.0;
  for (const auto& object : candidates) {
    const double score = Score(*object, now);
    if (best == nullptr || score < best_score) {
      best = object;
      best_score = score;
    }
  }
  return best;
}

GpuCacheObjectPtr GpuCacheManager::GlobalMinScore(double now) const {
  GpuCacheObjectPtr best;
  double best_score = 0.0;
  for (const auto& [size, objects] : free_list_) {
    for (const auto& object : objects) {
      const double score = Score(*object, now);
      if (best == nullptr || score < best_score) {
        best = object;
        best_score = score;
      }
    }
  }
  return best;
}

void GpuCacheManager::RemoveFromFreeList(const GpuCacheObjectPtr& object) {
  auto it = free_list_.find(object->buffer->bytes);
  MEMPHIS_CHECK(it != free_list_.end());
  auto& objects = it->second;
  objects.erase(std::find(objects.begin(), objects.end(), object));
  if (objects.empty()) free_list_.erase(it);
  object->in_free_list = false;
}

GpuCacheObjectPtr GpuCacheManager::Allocate(size_t bytes, double* now) {
  MEMPHIS_TRACE_SPAN2_REQ("gpu", "gpu-alloc", "bytes",
                          static_cast<double>(bytes), "device", device_);
  auto wrap = [this, now](gpu::GpuBufferPtr buffer) {
    auto object = std::make_shared<GpuCacheObject>();
    object->buffer = std::move(buffer);
    object->ref_count = 1;
    object->last_access = *now;
    object->device = device_;
    object->owner = this;
    return object;
  };
  // Pool fast path: an exact-size *uncached* free pointer is recycled even
  // before cudaMalloc -- recycling skips the synchronization barrier and,
  // because the pointer carries no lineage entry, costs no reuse potential
  // (Section 4.2: "prioritize recycling exact-sized memory chunks ...
  // without compromising the reuse potential").
  if (recycling_enabled_) {
    if (auto it = free_list_.find(bytes); it != free_list_.end()) {
      for (const auto& candidate : it->second) {
        if (candidate->lineage != nullptr) continue;
        GpuCacheObjectPtr victim = candidate;
        RemoveFromFreeList(victim);
        victim->buffer->data.reset();
        ++victim->generation;
        victim->ref_count = 1;
        victim->last_access = *now;
        ++stats_.recycled_exact;
        return victim;
      }
    }
  }

  // cudaMalloc (synchronizing).
  if (auto buffer = gpu_->Malloc(bytes, now); buffer.has_value()) {
    return wrap(*buffer);
  }

  if (recycling_enabled_) {
    // Step 1 (Algorithm 1): memory is full -- recycle an exact-size free
    // pointer even if it invalidates a cached entry.
    if (auto it = free_list_.find(bytes); it != free_list_.end()) {
      GpuCacheObjectPtr victim = MinScore(it->second, *now);
      RemoveFromFreeList(victim);
      victim->lineage = nullptr;  // Cache entry becomes invalid.
      victim->buffer->data.reset();
      ++victim->generation;
      victim->ref_count = 1;
      victim->last_access = *now;
      ++stats_.recycled_exact;
      return victim;
    }
    // Step 2: free the smallest pointer larger than the request.
    if (auto it = free_list_.upper_bound(bytes); it != free_list_.end()) {
      GpuCacheObjectPtr victim = MinScore(it->second, *now);
      RemoveFromFreeList(victim);
      victim->lineage = nullptr;
      ++victim->generation;
      gpu_->Free(victim->buffer, now);  // May fragment (Section 4.2).
      ++stats_.freed_larger;
      if (auto buffer = gpu_->Malloc(bytes, now); buffer.has_value()) {
        return wrap(*buffer);
      }
    }
  }

  // Step 3: repeatedly free pointers (min eviction score first) until the
  // allocation succeeds.
  while (!free_list_.empty()) {
    GpuCacheObjectPtr victim = GlobalMinScore(*now);
    RemoveFromFreeList(victim);
    victim->lineage = nullptr;
    ++victim->generation;
    gpu_->Free(victim->buffer, now);
    ++stats_.freed_for_space;
    if (auto buffer = gpu_->Malloc(bytes, now); buffer.has_value()) {
      return wrap(*buffer);
    }
  }

  // Step 4: free list exhausted. If a device-to-host sink is registered,
  // this point is only reached when eviction already drained the free list,
  // so move straight to defragmentation; live variables cannot be evicted.
  ++stats_.full_cleanups;
  gpu_->Defragment(now);
  ++stats_.defrags;
  if (auto buffer = gpu_->Malloc(bytes, now); buffer.has_value()) {
    return wrap(*buffer);
  }
  ++stats_.oom_failures;
  throw GpuOutOfMemoryError(
      "GPU allocation of " + std::to_string(bytes) +
      " bytes failed after recycling, eviction, and defragmentation");
}

void GpuCacheManager::AddRef(const GpuCacheObjectPtr& object) {
  MEMPHIS_CHECK(object != nullptr && !object->in_free_list);
  ++object->ref_count;
}

void GpuCacheManager::Release(const GpuCacheObjectPtr& object, double* now) {
  MEMPHIS_CHECK(object != nullptr);
  MEMPHIS_CHECK_MSG(object->ref_count > 0, "GPU pointer over-released");
  if (--object->ref_count > 0) return;
  if (recycling_enabled_ || object->lineage != nullptr) {
    // Move to the Free list: recyclable, and reusable while it survives.
    object->in_free_list = true;
    free_list_[object->buffer->bytes].push_back(object);
  } else {
    // Baseline mode (no recycling, no caching): eager cudaFree.
    ++object->generation;
    gpu_->Free(object->buffer, now);
  }
}

void GpuCacheManager::Reuse(const GpuCacheObjectPtr& object, double now) {
  MEMPHIS_CHECK(object != nullptr);
  if (object->in_free_list) {
    RemoveFromFreeList(object);
    object->ref_count = 1;
  } else {
    ++object->ref_count;
  }
  object->last_access = now;
  ++stats_.reused_pointers;
}

void GpuCacheManager::Annotate(const GpuCacheObjectPtr& object,
                               LineageItemPtr lineage, double compute_cost,
                               double now) {
  object->lineage = std::move(lineage);
  object->compute_cost = compute_cost;
  object->height = object->lineage != nullptr ? object->lineage->height() : 0;
  object->last_access = now;
  max_cost_seen_ = std::max(max_cost_seen_, compute_cost);
}

void GpuCacheManager::EvictPercent(double percent, double* now,
                                   bool preserve_to_host) {
  MEMPHIS_TRACE_SPAN2_REQ("gpu", "evict-percent", "pct", percent, "device",
                          device_);
  const double target =
      static_cast<double>(FreeListBytes()) * std::clamp(percent, 0.0, 100.0) /
      100.0;
  double freed = 0.0;
  while (freed < target && !free_list_.empty()) {
    GpuCacheObjectPtr victim = GlobalMinScore(*now);
    RemoveFromFreeList(victim);
    // Preserve the value in the host tier before dropping the pointer.
    if (preserve_to_host && d2h_sink_ && victim->lineage != nullptr &&
        victim->buffer->data != nullptr) {
      MatrixPtr value = gpu_->CopyD2H(victim->buffer, now);
      d2h_sink_(victim->lineage, value, now);
      ++stats_.d2h_evictions;
    }
    victim->lineage = nullptr;
    ++victim->generation;
    freed += static_cast<double>(victim->buffer->bytes);
    MEMPHIS_TRACE_INSTANT1_REQ("gpu", "evict", "bytes",
                               static_cast<double>(victim->buffer->bytes));
    gpu_->Free(victim->buffer, now);
  }
}

size_t GpuCacheManager::FreeListBytes() const {
  size_t bytes = 0;
  for (const auto& [size, objects] : free_list_) {
    bytes += size * objects.size();
  }
  return bytes;
}

size_t GpuCacheManager::free_list_size() const {
  size_t count = 0;
  for (const auto& [size, objects] : free_list_) count += objects.size();
  return count;
}

}  // namespace memphis
