#include "cache/lineage_cache.h"

#include <unordered_set>

#include "common/status.h"
#include "lineage/lineage_serde.h"
#include "obs/journal.h"
#include "obs/trace.h"

namespace memphis {

namespace {

// Journal key: the same hash the shard router uses, so memphis_explain can
// correlate every decision about one lineage key across tiers.
inline uint64_t JournalKey(const LineageItemPtr& key) {
  return static_cast<uint64_t>(LineageItemPtrHash{}(key));
}

obs::JournalTier JournalTierOf(CacheKind kind) {
  switch (kind) {
    case CacheKind::kHostMatrix: return obs::JournalTier::kHost;
    case CacheKind::kScalar: return obs::JournalTier::kScalar;
    case CacheKind::kRdd: return obs::JournalTier::kRdd;
    case CacheKind::kGpu: return obs::JournalTier::kGpu;
  }
  return obs::JournalTier::kNone;
}

}  // namespace

bool LineageHasSessionLocalLeaf(const LineageItemPtr& key) {
  // Iterative DAG walk with identity-based memoization (DAGs share subtrees).
  std::vector<const LineageItem*> stack{key.get()};
  std::unordered_set<const LineageItem*> seen;
  while (!stack.empty()) {
    const LineageItem* item = stack.back();
    stack.pop_back();
    if (!seen.insert(item).second) continue;
    if (item->inputs().empty() && item->opcode() == "extern" &&
        item->data().find('@') != std::string::npos) {
      return true;
    }
    for (const LineageItemPtr& input : item->inputs()) {
      stack.push_back(input.get());
    }
  }
  return false;
}

void LineageCacheStats::RegisterMetrics(obs::MetricsRegistry* registry) {
  registry->Register("cache.probes", &probes);
  registry->Register("cache.hits_host", &hits_host);
  registry->Register("cache.hits_scalar", &hits_scalar);
  registry->Register("cache.hits_rdd", &hits_rdd);
  registry->Register("cache.hits_gpu", &hits_gpu);
  registry->Register("cache.hits_function", &hits_function);
  registry->Register("cache.misses", &misses);
  registry->Register("cache.puts", &puts);
  registry->Register("cache.delayed_placeholders", &delayed_placeholders);
  registry->Register("cache.invalidated_gpu", &invalidated_gpu);
  registry->RegisterCallback("cache.hit_ratio", [this] {
    const auto total_probes = static_cast<double>(probes.value());
    return total_probes > 0
               ? static_cast<double>(TotalHits()) / total_probes
               : 0.0;
  });
}

LineageCache::LineageCache(const SystemConfig& config,
                           const sim::CostModel* cost_model,
                           spark::SparkContext* spark,
                           GpuCacheManager* gpu_cache)
    : host_cache_(config.driver_lineage_cache, cost_model),
      spark_manager_(spark, config.reuse_storage_fraction,
                     config.lazy_materialize_after_misses),
      gpu_cache_(gpu_cache) {
  // Fired from spark_manager_ calls, i.e. with tier_mu_ held; taking the
  // victim's shard lock there is the sanctioned lock order.
  spark_manager_.set_evict_callback([this](const CacheEntryPtr& entry) {
    tier_mu_.AssertHeld();  // Lambdas are analyzed separately; EraseKey
                            // REQUIRES(tier_mu_).
    EraseKey(entry->key);
  });
  if (gpu_cache_ != nullptr) AttachGpuCache(gpu_cache_);

  auto& registry = obs::MetricsRegistry::Global();
  persist_promotions_ = registry.GetCounter("persist.promotions");
  persist_harvested_ = registry.GetCounter("persist.harvested");
  PersistConfig persist_config;
  persist_config.dir = config.persist_dir;
  persist_config.budget_bytes = config.persist_budget_bytes;
  persist_config.segment_bytes = config.persist_segment_bytes;
  persist_config.compact_dead_ratio = config.persist_compact_dead_ratio;
  persist_config.min_compute_cost = config.persist_min_compute_cost;
  persist_config.harvest_interval_ms = config.persist_harvest_interval_ms;
  if (persist_config.enabled()) {
    persist_ = std::make_unique<PersistentTier>(persist_config);
    if (persist_config.harvest_interval_ms > 0) {
      harvest_thread_ = std::thread([this] { HarvestLoop(); });
    }
  }
}

LineageCache::~LineageCache() {
  if (harvest_thread_.joinable()) {
    {
      MutexLock lock(harvest_mu_);
      harvest_stop_ = true;
    }
    harvest_cv_.NotifyAll();
    harvest_thread_.join();
  }
}

void LineageCache::HarvestLoop() {
  for (;;) {
    {
      MutexLock lock(harvest_mu_);
      if (harvest_stop_) return;
      harvest_cv_.WaitFor(&harvest_mu_, persist_->config().harvest_interval_ms);
      if (harvest_stop_) return;
    }
    // Harvest with no lock held: HarvestToDiskNow takes the tier lock for
    // its snapshot, then the persist lock per append.
    HarvestToDiskNow();
  }
}

void LineageCache::AttachGpuCache(GpuCacheManager* gpu_cache) {
  gpu_cache->set_d2h_sink([this](const LineageItemPtr& key,
                                 const MatrixPtr& value, double* now) {
    PutHostFromGpuEviction(key, value, now);
  });
}

LineageCache::Shard& LineageCache::ShardFor(const LineageItemPtr& key) {
  return shards_[LineageItemPtrHash{}(key) % kNumShards];
}

const LineageCache::Shard& LineageCache::ShardFor(
    const LineageItemPtr& key) const {
  return shards_[LineageItemPtrHash{}(key) % kNumShards];
}

void LineageCache::EraseKey(const LineageItemPtr& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  shard.map.erase(key);
}

CacheEntryPtr LineageCache::Reuse(const LineageItemPtr& key, double* now) {
  ++stats_.probes;
  // Journal invariant (tested): exactly one kProbe per stats_.probes bump,
  // and exactly one kHit or kMiss on every return path below.
  MEMPHIS_JOURNAL(kProbe, kNone, kNone, JournalKey(key), 0.0, 0.0);
  CacheEntryPtr entry;
  {
    // Fast path: misses and placeholder probes -- the common case while
    // tracing a new pipeline -- touch only this key's shard.
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) entry = it->second;
  }
  if (entry == nullptr) {
    // Probe order host -> disk: a map miss falls through to the durable
    // tier (shard lock already released); a verified disk hit is promoted
    // back into the host tier and served like any other hit.
    if (persist_ != nullptr) {
      entry = PromoteFromDisk(key, now);
      if (entry != nullptr) return entry;
    }
    ++stats_.misses;
    MEMPHIS_TRACE_INSTANT_REQ("cache", "miss");
    MEMPHIS_JOURNAL(kMiss, kNone, kNone, JournalKey(key), 0.0, 0.0);
    return nullptr;
  }
  if (entry->status == CacheStatus::kToBeCached) {
    // Delayed-caching placeholder: counts as a miss; the following PUT
    // advances the countdown.
    ++entry->misses;
    ++stats_.misses;
    MEMPHIS_TRACE_INSTANT_REQ("cache", "miss-placeholder");
    MEMPHIS_JOURNAL(kMiss, kNone, kPlaceholder, JournalKey(key), 0.0, 0.0);
    return nullptr;
  }

  // Hit path: tier bookkeeping (spill restore, Spark ticks, GPU reference
  // refresh) mutates shared manager state, so it serializes on tier_mu_.
  // The shard lock is released first -- never held across tier_mu_.
  MutexLock tier_lock(tier_mu_);
  switch (entry->kind) {
    case CacheKind::kHostMatrix:
      host_cache_.RestoreIfSpilled(entry, now);
      spark_manager_.Tick(*now);  // Action-result reuses tick the k-miss
                                  // counters of pending RDDs (Example 4.1).
      ++stats_.hits_host;
      break;
    case CacheKind::kScalar:
      spark_manager_.Tick(*now);
      ++stats_.hits_scalar;
      break;
    case CacheKind::kRdd:
      ++entry->jobs;  // Every reuse feeds another job (r_j).
      spark_manager_.OnReuse(entry, *now);
      ++stats_.hits_rdd;
      break;
    case CacheKind::kGpu:
      // Validity: the pointer may have been recycled since it was cached,
      // and even re-tagged with another key since (the generation check).
      if (entry->gpu == nullptr ||
          entry->gpu->generation != entry->gpu_generation ||
          entry->gpu->buffer == nullptr || entry->gpu->buffer->data == nullptr) {
        {
          Shard& shard = ShardFor(key);
          MutexLock lock(shard.mu);
          auto it = shard.map.find(key);
          // Only drop the slot if it still holds this stale entry (a
          // concurrent put may have replaced it already).
          if (it != shard.map.end() && it->second == entry) {
            shard.map.erase(it);
          }
        }
        ++stats_.invalidated_gpu;
        ++stats_.misses;
        MEMPHIS_TRACE_INSTANT_REQ("cache", "miss-invalidated-gpu");
        MEMPHIS_JOURNAL(kMiss, kGpu, kInvalidatedGpu, JournalKey(key), 0.0,
                        0.0);
        return nullptr;
      }
      entry->gpu->owner->Reuse(entry->gpu, *now);
      ++stats_.hits_gpu;
      break;
  }
  ++entry->hits;
  entry->last_access = *now;
  MEMPHIS_TRACE_INSTANT1_REQ("cache", "hit", "kind",
                             static_cast<double>(entry->kind));
  if (obs::JournalEnabled()) {
    obs::EmitJournal(obs::JournalKind::kHit, JournalTierOf(entry->kind),
                     obs::JournalReason::kNone, JournalKey(key),
                     entry->compute_cost,
                     static_cast<double>(entry->size_bytes));
  }
  return entry;
}

CacheEntryPtr LineageCache::PreparePut(const LineageItemPtr& key, int delay) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    auto entry = std::make_shared<CacheEntry>();
    entry->key = key;
    if (delay > 1) {
      entry->status = CacheStatus::kToBeCached;
      entry->delay_remaining = delay - 1;
      shard.map[key] = entry;
      ++stats_.delayed_placeholders;
      return nullptr;  // Placeholder only; object not stored yet.
    }
    entry->status = CacheStatus::kCached;
    shard.map[key] = entry;
    return entry;
  }
  CacheEntryPtr entry = it->second;
  if (entry->status == CacheStatus::kToBeCached) {
    if (--entry->delay_remaining > 0) return nullptr;
    entry->status = CacheStatus::kCached;
    return entry;
  }
  return nullptr;  // Already cached (e.g. concurrent put) -- nothing to do.
}

CacheEntryPtr LineageCache::PutHost(const LineageItemPtr& key,
                                    MatrixPtr value, double compute_cost,
                                    int delay, double* now) {
  MutexLock tier_lock(tier_mu_);
  CacheEntryPtr entry = PreparePut(key, delay);
  if (entry == nullptr) return nullptr;
  entry->kind = CacheKind::kHostMatrix;
  entry->host_value = std::move(value);
  entry->compute_cost = compute_cost;
  entry->size_bytes = entry->host_value->SizeInBytes();
  entry->last_access = *now;
  if (!host_cache_.Admit(entry, now)) {
    EraseKey(key);  // Too large for the driver cache.
    return nullptr;
  }
  ++stats_.puts;
  MEMPHIS_JOURNAL(kPut, kHost, kNone, JournalKey(key), compute_cost,
                  static_cast<double>(entry->size_bytes));
  return entry;
}

CacheEntryPtr LineageCache::PutScalar(const LineageItemPtr& key, double value,
                                      double compute_cost, int delay,
                                      double* now) {
  MutexLock tier_lock(tier_mu_);
  CacheEntryPtr entry = PreparePut(key, delay);
  if (entry == nullptr) return nullptr;
  entry->kind = CacheKind::kScalar;
  entry->scalar_value = value;
  entry->compute_cost = compute_cost;
  entry->size_bytes = sizeof(double);
  entry->last_access = *now;
  ++stats_.puts;
  MEMPHIS_JOURNAL(kPut, kScalar, kNone, JournalKey(key), compute_cost,
                  static_cast<double>(sizeof(double)));
  return entry;
}

CacheEntryPtr LineageCache::PutRdd(const LineageItemPtr& key,
                                   spark::RddPtr rdd, double compute_cost,
                                   int delay, StorageLevel level, double now) {
  MutexLock tier_lock(tier_mu_);
  CacheEntryPtr entry = PreparePut(key, delay);
  if (entry == nullptr) return nullptr;
  entry->kind = CacheKind::kRdd;
  entry->rdd = std::move(rdd);
  entry->compute_cost = compute_cost;
  entry->size_bytes = entry->rdd->EstimatedBytes();
  entry->last_access = now;
  spark_manager_.Register(entry, level, now);
  ++stats_.puts;
  MEMPHIS_JOURNAL(kPut, kRdd, kNone, JournalKey(key), compute_cost,
                  static_cast<double>(entry->size_bytes));
  return entry;
}

CacheEntryPtr LineageCache::PutGpu(const LineageItemPtr& key,
                                   GpuCacheObjectPtr object,
                                   double compute_cost, int delay,
                                   double now) {
  MutexLock tier_lock(tier_mu_);
  CacheEntryPtr entry = PreparePut(key, delay);
  if (entry == nullptr) return nullptr;
  entry->kind = CacheKind::kGpu;
  entry->gpu = std::move(object);
  entry->compute_cost = compute_cost;
  entry->size_bytes = entry->gpu->buffer->bytes;
  entry->last_access = now;
  entry->gpu->owner->Annotate(entry->gpu, key, compute_cost, now);
  entry->gpu_generation = entry->gpu->generation;
  ++stats_.puts;
  MEMPHIS_JOURNAL(kPut, kGpu, kNone, JournalKey(key), compute_cost,
                  static_cast<double>(entry->size_bytes));
  return entry;
}

void LineageCache::PutHostFromGpuEviction(const LineageItemPtr& key,
                                          MatrixPtr value, double* now) {
  // Invoked from GPU MakeSpace/EvictPercent, outside any LineageCache lock
  // (the cache never triggers device eviction while holding tier_mu_).
  MEMPHIS_JOURNAL(kEvict, kGpu, kQuota, JournalKey(key), 0.0,
                  value != nullptr
                      ? static_cast<double>(value->SizeInBytes())
                      : 0.0);
  MutexLock tier_lock(tier_mu_);
  CacheEntryPtr entry;
  {
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) entry = it->second;
  }
  if (entry != nullptr) {
    // The GPU entry's slot in the map is replaced by a host entry so the
    // intermediate stays reusable from the host tier.
    entry->kind = CacheKind::kHostMatrix;
    entry->gpu = nullptr;
    entry->host_value = std::move(value);
    entry->size_bytes = entry->host_value->SizeInBytes();
    entry->status = CacheStatus::kCached;
    if (!host_cache_.Admit(entry, now)) EraseKey(key);
    return;
  }
  entry = std::make_shared<CacheEntry>();
  entry->key = key;
  entry->kind = CacheKind::kHostMatrix;
  entry->status = CacheStatus::kCached;
  entry->host_value = std::move(value);
  entry->size_bytes = entry->host_value->SizeInBytes();
  entry->last_access = *now;
  if (host_cache_.Admit(entry, now)) {
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mu);
    shard.map[key] = entry;
  }
}

void LineageCache::Remove(const LineageItemPtr& key) {
  MutexLock tier_lock(tier_mu_);
  CacheEntryPtr entry;
  {
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) return;
    entry = it->second;
    shard.map.erase(it);
  }
  if (entry->kind == CacheKind::kHostMatrix) {
    host_cache_.Forget(entry);
  }
}

CacheEntryPtr LineageCache::PromoteFromDisk(const LineageItemPtr& key,
                                            double* now) {
  // Session-local keys are never on disk (harvest skips them); skipping the
  // probe also avoids serializing a throwaway lineage DAG per cold miss.
  if (LineageHasSessionLocalLeaf(key)) return nullptr;
  std::string payload;
  if (!persist_->Get(SerializeLineage(key), &payload)) return nullptr;
  CacheKind kind = CacheKind::kHostMatrix;
  MatrixPtr value;
  double scalar = 0.0;
  double compute_cost = 0.0;
  if (!DecodePersistPayload(payload, &kind, &value, &scalar, &compute_cost)) {
    return nullptr;  // Checksummed but semantically malformed: treat as miss.
  }
  // Promotion = a delay-1 put through the normal machinery, so host-tier
  // admission, eviction accounting, and concurrent-put dedup all apply.
  CacheEntryPtr entry =
      kind == CacheKind::kScalar
          ? PutScalar(key, scalar, compute_cost, /*delay=*/1, now)
          : PutHost(key, std::move(value), compute_cost, /*delay=*/1, now);
  if (entry == nullptr) {
    // Lost a race with a concurrent put (or the value no longer fits the
    // host tier): re-probe the map once so the caller still sees the hit.
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end() ||
        it->second->status.load() != CacheStatus::kCached) {
      return nullptr;
    }
    entry = it->second;
  }
  persist_promotions_->Add(1);
  if (entry->kind == CacheKind::kScalar) {
    ++stats_.hits_scalar;
  } else {
    ++stats_.hits_host;
  }
  ++entry->hits;
  entry->last_access = *now;
  MEMPHIS_TRACE_INSTANT_REQ("cache", "hit-disk-promote");
  // One kPromote (the tier move) and the probe's single kHit, both against
  // the disk tier that actually answered.
  MEMPHIS_JOURNAL(kPromote, kDisk, kNone, JournalKey(key),
                  entry->compute_cost,
                  static_cast<double>(entry->size_bytes));
  MEMPHIS_JOURNAL(kHit, kDisk, kNone, JournalKey(key), entry->compute_cost,
                  static_cast<double>(entry->size_bytes));
  return entry;
}

int LineageCache::HarvestToDiskNow() {
  if (persist_ == nullptr) return 0;
  MEMPHIS_TRACE_SPAN("persist", "harvest");  // memphis-lint: allow(span-rid) -- background harvest thread, no request in scope
  // Snapshot plain-struct copies under the tier lock (backend pointers and
  // cost/size fields are tier-guarded); serialization and segment IO then
  // run with no cache lock held.
  struct Candidate {
    LineageItemPtr key;
    CacheKind kind = CacheKind::kHostMatrix;
    MatrixPtr value;
    double scalar = 0.0;
    double compute_cost = 0.0;
  };
  std::vector<Candidate> candidates;
  {
    MutexLock tier_lock(tier_mu_);
    for (const Shard& shard : shards_) {
      MutexLock lock(shard.mu);
      for (const auto& [key, entry] : shard.map) {
        if (entry->status.load() != CacheStatus::kCached) continue;
        if (entry->compute_cost < persist_->config().min_compute_cost) {
          continue;
        }
        Candidate candidate;
        candidate.key = key;
        candidate.kind = entry->kind;
        candidate.compute_cost = entry->compute_cost;
        if (entry->kind == CacheKind::kScalar) {
          candidate.scalar = entry->scalar_value;
        } else if (entry->kind == CacheKind::kHostMatrix &&
                   entry->host_value != nullptr) {
          candidate.value = entry->host_value;
        } else {
          continue;  // RDD/GPU handles die with their backend contexts.
        }
        candidates.push_back(std::move(candidate));
      }
    }
  }
  int stored = 0;
  for (const Candidate& candidate : candidates) {
    if (LineageHasSessionLocalLeaf(candidate.key)) continue;
    const std::string log = SerializeLineage(candidate.key);
    if (persist_->Contains(log)) continue;  // Values are immutable: no
                                            // refresh, no dead record.
    if (persist_->Put(log,
                      EncodePersistPayload(candidate.kind, candidate.value,
                                           candidate.scalar,
                                           candidate.compute_cost))) {
      ++stored;
      MEMPHIS_JOURNAL(kHarvest, kDisk, kNone, JournalKey(candidate.key),
                      candidate.compute_cost,
                      candidate.value != nullptr
                          ? static_cast<double>(candidate.value->SizeInBytes())
                          : static_cast<double>(sizeof(double)));
    }
  }
  persist_harvested_->Add(stored);
  return stored;
}

std::vector<CacheEntryPtr> LineageCache::SnapshotHostEntries() const {
  // Same locking shape as CheckInvariants: tier lock for the whole sweep
  // (backend pointers are tier-guarded), shard locks nested inside.
  MutexLock tier_lock(tier_mu_);
  std::vector<CacheEntryPtr> out;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const auto& [key, entry] : shard.map) {
      if (entry->status.load() != CacheStatus::kCached) continue;
      if (entry->kind == CacheKind::kScalar ||
          (entry->kind == CacheKind::kHostMatrix &&
           entry->host_value != nullptr)) {
        out.push_back(entry);
      }
    }
  }
  return out;
}

std::string LineageCache::CheckInvariants() const {
  // The sweep reads tier-guarded state (host-tier accounting, backend
  // pointers, size_bytes), so it holds tier_mu_ throughout; shard locks nest
  // inside per the rank order.
  MutexLock tier_lock(tier_mu_);
  std::unordered_map<const CacheEntry*, bool> mapped;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const auto& [key, entry] : shard.map) {
      if (entry == nullptr) return "map slot holds a null entry";
      if (entry->key == nullptr || !LineageEquals(key, entry->key)) {
        return "entry key disagrees with its map key";
      }
      mapped[entry.get()] = true;
      switch (entry->status.load()) {
        case CacheStatus::kToBeCached:
          if (entry->delay_remaining <= 0) {
            return "delayed placeholder with non-positive countdown";
          }
          break;
        case CacheStatus::kSpilled:
          if (entry->kind != CacheKind::kHostMatrix) {
            return "spilled entry is not a host matrix";
          }
          break;
        case CacheStatus::kCached:
          switch (entry->kind) {
            case CacheKind::kHostMatrix:
              if (entry->host_value == nullptr) {
                return "kCached host entry has no value";
              }
              break;
            case CacheKind::kScalar:
              break;
            case CacheKind::kRdd:
              if (entry->rdd == nullptr) return "kCached RDD entry has no RDD";
              break;
            case CacheKind::kGpu:
              // A recycled device pointer is legal (Reuse invalidates it
              // lazily), but the handle itself must exist.
              if (entry->gpu == nullptr) {
                return "kCached GPU entry has no device handle";
              }
              break;
          }
          break;
      }
    }
  }
  // Host-tier accounting, plus: every resident entry is reachable from the
  // map (an unmapped resident would leak budget forever).
  const std::string host = host_cache_.CheckInvariants();
  if (!host.empty()) return "host tier: " + host;
  for (const CacheEntryPtr& entry : host_cache_.resident()) {
    if (mapped.find(entry.get()) == mapped.end()) {
      return "host-resident entry is not reachable from the lineage map";
    }
  }
  return "";
}

size_t LineageCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

}  // namespace memphis
