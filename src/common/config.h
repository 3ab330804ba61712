#ifndef MEMPHIS_COMMON_CONFIG_H_
#define MEMPHIS_COMMON_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace memphis {

/// Reuse policy of the unified runtime. Baseline systems from the paper's
/// evaluation (Section 6.1) are expressed as policy modes of one executor,
/// mirroring the paper's hand-optimized-script methodology.
enum class ReuseMode {
  kNone,        // Base: no lineage tracing, no reuse.
  kTraceOnly,   // Trace: lineage tracing enabled, no cache probing.
  kProbeOnly,   // Probe: full reuse machinery but nothing is ever reusable.
  kLima,        // LIMA: eager fine-grained reuse of *local CPU* objects only.
  kHelix,       // HELIX-style: coarse-grained (function-level) reuse only.
  kMemphis,     // Full MEMPHIS: multi-level, multi-backend reuse.
};

/// Where operators may be placed. Mirrors SystemDS execution types.
enum class Backend : uint8_t { kCP = 0, kSpark = 1, kGpu = 2 };

/// How much static verification compiled plans receive before execution
/// (src/compiler/verifier.h). kFull re-derives every invariant (shape
/// dataflow, def-before-use, placement legality, fused-group closure,
/// lineage purity); kSummary folds the same walk into a cheap summary hash
/// without per-op re-derivation; kOff skips the verifier entirely.
enum class VerifyMode : uint8_t { kOff = 0, kSummary = 1, kFull = 2 };

const char* ToString(ReuseMode mode);
const char* ToString(Backend backend);
const char* ToString(VerifyMode mode);

/// Spark storage levels used by the automatic parameter tuning rewrite.
enum class StorageLevel { kMemoryOnly, kMemoryAndDisk };

/// Global system configuration; defaults follow the memory configuration of
/// the paper's experimental setup (Section 6.1), scaled down by kScale so the
/// simulated cluster is laptop-sized but keeps all ratios.
struct SystemConfig {
  // --- scaling -------------------------------------------------------------
  /// All byte budgets below are divided by 1024 relative to the paper
  /// (e.g. 38 GB driver -> 38 MB) so benchmarks finish quickly. Workload
  /// matrices shrink by the same factor (1/32 per dimension, see
  /// workloads::kDimScale), so placement decisions and memory pressure are
  /// preserved; the cost model charges time analytically, so *ratios* --
  /// who wins and by how much -- are preserved as well.
  double mem_scale = 1.0 / 1024.0;

  // --- memory budgets (bytes, already scaled in Scaled()) -------------------
  size_t driver_memory = 38ull << 30;      // Spark driver heap.
  size_t executor_memory = 230ull << 30;   // per-executor heap.
  size_t buffer_pool = 20ull << 30;        // CP buffer pool.
  size_t operation_memory = 7ull << 30;    // CP op budget; larger -> Spark.
  size_t driver_lineage_cache = 5ull << 30;
  size_t gpu_memory = 48ull << 30;         // device memory (unified manager).

  int num_executors = 8;
  int cores_per_executor = 24;

  /// Real worker threads backing the shared pool that runs CP kernels and
  /// concurrent Spark tasks. 0 (default) derives the size from
  /// cores_per_executor clamped to the host's hardware concurrency. The
  /// thread count never affects results or simulated timings -- see
  /// DESIGN.md, "Threading model".
  int cp_threads = 0;

  // --- Spark memory model ----------------------------------------------------
  double unified_memory_fraction = 0.6;   // execution+storage of heap.
  double storage_fraction = 0.5;          // storage share of unified region.
  double reuse_storage_fraction = 0.8;    // Section 4.1: 80% of storage.

  // --- reuse knobs -----------------------------------------------------------
  ReuseMode reuse_mode = ReuseMode::kMemphis;
  bool multi_level_reuse = true;       // function/block-level reuse.
  bool compaction = true;              // lineage DAG compaction (Fig. 5).
  bool delayed_caching = true;         // Section 5.2.
  int default_delay_factor = 2;        // cache on n-th hit.
  int lazy_materialize_after_misses = 3;  // k for async count() (Section 4.1).

  // --- operator placement ---------------------------------------------------
  bool enable_spark = true;
  bool enable_gpu = true;
  /// Compute-intensive dense operators above this flop count are offloaded
  /// to the GPU (when capable and enabled).
  double gpu_offload_min_flops = 1e6;

  // --- compiler knobs ----------------------------------------------------------
  bool async_operators = true;         // prefetch/broadcast rewrites.
  bool eviction_injection = true;      // evict(pct) between phase shifts.
  bool checkpoint_placement = true;    // persist() rewrites.
  bool max_parallelize = true;         // Algorithm 2 vs plain depth-first.
  bool auto_parameter_tuning = true;   // delay factor / storage level tuning.
  bool operator_fusion = true;         // fuse elementwise/reduce CP chains.
  /// Static plan verification at the end of compilation (and on the fused
  /// fallback path). Full re-derivation in debug/fuzz builds; release
  /// builds drop to the summary-hash walk. NDEBUG is not defined by this
  /// project's Release flags, so the effective default is kFull everywhere;
  /// the release escape hatch is kept for downstream embedders.
#ifdef NDEBUG
  VerifyMode verify_plans = VerifyMode::kSummary;
#else
  VerifyMode verify_plans = VerifyMode::kFull;
#endif

  // --- Spark knobs ---------------------------------------------------------------
  /// Concurrent jobs the cluster can run (FAIR-scheduler lanes); >1 lets
  /// asynchronous prefetch jobs genuinely overlap.
  int spark_job_lanes = 2;

  /// Figure 2(c) baseline: persist + materialize (count) after every Spark
  /// transformation instead of MEMPHIS's lazy, delayed caching.
  bool spark_eager_caching = false;

  // --- durable tier (cache/persist.h) ----------------------------------------
  /// Segment directory of the disk tier below the host tier. Empty (the
  /// default) disables persistence entirely.
  std::string persist_dir;
  /// Live-record byte budget of the disk tier; 0 disables it even when a
  /// directory is set. Scaled by mem_scale like the other byte budgets.
  size_t persist_budget_bytes = 0;
  /// Segment rotation size (physical IO granularity; deliberately not
  /// scaled by mem_scale).
  size_t persist_segment_bytes = 4ull << 20;
  /// Rewrite segments once dead records exceed this fraction of the log.
  double persist_compact_dead_ratio = 0.4;
  /// Host-tier entries cheaper than this are not harvested to disk.
  double persist_min_compute_cost = 0.0;
  /// Background harvest interval (wall ms); 0 = manual HarvestToDiskNow().
  double persist_harvest_interval_ms = 0.0;

  // --- GPU knobs ---------------------------------------------------------------
  /// Number of devices, each with its own stream, arena, and cache tier
  /// (Section 5.4; the paper's scale-up node has two A40s).
  int num_gpus = 1;
  bool gpu_recycling = true;           // pointer recycling (Algorithm 1).
  bool gpu_eager_free = false;         // baseline: free after last use.

  /// Returns a copy with all byte budgets multiplied by mem_scale.
  SystemConfig Scaled() const;
};

}  // namespace memphis

#endif  // MEMPHIS_COMMON_CONFIG_H_
