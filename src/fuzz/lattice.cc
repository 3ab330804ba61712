#include "fuzz/lattice.h"

#include "common/status.h"
#include "compiler/parser.h"
#include "core/system.h"
#include "lineage/lineage_item.h"
#include "lineage/lineage_serde.h"

namespace memphis::fuzz {

namespace {

ReuseMode ReuseModeFromName(const std::string& name) {
  for (ReuseMode mode :
       {ReuseMode::kNone, ReuseMode::kTraceOnly, ReuseMode::kProbeOnly,
        ReuseMode::kLima, ReuseMode::kHelix, ReuseMode::kMemphis}) {
    if (name == ToString(mode)) return mode;
  }
  throw MemphisError("unknown reuse mode in config JSON: " + name);
}

VerifyMode VerifyModeFromName(const std::string& name) {
  for (VerifyMode mode :
       {VerifyMode::kOff, VerifyMode::kSummary, VerifyMode::kFull}) {
    if (name == ToString(mode)) return mode;
  }
  throw MemphisError("unknown verify mode in config JSON: " + name);
}

/// Arms a kernel fault for the current scope; always disarms on exit so a
/// throwing lattice point cannot poison the next one.
class FaultGuard {
 public:
  explicit FaultGuard(const KernelFault& fault) {
    if (!fault.opcode.empty()) ArmKernelFault(fault);
  }
  ~FaultGuard() { DisarmKernelFault(); }
  FaultGuard(const FaultGuard&) = delete;
  FaultGuard& operator=(const FaultGuard&) = delete;
};

void CollectOutputVars(const compiler::BlockPtr& block,
                       std::vector<std::string>* names) {
  switch (block->kind()) {
    case compiler::Block::Kind::kBasic: {
      auto* basic = static_cast<compiler::BasicBlock*>(block.get());
      for (const std::string& name : basic->dag().output_names()) {
        bool seen = false;
        for (const std::string& existing : *names) {
          if (existing == name) {
            seen = true;
            break;
          }
        }
        if (!seen) names->push_back(name);
      }
      break;
    }
    case compiler::Block::Kind::kFor: {
      auto* loop = static_cast<compiler::ForBlock*>(block.get());
      for (const compiler::BlockPtr& inner : loop->body) {
        CollectOutputVars(inner, names);
      }
      break;
    }
    case compiler::Block::Kind::kEvict:
      break;
  }
}

}  // namespace

std::vector<std::string> ProgramOutputVars(const std::string& script) {
  compiler::Program program = compiler::ParseProgram(script);
  std::vector<std::string> names;
  for (const compiler::BlockPtr& block : program.blocks) {
    CollectOutputVars(block, &names);
  }
  return names;
}

std::vector<LatticePoint> DefaultLattice() {
  std::vector<LatticePoint> lattice;

  {
    LatticePoint point;  // No reuse machinery at all, single-threaded.
    point.name = "base";
    point.config.reuse_mode = ReuseMode::kNone;
    point.config.cp_threads = 1;
    lattice.push_back(point);
  }
  {
    LatticePoint point;  // Full MEMPHIS; the repeat makes reuse actually hit.
    point.name = "memphis";
    point.config.reuse_mode = ReuseMode::kMemphis;
    point.config.cp_threads = 4;
    point.repeats = 2;
    lattice.push_back(point);
  }
  {
    LatticePoint point;  // Same as "memphis" with operator fusion disabled:
    point.name = "no-fusion";  // the fused/unfused differential axis.
    point.config.reuse_mode = ReuseMode::kMemphis;
    point.config.cp_threads = 4;
    point.config.operator_fusion = false;
    point.repeats = 2;
    lattice.push_back(point);
  }
  {
    LatticePoint point;
    point.name = "lima";
    point.config.reuse_mode = ReuseMode::kLima;
    point.repeats = 2;
    lattice.push_back(point);
  }
  {
    LatticePoint point;
    point.name = "helix";
    point.config.reuse_mode = ReuseMode::kHelix;
    point.repeats = 2;
    lattice.push_back(point);
  }
  {
    LatticePoint point;  // Starved caches: constant eviction under reuse.
    point.name = "tiny-cache";
    point.config.reuse_mode = ReuseMode::kMemphis;
    point.config.mem_scale = 1.0;
    point.config.driver_lineage_cache = 96ull << 10;
    point.config.gpu_memory = 1ull << 20;
    point.repeats = 3;
    lattice.push_back(point);
  }
  {
    LatticePoint point;  // Tiny CP op budget pushes placement onto Spark.
    point.name = "spark-forced";
    point.config.reuse_mode = ReuseMode::kMemphis;
    point.config.mem_scale = 1.0;
    point.config.operation_memory = 32ull << 10;
    point.config.enable_gpu = false;
    point.repeats = 2;
    lattice.push_back(point);
  }
  {
    LatticePoint point;  // Low offload threshold: most dense ops go to GPU.
    point.name = "gpu-eager";
    point.config.reuse_mode = ReuseMode::kMemphis;
    point.config.gpu_offload_min_flops = 1e3;
    point.config.num_gpus = 2;
    point.repeats = 2;
    lattice.push_back(point);
  }
  {
    LatticePoint point;  // Wide pool: shakes out ordering races.
    point.name = "threads-8";
    point.config.reuse_mode = ReuseMode::kMemphis;
    point.config.cp_threads = 8;
    point.repeats = 2;
    lattice.push_back(point);
  }
  {
    LatticePoint point;  // Verifier differential axis: the static plan
    point.name = "no-verify";  // verifier must never change results, so a
    point.config.reuse_mode = ReuseMode::kMemphis;  // verifier-off run must
    point.config.cp_threads = 4;  // be bitwise-identical to "memphis".
    point.config.verify_plans = VerifyMode::kOff;
    point.repeats = 2;
    lattice.push_back(point);
  }
  return lattice;
}

std::vector<LatticePoint> SmokeLattice() {
  std::vector<LatticePoint> all = DefaultLattice();
  std::vector<LatticePoint> smoke;
  for (const LatticePoint& point : all) {
    if (point.name == "base" || point.name == "memphis" ||
        point.name == "no-fusion" || point.name == "tiny-cache" ||
        point.name == "spark-forced") {
      smoke.push_back(point);
    }
  }
  return smoke;
}

Json ConfigToJson(const SystemConfig& config) {
  Json json = Json::Object();
  json.Set("mem_scale", Json::Number(config.mem_scale));
  json.Set("driver_memory",
           Json::Number(static_cast<double>(config.driver_memory)));
  json.Set("executor_memory",
           Json::Number(static_cast<double>(config.executor_memory)));
  json.Set("buffer_pool", Json::Number(static_cast<double>(config.buffer_pool)));
  json.Set("operation_memory",
           Json::Number(static_cast<double>(config.operation_memory)));
  json.Set("driver_lineage_cache",
           Json::Number(static_cast<double>(config.driver_lineage_cache)));
  json.Set("gpu_memory", Json::Number(static_cast<double>(config.gpu_memory)));
  json.Set("num_executors", Json::Number(config.num_executors));
  json.Set("cores_per_executor", Json::Number(config.cores_per_executor));
  json.Set("cp_threads", Json::Number(config.cp_threads));
  json.Set("unified_memory_fraction",
           Json::Number(config.unified_memory_fraction));
  json.Set("storage_fraction", Json::Number(config.storage_fraction));
  json.Set("reuse_storage_fraction",
           Json::Number(config.reuse_storage_fraction));
  json.Set("reuse_mode", Json::Str(ToString(config.reuse_mode)));
  json.Set("multi_level_reuse", Json::Bool(config.multi_level_reuse));
  json.Set("compaction", Json::Bool(config.compaction));
  json.Set("delayed_caching", Json::Bool(config.delayed_caching));
  json.Set("default_delay_factor", Json::Number(config.default_delay_factor));
  json.Set("lazy_materialize_after_misses",
           Json::Number(config.lazy_materialize_after_misses));
  json.Set("enable_spark", Json::Bool(config.enable_spark));
  json.Set("enable_gpu", Json::Bool(config.enable_gpu));
  json.Set("gpu_offload_min_flops", Json::Number(config.gpu_offload_min_flops));
  json.Set("async_operators", Json::Bool(config.async_operators));
  json.Set("eviction_injection", Json::Bool(config.eviction_injection));
  json.Set("checkpoint_placement", Json::Bool(config.checkpoint_placement));
  json.Set("max_parallelize", Json::Bool(config.max_parallelize));
  json.Set("operator_fusion", Json::Bool(config.operator_fusion));
  json.Set("verify_plans", Json::Str(ToString(config.verify_plans)));
  json.Set("auto_parameter_tuning", Json::Bool(config.auto_parameter_tuning));
  json.Set("spark_job_lanes", Json::Number(config.spark_job_lanes));
  json.Set("spark_eager_caching", Json::Bool(config.spark_eager_caching));
  json.Set("num_gpus", Json::Number(config.num_gpus));
  json.Set("gpu_recycling", Json::Bool(config.gpu_recycling));
  json.Set("gpu_eager_free", Json::Bool(config.gpu_eager_free));
  json.Set("persist_dir", Json::Str(config.persist_dir));
  json.Set("persist_budget_bytes",
           Json::Number(static_cast<double>(config.persist_budget_bytes)));
  json.Set("persist_segment_bytes",
           Json::Number(static_cast<double>(config.persist_segment_bytes)));
  json.Set("persist_compact_dead_ratio",
           Json::Number(config.persist_compact_dead_ratio));
  json.Set("persist_min_compute_cost",
           Json::Number(config.persist_min_compute_cost));
  json.Set("persist_harvest_interval_ms",
           Json::Number(config.persist_harvest_interval_ms));
  return json;
}

SystemConfig ConfigFromJson(const Json& json) {
  SystemConfig config;  // Missing keys keep their defaults.
  config.mem_scale = json.GetOr("mem_scale", config.mem_scale);
  auto bytes = [&](const char* key, size_t fallback) {
    return static_cast<size_t>(
        json.GetOr(key, static_cast<double>(fallback)));
  };
  config.driver_memory = bytes("driver_memory", config.driver_memory);
  config.executor_memory = bytes("executor_memory", config.executor_memory);
  config.buffer_pool = bytes("buffer_pool", config.buffer_pool);
  config.operation_memory = bytes("operation_memory", config.operation_memory);
  config.driver_lineage_cache =
      bytes("driver_lineage_cache", config.driver_lineage_cache);
  config.gpu_memory = bytes("gpu_memory", config.gpu_memory);
  config.num_executors = static_cast<int>(
      json.GetOr("num_executors", static_cast<double>(config.num_executors)));
  config.cores_per_executor = static_cast<int>(json.GetOr(
      "cores_per_executor", static_cast<double>(config.cores_per_executor)));
  config.cp_threads = static_cast<int>(
      json.GetOr("cp_threads", static_cast<double>(config.cp_threads)));
  config.unified_memory_fraction =
      json.GetOr("unified_memory_fraction", config.unified_memory_fraction);
  config.storage_fraction =
      json.GetOr("storage_fraction", config.storage_fraction);
  config.reuse_storage_fraction =
      json.GetOr("reuse_storage_fraction", config.reuse_storage_fraction);
  config.reuse_mode = ReuseModeFromName(
      json.GetOr("reuse_mode", std::string(ToString(config.reuse_mode))));
  config.multi_level_reuse =
      json.GetOr("multi_level_reuse", config.multi_level_reuse);
  config.compaction = json.GetOr("compaction", config.compaction);
  config.delayed_caching = json.GetOr("delayed_caching", config.delayed_caching);
  config.default_delay_factor = static_cast<int>(json.GetOr(
      "default_delay_factor", static_cast<double>(config.default_delay_factor)));
  config.lazy_materialize_after_misses = static_cast<int>(
      json.GetOr("lazy_materialize_after_misses",
                 static_cast<double>(config.lazy_materialize_after_misses)));
  config.enable_spark = json.GetOr("enable_spark", config.enable_spark);
  config.enable_gpu = json.GetOr("enable_gpu", config.enable_gpu);
  config.gpu_offload_min_flops =
      json.GetOr("gpu_offload_min_flops", config.gpu_offload_min_flops);
  config.async_operators = json.GetOr("async_operators", config.async_operators);
  config.eviction_injection =
      json.GetOr("eviction_injection", config.eviction_injection);
  config.checkpoint_placement =
      json.GetOr("checkpoint_placement", config.checkpoint_placement);
  config.max_parallelize = json.GetOr("max_parallelize", config.max_parallelize);
  config.operator_fusion = json.GetOr("operator_fusion", config.operator_fusion);
  config.verify_plans = VerifyModeFromName(
      json.GetOr("verify_plans", std::string(ToString(config.verify_plans))));
  config.auto_parameter_tuning =
      json.GetOr("auto_parameter_tuning", config.auto_parameter_tuning);
  config.spark_job_lanes = static_cast<int>(json.GetOr(
      "spark_job_lanes", static_cast<double>(config.spark_job_lanes)));
  config.spark_eager_caching =
      json.GetOr("spark_eager_caching", config.spark_eager_caching);
  config.num_gpus = static_cast<int>(
      json.GetOr("num_gpus", static_cast<double>(config.num_gpus)));
  config.gpu_recycling = json.GetOr("gpu_recycling", config.gpu_recycling);
  config.gpu_eager_free = json.GetOr("gpu_eager_free", config.gpu_eager_free);
  config.persist_dir = json.GetOr("persist_dir", config.persist_dir);
  config.persist_budget_bytes =
      bytes("persist_budget_bytes", config.persist_budget_bytes);
  config.persist_segment_bytes =
      bytes("persist_segment_bytes", config.persist_segment_bytes);
  config.persist_compact_dead_ratio = json.GetOr(
      "persist_compact_dead_ratio", config.persist_compact_dead_ratio);
  config.persist_min_compute_cost =
      json.GetOr("persist_min_compute_cost", config.persist_min_compute_cost);
  config.persist_harvest_interval_ms = json.GetOr(
      "persist_harvest_interval_ms", config.persist_harvest_interval_ms);
  return config;
}

Json PointToJson(const LatticePoint& point) {
  Json json = Json::Object();
  json.Set("name", Json::Str(point.name));
  json.Set("repeats", Json::Number(point.repeats));
  json.Set("config", ConfigToJson(point.config));
  if (!point.fault.opcode.empty()) {
    Json fault = Json::Object();
    fault.Set("opcode", Json::Str(point.fault.opcode));
    fault.Set("relative_error", Json::Number(point.fault.relative_error));
    fault.Set("skip_calls", Json::Number(point.fault.skip_calls));
    json.Set("fault", fault);
  }
  return json;
}

LatticePoint PointFromJson(const Json& json) {
  LatticePoint point;
  point.name = json.GetOr("name", std::string("replay"));
  point.repeats =
      static_cast<int>(json.GetOr("repeats", static_cast<double>(1)));
  point.config = ConfigFromJson(json.Get("config"));
  if (json.Has("fault")) {
    const Json& fault = json.Get("fault");
    point.fault.opcode = fault.Get("opcode").as_string();
    point.fault.relative_error =
        fault.GetOr("relative_error", point.fault.relative_error);
    point.fault.skip_calls = static_cast<int>(
        fault.GetOr("skip_calls", static_cast<double>(point.fault.skip_calls)));
  }
  return point;
}

PointResult RunUnderPoint(const GeneratedProgram& program,
                          const LatticePoint& point) {
  const std::string script = program.Script();
  compiler::Program parsed = compiler::ParseProgram(script);

  MemphisSystem system(point.config);
  for (const InputSpec& spec : program.inputs) {
    system.ctx().BindMatrixWithId(
        spec.name, MakeInput(spec),
        "fuzz:" + spec.name + ":" + std::to_string(spec.seed));
  }

  {
    FaultGuard guard(point.fault);
    // Repeats run the *same* Program object: iteration 2+ is where lineage
    // reuse, delayed caching, and eviction actually engage.
    for (int repeat = 0; repeat < point.repeats; ++repeat) {
      system.Run(parsed);
    }
  }

  PointResult result;
  for (const std::string& name : ProgramOutputVars(script)) {
    result.outputs[name] = system.ctx().FetchMatrix(name);
  }

  // Structural checks ride along on every point: a divergence-free run that
  // corrupts cache accounting or lineage serialization is still a bug.
  const std::string cache_error = system.ctx().cache().CheckInvariants();
  if (!cache_error.empty()) {
    result.structural_error = "cache invariant violated: " + cache_error;
    return result;
  }
  for (const auto& [name, value] : result.outputs) {
    (void)value;
    LineageItemPtr item = system.ctx().lineage().Get(name);
    if (item == nullptr) continue;  // Tracing disabled at this point.
    const std::string serialized = SerializeLineage(item);
    LineageItemPtr decoded = DeserializeLineage(serialized);
    if (decoded == nullptr || !LineageEquals(item, decoded)) {
      result.structural_error =
          "lineage serde round-trip mismatch for '" + name + "'";
      return result;
    }
    if (SerializeLineage(decoded) != serialized) {
      result.structural_error =
          "lineage serialization is not a fixpoint for '" + name + "'";
      return result;
    }
  }
  return result;
}

}  // namespace memphis::fuzz
