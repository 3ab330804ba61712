#ifndef MEMPHIS_FUZZ_LATTICE_H_
#define MEMPHIS_FUZZ_LATTICE_H_

#include <map>
#include <string>
#include <vector>

#include "common/config.h"
#include "fuzz/fuzz_json.h"
#include "fuzz/generator.h"
#include "matrix/matrix_block.h"
#include "runtime/fault_injection.h"

namespace memphis::fuzz {

/// One point of the mode lattice: a full SystemConfig (reuse policy, memory
/// budgets, placement pressure, thread-pool width), a repeat count (>1 makes
/// the lineage cache actually serve hits), and an optional deterministic
/// kernel fault. Everything needed to replay a run is in this struct, and it
/// round-trips through JSON byte-for-byte.
struct LatticePoint {
  std::string name;
  int repeats = 1;
  SystemConfig config;
  /// Armed iff fault.opcode is non-empty.
  KernelFault fault;
};

/// The full sweep used by the memphis_fuzz CLI (10 points): reuse modes,
/// starved cache/device budgets, Spark-forced and GPU-eager placement, and
/// thread-pool widths 1/4/8.
std::vector<LatticePoint> DefaultLattice();

/// A 4-point subset cheap enough for tier-1 ctest.
std::vector<LatticePoint> SmokeLattice();

// --- config serde (corpus snapshots) ----------------------------------------
Json ConfigToJson(const SystemConfig& config);
SystemConfig ConfigFromJson(const Json& json);
Json PointToJson(const LatticePoint& point);
LatticePoint PointFromJson(const Json& json);

/// Result of one program under one lattice point.
struct PointResult {
  /// Output variables after the last repeat (scalars as 1x1), fetched back
  /// to the host. Ordered for deterministic diffing.
  std::map<std::string, MatrixPtr> outputs;
  /// Non-empty when a structural check failed after execution: a cache
  /// invariant violation or a lineage serde round-trip mismatch. These are
  /// system bugs regardless of whether the numeric outputs agree.
  std::string structural_error;
};

/// Runs the program under `point`: binds the seeded inputs (with stable
/// lineage ids so repeats are reusable), parses a fresh Program from the
/// canonical script text, executes it `repeats` times through the full
/// system, fetches every output variable, then checks cache invariants and
/// lineage-serde round-trips. Execution errors (MemphisError) propagate to
/// the caller for classification.
PointResult RunUnderPoint(const GeneratedProgram& program,
                          const LatticePoint& point);

/// All variable names a program's script assigns (block outputs, loop bodies
/// included), in first-assignment order.
std::vector<std::string> ProgramOutputVars(const std::string& script);

}  // namespace memphis::fuzz

#endif  // MEMPHIS_FUZZ_LATTICE_H_
