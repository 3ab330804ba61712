// Property-based (parameterized) suites over randomized inputs: algebraic
// identities of the kernels, allocator invariants under random workloads,
// lineage hash/equality laws, and the end-to-end reuse-transparency property
// (reuse never changes results) swept across operators.

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"
#include "common/status.h"
#include "core/system.h"
#include "gpu/gpu_arena.h"
#include "lineage/lineage_item.h"
#include "lineage/lineage_serde.h"
#include "matrix/kernels.h"
#include "matrix/nn_kernels.h"
#include "testing_util.h"

namespace memphis {
namespace {

// --- matrix algebra laws ----------------------------------------------------

class AlgebraProperty : public ::testing::TestWithParam<int> {};

TEST_P(AlgebraProperty, TransposeOfProduct) {
  // (A B)^T == B^T A^T.
  const uint64_t seed = testing::TestSeed(GetParam());
  Rng rng(seed);
  const size_t m = 2 + rng.NextInt(12);
  const size_t k = 2 + rng.NextInt(12);
  const size_t n = 2 + rng.NextInt(12);
  auto a = kernels::RandGaussian(m, k, seed * 3 + 1);
  auto b = kernels::RandGaussian(k, n, seed * 3 + 2);
  auto lhs = kernels::Transpose(*kernels::MatMult(*a, *b));
  auto rhs = kernels::MatMult(*kernels::Transpose(*b),
                              *kernels::Transpose(*a));
  EXPECT_TRUE(testing::MatricesClose(*lhs, *rhs));
}

TEST_P(AlgebraProperty, MatMultDistributesOverAddition) {
  const uint64_t seed = testing::TestSeed(GetParam());
  auto a = kernels::RandGaussian(6, 5, seed * 5 + 1);
  auto b = kernels::RandGaussian(5, 4, seed * 5 + 2);
  auto c = kernels::RandGaussian(5, 4, seed * 5 + 3);
  auto sum = kernels::Binary(kernels::BinaryOp::kAdd, *b, *c);
  auto lhs = kernels::MatMult(*a, *sum);
  auto rhs = kernels::Binary(kernels::BinaryOp::kAdd, *kernels::MatMult(*a, *b),
                             *kernels::MatMult(*a, *c));
  EXPECT_TRUE(testing::MatricesClose(*lhs, *rhs));
}

TEST_P(AlgebraProperty, SumInvariantUnderTranspose) {
  const uint64_t seed = testing::TestSeed(GetParam());
  auto a = kernels::RandGaussian(7, 9, seed + 100);
  EXPECT_TRUE(testing::ScalarsClose(kernels::Sum(*a),
                                    kernels::Sum(*kernels::Transpose(*a))));
}

TEST_P(AlgebraProperty, ColSumsMatchRowSumsOfTranspose) {
  const uint64_t seed = testing::TestSeed(GetParam());
  auto a = kernels::RandGaussian(5, 8, seed + 200);
  auto colsums = kernels::ColSums(*a);
  auto rowsums = kernels::RowSums(*kernels::Transpose(*a));
  EXPECT_TRUE(testing::MatricesClose(*kernels::Transpose(*colsums),
                                     *rowsums));
}

TEST_P(AlgebraProperty, SolveInvertsMultiplication) {
  const uint64_t seed = testing::TestSeed(GetParam());
  const size_t n = 3 + seed % 6;
  // Diagonally-dominant A is well conditioned.
  auto a = kernels::RandGaussian(n, n, seed + 300);
  auto dom = kernels::Binary(
      kernels::BinaryOp::kAdd, *a,
      *kernels::ScalarOp(kernels::BinaryOp::kMul, *kernels::Identity(n),
                         10.0 * static_cast<double>(n)));
  auto x_true = kernels::RandGaussian(n, 2, seed + 301);
  auto b = kernels::MatMult(*dom, *x_true);
  EXPECT_TRUE(kernels::Solve(*dom, *b)->ApproxEquals(*x_true, 1e-8));
}

TEST_P(AlgebraProperty, SliceRbindRoundTrip) {
  const uint64_t seed = testing::TestSeed(GetParam());
  auto a = kernels::RandGaussian(10, 4, seed + 400);
  const size_t cut = 1 + seed % 8;
  auto top = kernels::Slice(*a, 0, cut, 0, 4);
  auto bottom = kernels::Slice(*a, cut, 10, 0, 4);
  EXPECT_TRUE(kernels::RBind(*top, *bottom)->ApproxEquals(*a));
}

TEST_P(AlgebraProperty, ReluIdempotent) {
  const uint64_t seed = testing::TestSeed(GetParam());
  auto a = kernels::RandGaussian(6, 6, seed + 500);
  auto once = kernels::Relu(*a);
  EXPECT_TRUE(kernels::Relu(*once)->ApproxEquals(*once));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraProperty, ::testing::Range(1, 13));

// --- GPU arena invariants -----------------------------------------------------

class ArenaProperty : public ::testing::TestWithParam<int> {};

TEST_P(ArenaProperty, RandomAllocFreeKeepsInvariants) {
  const uint64_t seed = testing::TestSeed(GetParam());
  Rng rng(seed);
  gpu::GpuArena arena(1 << 16);
  std::vector<std::pair<uint64_t, size_t>> live;  // (handle, size).
  size_t live_bytes = 0;
  for (int step = 0; step < 500; ++step) {
    if (live.empty() || rng.NextDouble() < 0.55) {
      const size_t bytes = 64 + rng.NextInt(4096);
      auto handle = arena.Alloc(bytes);
      if (handle.has_value()) {
        live.emplace_back(*handle, bytes);
        live_bytes += bytes;
      }
    } else {
      const size_t index = rng.NextInt(live.size());
      arena.Free(live[index].first);
      live_bytes -= live[index].second;
      live.erase(live.begin() + index);
    }
    // Invariants: accounting consistent, no overcommit.
    ASSERT_EQ(arena.allocated_bytes(), live_bytes);
    ASSERT_LE(arena.allocated_bytes(), arena.capacity());
    ASSERT_EQ(arena.num_live_blocks(), live.size());
    ASSERT_LE(arena.LargestFreeBlock(), arena.free_bytes());
  }
  // Live blocks never overlap.
  std::vector<std::pair<size_t, size_t>> ranges;
  for (const auto& [handle, size] : live) {
    ranges.emplace_back(arena.BlockOffset(handle), size);
  }
  std::sort(ranges.begin(), ranges.end());
  for (size_t i = 1; i < ranges.size(); ++i) {
    ASSERT_GE(ranges[i].first, ranges[i - 1].first + ranges[i - 1].second);
  }
  // Defragment and verify everything still fits contiguously.
  arena.Defragment();
  ASSERT_EQ(arena.LargestFreeBlock(), arena.free_bytes());
  ASSERT_EQ(arena.allocated_bytes(), live_bytes);
}

TEST_P(ArenaProperty, FreeAllRestoresFullCapacity) {
  const uint64_t seed = testing::TestSeed(GetParam());
  Rng rng(seed);
  gpu::GpuArena arena(1 << 14);
  std::vector<uint64_t> handles;
  while (true) {
    auto handle = arena.Alloc(128 + rng.NextInt(1024));
    if (!handle.has_value()) break;
    handles.push_back(*handle);
  }
  for (uint64_t handle : handles) arena.Free(handle);
  EXPECT_EQ(arena.free_bytes(), arena.capacity());
  EXPECT_EQ(arena.LargestFreeBlock(), arena.capacity());  // Full coalescing.
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArenaProperty, ::testing::Range(1, 9));

// --- lineage laws ------------------------------------------------------------------

class LineageProperty : public ::testing::TestWithParam<int> {};

LineageItemPtr RandomDag(Rng* rng, int depth) {
  if (depth == 0 || rng->NextDouble() < 0.2) {
    return LineageItem::Leaf("extern",
                             "v" + std::to_string(rng->NextInt(3)));
  }
  const int arity = 1 + static_cast<int>(rng->NextInt(2));
  std::vector<LineageItemPtr> inputs;
  for (int i = 0; i < arity; ++i) {
    inputs.push_back(RandomDag(rng, depth - 1));
  }
  return LineageItem::Create("op" + std::to_string(rng->NextInt(4)),
                             std::to_string(rng->NextInt(3)),
                             std::move(inputs));
}

TEST_P(LineageProperty, EqualityIsReflexiveAndHashConsistent) {
  Rng rng(GetParam());
  auto dag = RandomDag(&rng, 6);
  EXPECT_TRUE(LineageEquals(dag, dag));
  // Rebuild an identical DAG from the same seed.
  Rng rng2(GetParam());
  auto twin = RandomDag(&rng2, 6);
  EXPECT_TRUE(LineageEquals(dag, twin));
  EXPECT_EQ(dag->hash(), twin->hash());
}

TEST_P(LineageProperty, SerdeRoundTripIsIdentity) {
  Rng rng(GetParam() + 50);
  auto dag = RandomDag(&rng, 7);
  auto restored = DeserializeLineage(SerializeLineage(dag));
  EXPECT_TRUE(LineageEquals(dag, restored));
  EXPECT_EQ(dag->hash(), restored->hash());
  EXPECT_EQ(dag->height(), restored->height());
  EXPECT_EQ(LineageDagSize(dag), LineageDagSize(restored));
}

TEST_P(LineageProperty, PerturbationBreaksEquality) {
  Rng rng(GetParam() + 100);
  auto dag = RandomDag(&rng, 5);
  // A DAG extended by one node never equals the original.
  auto extended = LineageItem::Create("extra", "", {dag});
  EXPECT_FALSE(LineageEquals(dag, extended));
  EXPECT_NE(dag->hash(), extended->hash());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LineageProperty, ::testing::Range(1, 11));

// --- reuse transparency across operators ----------------------------------------

struct ReuseCase {
  const char* name;
  const char* opcode;
  std::vector<double> args;
  size_t rows;
  size_t cols;
};

// Prints the case name, not the raw bytes: those hold pointers, so the test
// names gtest_discover_tests builds from them would change on every run.
void PrintTo(const ReuseCase& test_case, std::ostream* os) {
  *os << test_case.name;
}

class ReuseTransparency : public ::testing::TestWithParam<ReuseCase> {};

TEST_P(ReuseTransparency, CachedResultMatchesRecomputation) {
  const ReuseCase& test_case = GetParam();
  auto x = kernels::Rand(test_case.rows, test_case.cols, 0.1, 2.0, 1.0, 77);

  auto run = [&](ReuseMode mode) {
    SystemConfig config;
    config.reuse_mode = mode;
    config.delayed_caching = false;  // Eager: hits from the second run.
    MemphisSystem system(config);
    system.ctx().BindMatrixWithId("X", x, "prop:X");
    auto block = compiler::MakeBasicBlock();
    auto& dag = block->dag();
    dag.Write("out", dag.Op(test_case.opcode, {dag.Read("X")},
                            test_case.args));
    system.Run(*block);
    system.Run(*block);
    MatrixPtr out = system.ctx().FetchMatrix("out");
    return std::make_pair(out, system.ctx().cache().stats().TotalHits());
  };

  auto [base_result, base_hits] = run(ReuseMode::kNone);
  auto [mph_result, mph_hits] = run(ReuseMode::kMemphis);
  EXPECT_EQ(base_hits, 0);
  EXPECT_GT(mph_hits, 0) << test_case.name;
  EXPECT_TRUE(mph_result->ApproxEquals(*base_result, 1e-12))
      << test_case.name;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, ReuseTransparency,
    ::testing::Values(
        ReuseCase{"tsmm", "tsmm", {}, 64, 6},
        ReuseCase{"transpose", "transpose", {}, 32, 8},
        ReuseCase{"relu", "relu", {}, 32, 8},
        ReuseCase{"exp", "exp", {}, 16, 4},
        ReuseCase{"colSums", "colSums", {}, 40, 6},
        ReuseCase{"rowIndexMax", "rowIndexMax", {}, 24, 5},
        ReuseCase{"softmax", "softmax", {}, 16, 8},
        ReuseCase{"scale", "scale", {}, 48, 6},
        ReuseCase{"minmax", "minmax", {}, 48, 6},
        ReuseCase{"imputeMean", "imputeMean", {}, 30, 4},
        ReuseCase{"outlierIQR", "outlierIQR", {1.5}, 40, 3},
        ReuseCase{"bin", "bin", {5}, 30, 4},
        ReuseCase{"recode", "recode", {}, 30, 3},
        ReuseCase{"pca", "pca", {2}, 40, 5},
        ReuseCase{"dropoutSeeded", "dropout", {0.8, 42}, 20, 10}),
    [](const ::testing::TestParamInfo<ReuseCase>& info) {
      return info.param.name;
    });

// --- cost model monotonicity ------------------------------------------------------

class CostMonotonic : public ::testing::TestWithParam<double> {};

TEST_P(CostMonotonic, MoreWorkNeverCheaper) {
  sim::CostModel cm;
  const double scale = GetParam();
  EXPECT_GE(cm.CpOpTime(1e6 * scale, 1e3), cm.CpOpTime(1e6, 1e3));
  EXPECT_GE(cm.ShuffleTime(1e6 * scale), cm.ShuffleTime(1e6));
  EXPECT_GE(cm.GpuKernelTime(1e6 * scale, 1e3), cm.GpuKernelTime(1e6, 1e3));
  EXPECT_GE(cm.D2HTime(1e4 * scale), cm.D2HTime(1e4));
}

INSTANTIATE_TEST_SUITE_P(Scales, CostMonotonic,
                         ::testing::Values(1.0, 2.0, 7.5, 100.0));

}  // namespace
}  // namespace memphis
