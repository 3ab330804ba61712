// Distributed-vs-local equivalence for every Spark-capable operator: the
// same block is executed once with Spark placement forced (tiny operation
// memory) and once purely locally; results must match exactly. This pins
// down the executor's distributed implementations (narrow maps, zips,
// aggregates, broadcast multiplies, two-phase statistics).

#include <gtest/gtest.h>

#include "core/system.h"
#include "matrix/kernels.h"

namespace memphis {
namespace {

using compiler::HopDag;
using compiler::HopPtr;

struct SparkOpCase {
  const char* name;
  /// Builds the op under test over inputs "X" (n x c) and "V" (1 x c).
  std::function<HopPtr(HopDag&, HopPtr x, HopPtr v)> build;
};

// Prints the case name, not the raw bytes: those hold pointers, so the test
// names gtest_discover_tests builds from them would change on every run.
void PrintTo(const SparkOpCase& test_case, std::ostream* os) {
  *os << test_case.name;
}

class SparkOpEquivalence : public ::testing::TestWithParam<SparkOpCase> {};

TEST_P(SparkOpEquivalence, DistributedMatchesLocal) {
  const SparkOpCase& test_case = GetParam();
  auto x = kernels::Rand(3000, 12, 0.1, 2.0, 1.0, 11);
  auto v = kernels::Rand(1, 12, 0.5, 1.5, 1.0, 12);

  auto run = [&](bool distributed) {
    SystemConfig config;
    config.mem_scale = 1.0;
    config.reuse_mode = ReuseMode::kNone;
    config.enable_gpu = false;
    config.operation_memory = distributed ? (16 << 10) : (256 << 20);
    MemphisSystem system(config);
    system.ctx().BindMatrix("X", x);
    system.ctx().BindMatrix("V", v);
    auto block = compiler::MakeBasicBlock();
    HopDag& dag = block->dag();
    dag.Write("out", test_case.build(dag, dag.Read("X"), dag.Read("V")));
    system.Run(*block);
    if (distributed) {
      EXPECT_GT(system.ctx().stats().sp_instructions, 0)
          << test_case.name << " never ran distributed";
    }
    return system.ctx().FetchMatrix("out");
  };

  MatrixPtr local = run(false);
  MatrixPtr distributed = run(true);
  EXPECT_TRUE(distributed->ApproxEquals(*local, 1e-9)) << test_case.name;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, SparkOpEquivalence,
    ::testing::Values(
        SparkOpCase{"relu",
                    [](HopDag& d, HopPtr x, HopPtr) {
                      return d.Op("relu", {x});
                    }},
        SparkOpCase{"exp_scaled",
                    [](HopDag& d, HopPtr x, HopPtr) {
                      return d.Op("exp", {d.Op("*", {x, d.Literal(0.1)})});
                    }},
        SparkOpCase{"add_row_vector",
                    [](HopDag& d, HopPtr x, HopPtr v) {
                      return d.Op("+", {x, v});
                    }},
        SparkOpCase{"zip_two_rdds",
                    [](HopDag& d, HopPtr x, HopPtr) {
                      return d.Op("*", {d.Op("relu", {x}),
                                        d.Op("+", {x, d.Literal(1.0)})});
                    }},
        SparkOpCase{"tsmm",
                    [](HopDag& d, HopPtr x, HopPtr) {
                      return d.Op("tsmm", {x});
                    }},
        SparkOpCase{"tsmm2_local_left",
                    [](HopDag& d, HopPtr x, HopPtr) {
                      // t(X[:,0:1]-ish vector) %*% X via transpose pattern.
                      auto y = d.Op("rowSums", {x});
                      return d.Op("matmult", {d.Op("transpose", {y}), x});
                    }},
        SparkOpCase{"mapmm_right",
                    [](HopDag& d, HopPtr x, HopPtr v) {
                      return d.Op("matmult", {x, d.Op("transpose", {v})});
                    }},
        SparkOpCase{"colSums",
                    [](HopDag& d, HopPtr x, HopPtr) {
                      return d.Op("transpose", {d.Op("colSums", {x})});
                    }},
        SparkOpCase{"sum",
                    [](HopDag& d, HopPtr x, HopPtr) {
                      return d.Op("sum", {x});
                    }},
        SparkOpCase{"mean",
                    [](HopDag& d, HopPtr x, HopPtr) {
                      return d.Op("mean", {x});
                    }},
        SparkOpCase{"min_agg",
                    [](HopDag& d, HopPtr x, HopPtr) {
                      return d.Op("min_agg", {x});
                    }},
        SparkOpCase{"max_agg",
                    [](HopDag& d, HopPtr x, HopPtr) {
                      return d.Op("max_agg", {x});
                    }},
        SparkOpCase{"rowSums",
                    [](HopDag& d, HopPtr x, HopPtr) {
                      return d.Op("sum", {d.Op("*", {d.Op("rowSums", {x}),
                                                     d.Literal(2.0)})});
                    }},
        SparkOpCase{"rowIndexMax",
                    [](HopDag& d, HopPtr x, HopPtr) {
                      return d.Op("sum", {d.Op("rowIndexMax", {x})});
                    }},
        SparkOpCase{"scale_two_phase",
                    [](HopDag& d, HopPtr x, HopPtr) {
                      return d.Op("scale", {x});
                    }},
        SparkOpCase{"minmax_two_phase",
                    [](HopDag& d, HopPtr x, HopPtr) {
                      return d.Op("minmax", {x});
                    }},
        SparkOpCase{"imputeMean_two_phase",
                    [](HopDag& d, HopPtr x, HopPtr) {
                      return d.Op("imputeMean", {x});
                    }},
        SparkOpCase{"chained_pipeline",
                    [](HopDag& d, HopPtr x, HopPtr v) {
                      auto normalized = d.Op("scale", {x});
                      auto shifted = d.Op("+", {normalized, v});
                      return d.Op("tsmm", {d.Op("relu", {shifted})});
                    }}),
    [](const ::testing::TestParamInfo<SparkOpCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace memphis
