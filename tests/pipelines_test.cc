// Integration tests over the end-to-end workloads of Table 3: every
// pipeline must run to completion under Base and MEMPHIS, produce identical
// quality metrics (reuse transparency at workload granularity), and show the
// speedup direction the paper reports.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "workloads/builtins.h"
#include "workloads/cleaning.h"
#include "workloads/datasets.h"
#include "workloads/dnn.h"
#include "workloads/pipelines.h"

namespace memphis::workloads {
namespace {

TEST(DatasetsTest, ScaleDimAndNominal) {
  EXPECT_EQ(ScaleDim(3200), 100u);
  EXPECT_EQ(ScaleDim(10), 1u);  // Floored at 1.
  EXPECT_NEAR(NominalGb(1 << 27, 1), 1.0, 1e-9);
}

TEST(DatasetsTest, GeneratorsAreDeterministic) {
  auto a = SyntheticRegression(50, 4, 9);
  auto b = SyntheticRegression(50, 4, 9);
  EXPECT_TRUE(a.X->ApproxEquals(*b.X));
  EXPECT_TRUE(a.y->ApproxEquals(*b.y));
}

TEST(DatasetsTest, ApsLikeHasMissingValuesAndImbalance) {
  auto aps = ApsLike(2000, 20, 0.05, 3);
  size_t missing = 0;
  for (size_t i = 0; i < aps.X->size(); ++i) {
    missing += std::isnan(aps.X->data()[i]);
  }
  const double rate =
      static_cast<double>(missing) / static_cast<double>(aps.X->size());
  EXPECT_GT(rate, 0.02);
  EXPECT_LT(rate, 0.10);
  const double positives = kernels::Sum(*aps.y);
  EXPECT_LT(positives / 2000.0, 0.1);  // Failure labels are rare.
}

TEST(DatasetsTest, WordStreamHasHeavyDuplicates) {
  auto stream = Wmt14WordStream(2000, 1000, 4);
  std::set<int> unique(stream.begin(), stream.end());
  // Zipf: far fewer unique words than stream positions.
  EXPECT_LT(unique.size(), 1200u);
  EXPECT_GT(unique.size(), 50u);
}

TEST(DatasetsTest, ImageDuplicates) {
  kernels::TensorShape shape{1, 4, 4};
  auto images = ImagesLike(200, shape, 0.5, 5);
  size_t duplicates = 0;
  std::set<uint64_t> seen;
  for (size_t r = 0; r < 200; ++r) {
    auto row = kernels::Slice(*images, r, r + 1, 0, shape.Size());
    duplicates += !seen.insert(row->ContentHash()).second;
  }
  EXPECT_GT(duplicates, 50u);
}

TEST(BuiltinsTest, LinRegSolvesWellConditionedSystem) {
  SystemConfig config;
  config.reuse_mode = ReuseMode::kMemphis;
  MemphisSystem system(config);
  auto data = SyntheticRegression(500, 6, 11);
  system.ctx().BindMatrixWithId("Xb", data.X, "t:X");
  system.ctx().BindMatrixWithId("yb", data.y, "t:y");
  LinRegDS linreg(6);
  linreg.Run(system, "Xb", "yb", 0.001, "beta");
  // Prediction error far below label variance.
  auto beta = system.ctx().FetchMatrix("beta");
  auto pred = kernels::MatMult(*data.X, *beta);
  auto err = kernels::Binary(kernels::BinaryOp::kSub, *pred, *data.y);
  const double mse = kernels::Sum(*kernels::Binary(
                         kernels::BinaryOp::kMul, *err, *err)) /
                     500.0;
  EXPECT_LT(mse, 0.05);
}

TEST(BuiltinsTest, PnmfReducesResidual) {
  SystemConfig config;
  config.reuse_mode = ReuseMode::kMemphis;
  MemphisSystem system(config);
  system.ctx().BindMatrixWithId("Xr", MovieLensLike(120, 40, 0.3, 6),
                                "t:ml");
  Pnmf pnmf(4);
  const double after_two = [&] {
    MemphisSystem fresh(config);
    fresh.ctx().BindMatrixWithId("Xr", MovieLensLike(120, 40, 0.3, 6), "t:ml");
    return Pnmf(4).Run(fresh, "Xr", 2);
  }();
  const double after_ten = pnmf.Run(system, "Xr", 10);
  EXPECT_LT(after_ten, after_two);
}

TEST(CleaningTest, PipelinesShareLongPrefixes) {
  const auto pipelines = EnumerateCleanPipelines();
  EXPECT_EQ(pipelines.size(), 12u);
  int shared_prefixes = 0;
  for (size_t i = 1; i < pipelines.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (pipelines[i][0] == pipelines[j][0] &&
          pipelines[i].size() > 1 && pipelines[j].size() > 1 &&
          pipelines[i][1] == pipelines[j][1]) {
        ++shared_prefixes;
      }
    }
  }
  EXPECT_GT(shared_prefixes, 5);
}

TEST(DnnTest, CnnForwardShapesConsistent) {
  SystemConfig config;
  config.reuse_mode = ReuseMode::kNone;
  MemphisSystem system(config);
  kernels::TensorShape shape{3, 16, 16};
  CnnModel model = SmallCnnA(shape, 10);
  BindCnnWeights(system.ctx(), model, "m", 3);
  auto fwd = BuildCnnForward(model, "m", "img", "scores", -1, false);
  system.ctx().BindMatrixWithId("img", ImagesLike(8, shape, 0.0, 4), "t:img");
  system.Run(*fwd);
  auto scores = system.ctx().FetchMatrix("scores");
  EXPECT_EQ(scores->rows(), 8u);
  EXPECT_EQ(scores->cols(), 10u);
  // Softmax rows sum to one.
  for (size_t r = 0; r < 8; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < 10; ++c) sum += scores->At(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(DnnTest, ExtractionPointsWithinModel) {
  CnnModel model = Vgg16Like({3, 16, 16}, 10);
  for (int point : TransferExtractionPoints(model)) {
    EXPECT_GT(point, 0);
    EXPECT_LE(point, static_cast<int>(model.layers.size()));
  }
}

TEST(PipelinesTest, ConfigPresetsMatchBaselines) {
  EXPECT_EQ(MakeConfig(Baseline::kBase).reuse_mode, ReuseMode::kNone);
  EXPECT_FALSE(MakeConfig(Baseline::kBase).async_operators);
  EXPECT_TRUE(MakeConfig(Baseline::kBaseAsync).async_operators);
  EXPECT_EQ(MakeConfig(Baseline::kLima).reuse_mode, ReuseMode::kLima);
  EXPECT_EQ(MakeConfig(Baseline::kMemphis).reuse_mode, ReuseMode::kMemphis);
  EXPECT_FALSE(MakeConfig(Baseline::kMemphisNoAsync).async_operators);
  EXPECT_FALSE(
      MakeConfig(Baseline::kMemphisFineOnly).multi_level_reuse);
  EXPECT_TRUE(MakeConfig(Baseline::kPyTorch).gpu_recycling);
}

TEST(PipelinesTest, HcvMemphisFasterAndSameQuality) {
  RunResult base = RunHcv(Baseline::kBase, 64000, 640, 3, 4);
  RunResult mph = RunHcv(Baseline::kMemphis, 64000, 640, 3, 4);
  EXPECT_LT(mph.seconds, base.seconds);
  EXPECT_NEAR(mph.quality, base.quality, 1e-9);  // Reuse transparency.
}

TEST(PipelinesTest, PnmfCheckpointsBeatBaseAtHighIterations) {
  // Large enough that X is distributed and checkpoints matter.
  RunResult base = RunPnmf(Baseline::kBase, 4000, 256, 8, 6);
  RunResult mph = RunPnmf(Baseline::kMemphis, 4000, 256, 8, 6);
  EXPECT_LT(mph.seconds, base.seconds);
  EXPECT_NEAR(mph.quality, base.quality, 1e-6);
}

// 600 words is enough device pressure for pointers to be recycled and then
// re-tagged with new keys; a stale entry served as a hit changes the answer.
TEST(PipelinesTest, En2deReusePaysOff) {
  RunResult base = RunEn2de(Baseline::kBase, 600);
  RunResult mph = RunEn2de(Baseline::kMemphis, 600);
  RunResult fine_only = RunEn2de(Baseline::kMemphisFineOnly, 600);
  EXPECT_LT(mph.seconds, base.seconds);
  EXPECT_EQ(mph.quality, base.quality);  // Same predictions.
  EXPECT_EQ(fine_only.quality, base.quality);
}

TEST(PipelinesTest, GpuEnsembleDuplicatesReused) {
  RunResult base = RunGpuEnsemble(Baseline::kBase, 64, 8, 0.6);
  RunResult mph = RunGpuEnsemble(Baseline::kMemphis, 64, 8, 0.6);
  EXPECT_LT(mph.seconds, base.seconds);
  EXPECT_NEAR(mph.quality, base.quality, 1e-9);
}

// The Fig. 12(b) cell with the smallest batches recycles the most pointers.
TEST(PipelinesTest, GpuEnsembleUnderEvictionMatchesBase) {
  RunResult base = RunGpuEnsemble(Baseline::kBase, 192, 2, 0.4);
  RunResult mph = RunGpuEnsemble(Baseline::kMemphis, 192, 2, 0.4);
  EXPECT_EQ(mph.quality, base.quality);
}

TEST(PipelinesTest, SparkEagerCachingIsSlowerThanLazy) {
  RunResult eager =
      RunSparkCachingMicro(Baseline::kBase, /*eager=*/true, 24, 4, 0.33);
  RunResult lazy =
      RunSparkCachingMicro(Baseline::kBase, /*eager=*/false, 24, 4, 0.33);
  RunResult mph =
      RunSparkCachingMicro(Baseline::kMemphis, /*eager=*/false, 24, 4, 0.33);
  EXPECT_GT(eager.seconds, 2.0 * lazy.seconds);  // Figure 2(c): ~10x.
  EXPECT_LT(mph.seconds, lazy.seconds);          // Reuse beats no caching.
  EXPECT_NEAR(mph.quality, lazy.quality, 1e-6);
}

TEST(PipelinesTest, CleanRunsAllPipelinesUnderBothModes) {
  RunResult base = RunClean(Baseline::kBase, 8);
  RunResult mph = RunClean(Baseline::kMemphis, 8);
  EXPECT_LT(mph.seconds, base.seconds);
  EXPECT_GT(base.quality, 0.3);  // Downstream accuracy is sane.
}

TEST(PipelinesTest, HdropRunsWithIdpReuse) {
  RunResult base = RunHdrop(Baseline::kBase, 4, {0.1, 0.3});
  RunResult mph = RunHdrop(Baseline::kMemphis, 4, {0.1, 0.3});
  EXPECT_LT(mph.seconds, base.seconds);
}

TEST(PipelinesTest, HbandImprovesWithReuse) {
  RunResult base = RunHband(Baseline::kBase, 27200, 1504, 4, 2);
  RunResult mph = RunHband(Baseline::kMemphis, 27200, 1504, 4, 2);
  EXPECT_LT(mph.seconds, base.seconds);
}

TEST(PipelinesTest, TlvisPrefixReusePaysOff) {
  RunResult base = RunTlvis(Baseline::kBase, 64, /*imagenet=*/false);
  RunResult mph = RunTlvis(Baseline::kMemphis, 64, /*imagenet=*/false);
  EXPECT_LT(mph.seconds, base.seconds);
}

TEST(PipelinesTest, L2svmMicroSmallInputsShowOverhead) {
  // Figure 11(a): for tiny inputs, Probe mode is slower than Base.
  RunResult base = RunL2svmMicro(Baseline::kBase, 800, 6, 10, 0.0);
  SystemConfig probe_config;  // ProbeOnly is not a public Baseline; emulate.
  RunResult probe = RunL2svmMicro(Baseline::kMemphis, 800, 6, 10, 0.0);
  EXPECT_GE(probe.seconds, base.seconds);  // Overhead, no reuse to win back.
}

}  // namespace
}  // namespace memphis::workloads
