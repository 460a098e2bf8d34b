// Tests of the COMET-scheduled backward: bit-exactness of the rescheduled
// functional path against the sharded reference, and timing-plane properties
// of the mirrored fused kernels.
#include <gtest/gtest.h>

#include "core/comet_backward.h"
#include "moe/backward.h"
#include "moe/workload.h"
#include "tests/gradient_helpers.h"
#include "util/check.h"

namespace comet {
namespace {

ModelConfig SmallModel() {
  ModelConfig model;
  model.name = "bwd-core";
  model.layers = 1;
  model.num_experts = 8;
  model.topk = 2;
  model.embedding = 32;
  model.ffn_hidden = 48;
  return model;
}

MoeWorkload SmallWorkload(int tp, int ep, int64_t tokens,
                          bool materialize = true) {
  WorkloadOptions options;
  options.seed = 19;
  options.materialize = materialize;
  return MakeWorkload(SmallModel(), ParallelConfig{tp, ep}, tokens, options);
}

ModelConfig PaperScaleModel() {
  ModelConfig model;
  model.name = "bwd-paper";
  model.layers = 1;
  model.num_experts = 8;
  model.topk = 2;
  model.embedding = 4096;
  model.ffn_hidden = 14336;
  return model;
}

// ---- functional: schedule never changes gradients ---------------------------

class CometBackwardFunctionalTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CometBackwardFunctionalTest, BitExactVsShardedReference) {
  const auto [tp, ep] = GetParam();
  const MoeWorkload w = SmallWorkload(tp, ep, 24);
  const auto dout = MakeLossGradient(w, 23);
  const MoeGradients expected = ShardedReferenceMoeBackward(w, dout);
  const BackwardExecution run = CometBackward(
      w, H800Cluster(w.world()), dout, ExecMode::kFunctional);
  EXPECT_EQ(MaxGradientDiff(expected, run.grads), 0.0f)
      << "tp=" << tp << " ep=" << ep;
}

INSTANTIATE_TEST_SUITE_P(
    Parallelisms, CometBackwardFunctionalTest,
    ::testing::Values(std::pair<int, int>{1, 1}, std::pair<int, int>{1, 2},
                      std::pair<int, int>{1, 4}, std::pair<int, int>{2, 1},
                      std::pair<int, int>{2, 2}, std::pair<int, int>{4, 2},
                      std::pair<int, int>{2, 4}));

TEST(CometBackward, RescheduleOffAlsoBitExact) {
  const MoeWorkload w = SmallWorkload(2, 2, 24);
  const auto dout = MakeLossGradient(w, 29);
  const MoeGradients expected = ShardedReferenceMoeBackward(w, dout);
  CometOptions options;
  options.reschedule = false;
  const BackwardExecution run = CometBackward(
      w, H800Cluster(w.world()), dout, ExecMode::kFunctional, options);
  EXPECT_EQ(MaxGradientDiff(expected, run.grads), 0.0f);
}

TEST(CometBackward, SequentialFunctionalMatchesReference) {
  const MoeWorkload w = SmallWorkload(2, 2, 24);
  const auto dout = MakeLossGradient(w, 31);
  const MoeGradients expected = ShardedReferenceMoeBackward(w, dout);
  const BackwardExecution run = SequentialBackward(
      w, H800Cluster(w.world()), dout, ExecMode::kFunctional);
  EXPECT_EQ(MaxGradientDiff(expected, run.grads), 0.0f);
}

TEST(CometBackward, TimedOnlyLeavesGradientsEmpty) {
  const MoeWorkload w = SmallWorkload(1, 2, 16);
  const auto dout = MakeLossGradient(w, 5);
  const BackwardExecution run =
      CometBackward(w, H800Cluster(w.world()), dout, ExecMode::kTimedOnly);
  EXPECT_TRUE(run.grads.dinput.empty());
  EXPECT_TRUE(run.grads.dw0.empty());
  EXPECT_GT(run.duration_us, 0.0);
}

// ---- timing plane ------------------------------------------------------------

class CometBackwardTimingTest : public ::testing::Test {
 protected:
  // Timing-plane runs never touch tensor contents: paper-scale shapes with
  // materialize = false, dout passed empty.
  MoeWorkload Workload(int tp, int ep, int64_t tokens) const {
    WorkloadOptions options;
    options.seed = 7;
    options.materialize = false;
    return MakeWorkload(PaperScaleModel(), ParallelConfig{tp, ep}, tokens,
                        options);
  }
  const std::vector<Tensor> no_dout_;
};

TEST_F(CometBackwardTimingTest, FasterThanSequentialBackward) {
  for (int64_t m : {4096, 16384}) {
    const MoeWorkload w = Workload(1, 8, m);
    const ClusterSpec cluster = H800Cluster(8);
    const auto comet =
        CometBackward(w, cluster, no_dout_, ExecMode::kTimedOnly);
    const auto seq =
        SequentialBackward(w, cluster, no_dout_, ExecMode::kTimedOnly);
    EXPECT_LT(comet.duration_us, seq.duration_us) << "M=" << m;
  }
}

TEST_F(CometBackwardTimingTest, RescheduleNeverSlower) {
  const MoeWorkload w = Workload(1, 8, 8192);
  const ClusterSpec cluster = H800Cluster(8);
  CometOptions on;
  CometOptions off;
  off.reschedule = false;
  const auto fast =
      CometBackward(w, cluster, no_dout_, ExecMode::kTimedOnly, on);
  const auto slow =
      CometBackward(w, cluster, no_dout_, ExecMode::kTimedOnly, off);
  EXPECT_LE(fast.duration_us, slow.duration_us * (1.0 + 1e-9));
}

TEST_F(CometBackwardTimingTest, PerRankDurationsCoverWorld) {
  const MoeWorkload w = Workload(2, 4, 4096);
  const auto run = CometBackward(w, H800Cluster(8), no_dout_,
                                 ExecMode::kTimedOnly);
  ASSERT_EQ(run.per_rank_us.size(), 8u);
  double worst = 0.0;
  for (double d : run.per_rank_us) {
    EXPECT_GT(d, 0.0);
    worst = std::max(worst, d);
  }
  EXPECT_DOUBLE_EQ(run.duration_us, worst);
}

TEST_F(CometBackwardTimingTest, TimelineHasBackwardPhases) {
  const MoeWorkload w = Workload(2, 4, 4096);
  const auto run = CometBackward(w, H800Cluster(8), no_dout_,
                                 ExecMode::kTimedOnly);
  bool has_wgrad0 = false, has_wgrad1 = false, has_ag = false;
  for (const auto& interval : run.timeline.intervals()) {
    has_wgrad0 |= interval.label() == "wgrad0";
    has_wgrad1 |= interval.label() == "wgrad1";
    has_ag |= interval.label() == "dout-allgather";
  }
  EXPECT_TRUE(has_wgrad0);
  EXPECT_TRUE(has_wgrad1);
  EXPECT_TRUE(has_ag);  // tp = 2 > 1
}

TEST_F(CometBackwardTimingTest, PureTpHasNoAllToAllGradDispatch) {
  const MoeWorkload w = Workload(8, 1, 4096);
  const auto run = SequentialBackward(w, H800Cluster(8), no_dout_,
                                      ExecMode::kTimedOnly);
  for (const auto& interval : run.timeline.intervals()) {
    EXPECT_NE(interval.label(), "grad-a2a");
    EXPECT_NE(interval.label(), "grad-return-a2a");
  }
}

TEST_F(CometBackwardTimingTest, MismatchedClusterRejected) {
  const MoeWorkload w = Workload(1, 8, 2048);
  EXPECT_THROW(
      CometBackward(w, H800Cluster(4), no_dout_, ExecMode::kTimedOnly),
      CheckError);
}

TEST_F(CometBackwardTimingTest, BackwardCostsMoreThanForwardAlone) {
  // Backward does ~2x the GEMM flops of forward (dgrad + wgrad); its
  // duration must exceed a single forward pass of the same workload.
  const MoeWorkload w = Workload(1, 8, 8192);
  const ClusterSpec cluster = H800Cluster(8);
  CometExecutor fwd;
  const auto f = fwd.Run(w, cluster, ExecMode::kTimedOnly);
  const auto b = CometBackward(w, cluster, no_dout_, ExecMode::kTimedOnly);
  EXPECT_GT(b.duration_us, f.duration_us);
}

}  // namespace
}  // namespace comet
