// Tests of the multi-layer functional MoE model: content-dependent gate
// routing per layer, residual stacking, and executor-equivalence through the
// whole stack.
#include <gtest/gtest.h>

#include "baselines/megatron.h"
#include "core/comet_executor.h"
#include "runtime/moe_model.h"
#include "util/check.h"

namespace comet {
namespace {

ModelConfig StackModel(int64_t layers) {
  ModelConfig model;
  model.name = "stack";
  model.layers = layers;
  model.num_experts = 8;
  model.topk = 2;
  model.embedding = 32;
  model.ffn_hidden = 48;
  return model;
}

TEST(MoeModel, CometStackBitExactVsReference) {
  const MoeModel m(StackModel(3), ParallelConfig{2, 2}, 32);
  const auto inputs = m.MakeInputs(5);
  const auto expected = m.ReferenceForward(inputs);
  CometExecutor comet;
  const auto got = m.Forward(comet, H800Cluster(4), inputs);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t g = 0; g < got.size(); ++g) {
    EXPECT_EQ(Tensor::MaxAbsDiff(got[g], expected[g]), 0.0f) << "group " << g;
  }
}

TEST(MoeModel, BaselineStackMatchesCometStack) {
  const MoeModel m(StackModel(2), ParallelConfig{1, 4}, 32);
  const auto inputs = m.MakeInputs(6);
  CometExecutor comet;
  MegatronExecutor megatron = MakeMegatronCutlass();
  const auto a = m.Forward(comet, H800Cluster(4), inputs);
  const auto b = m.Forward(megatron, H800Cluster(4), inputs);
  ASSERT_EQ(a.size(), b.size());
  for (size_t g = 0; g < a.size(); ++g) {
    EXPECT_EQ(Tensor::MaxAbsDiff(a[g], b[g]), 0.0f);
  }
}

TEST(MoeModel, RoutingIsContentDependentAcrossLayers) {
  const MoeModel m(StackModel(2), ParallelConfig{1, 2}, 24);
  const auto inputs = m.MakeInputs(7);
  const MoeWorkload w0 = m.LayerWorkload(0, inputs);
  // Feed layer 0's reference output into layer 1: routing must differ (the
  // activations changed and so did the gate weights).
  const auto mid = m.ReferenceForward(inputs);  // full stack, fine for diff
  const MoeWorkload w1 = m.LayerWorkload(1, mid);
  bool any_difference = false;
  for (size_t t = 0; t < w0.routing.tokens.size(); ++t) {
    if (w0.routing.tokens[t].experts != w1.routing.tokens[t].experts) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(MoeModel, CommBufferIndependentOfDepthAndExperts) {
  const MoeModel shallow(StackModel(1), ParallelConfig{1, 2}, 64);
  ModelConfig wide = StackModel(8);
  wide.num_experts = 64;
  wide.topk = 4;
  const MoeModel deep(wide, ParallelConfig{1, 2}, 64);
  // One shared buffer across layers and experts (Table 3): same M x N plan.
  EXPECT_DOUBLE_EQ(shallow.comm_plan().Bytes(), deep.comm_plan().Bytes());
  EXPECT_GT(shallow.comm_plan().Bytes(), 0.0);
}

TEST(MoeModel, RejectsUnevenTokenSharding) {
  EXPECT_THROW(MoeModel(StackModel(1), ParallelConfig{1, 4}, 30), CheckError);
}

TEST(MoeModel, DeterministicAcrossRuns) {
  const MoeModel m(StackModel(2), ParallelConfig{1, 2}, 16);
  const auto inputs = m.MakeInputs(9);
  const auto a = m.ReferenceForward(inputs);
  const auto b = m.ReferenceForward(inputs);
  for (size_t g = 0; g < a.size(); ++g) {
    EXPECT_EQ(Tensor::MaxAbsDiff(a[g], b[g]), 0.0f);
  }
}

}  // namespace
}  // namespace comet
