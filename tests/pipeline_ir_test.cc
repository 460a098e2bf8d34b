// Tests of the pipeline IR: the generalized dependency-resolving analysis
// must recover the paper's §3.1 conclusions for all four MoE pipelines and
// behave sensibly on arbitrary graphs.
#include <gtest/gtest.h>

#include "core/pipeline_ir.h"
#include "util/check.h"

namespace comet {
namespace {

// ---- canonical MoE graphs -----------------------------------------------------

TEST(PipelineIr, Layer0DecomposesAlongMWithArrivalOrder) {
  const auto pipelines =
      ResolveOverlapPipelines(MoeLayer0Graph(1024, 4096, 14336));
  ASSERT_EQ(pipelines.size(), 1u);
  const ResolvedPipeline& p = pipelines.front();
  EXPECT_EQ(p.shared_tensor, "A");
  EXPECT_EQ(p.producer, "dispatch");
  ASSERT_EQ(p.legal.size(), 1u);
  EXPECT_EQ(p.legal.front(), DecomposeDim::kM);
  ASSERT_TRUE(p.chosen.has_value());
  EXPECT_EQ(*p.chosen, DecomposeDim::kM);
  EXPECT_EQ(p.hint, RescheduleHint::kArrivalOrder);
}

TEST(PipelineIr, Layer1DecomposesAlongNWithPanelMajor) {
  const auto pipelines =
      ResolveOverlapPipelines(MoeLayer1Graph(1024, 4096, 14336));
  ASSERT_EQ(pipelines.size(), 1u);
  const ResolvedPipeline& p = pipelines.front();
  EXPECT_EQ(p.shared_tensor, "Y");
  ASSERT_EQ(p.legal.size(), 1u);
  EXPECT_EQ(p.legal.front(), DecomposeDim::kN);
  EXPECT_EQ(p.hint, RescheduleHint::kPanelMajor);
}

TEST(PipelineIr, BackwardKernelAMirrorsLayer0) {
  const auto pipelines =
      ResolveOverlapPipelines(MoeBackwardKernelAGraph(1024, 4096, 14336));
  ASSERT_EQ(pipelines.size(), 1u);
  EXPECT_EQ(pipelines.front().shared_tensor, "dY");
  EXPECT_EQ(*pipelines.front().chosen, DecomposeDim::kM);
  EXPECT_EQ(pipelines.front().hint, RescheduleHint::kArrivalOrder);
}

TEST(PipelineIr, BackwardKernelBMirrorsLayer1) {
  const auto pipelines =
      ResolveOverlapPipelines(MoeBackwardKernelBGraph(1024, 4096, 14336));
  ASSERT_EQ(pipelines.size(), 1u);
  EXPECT_EQ(pipelines.front().shared_tensor, "dA");
  EXPECT_EQ(*pipelines.front().chosen, DecomposeDim::kN);
  EXPECT_EQ(pipelines.front().hint, RescheduleHint::kPanelMajor);
}

TEST(PipelineIr, CheckOverlapPipelineRejectsAnyOtherConclusion) {
  const PipelineGraph layer0 = MoeLayer0Graph(256, 64, 128);
  EXPECT_NO_THROW(CheckOverlapPipeline(layer0, DecomposeDim::kM,
                                       RescheduleHint::kArrivalOrder));
  EXPECT_THROW(CheckOverlapPipeline(layer0, DecomposeDim::kN,
                                    RescheduleHint::kArrivalOrder),
               CheckError);
  EXPECT_THROW(CheckOverlapPipeline(layer0, DecomposeDim::kM,
                                    RescheduleHint::kPanelMajor),
               CheckError);
  // Same-domain edges only: nothing to overlap.
  PipelineGraph g;
  g.AddTensor("x", 64, 64).AddTensor("y", 64, 64);
  g.AddOp({.name = "scale",
           .domain = OpDomain::kCompute,
           .reads = {{"x", AxisRole::kParallel, AxisRole::kParallel}},
           .writes = {{"y", AxisRole::kParallel, AxisRole::kParallel}}});
  EXPECT_THROW(
      CheckOverlapPipeline(g, DecomposeDim::kM, RescheduleHint::kNone),
      CheckError);
}

TEST(PipelineIr, Layer0FullAnalysisIncludesSameDomainEdges) {
  const auto all = ResolvePipelines(MoeLayer0Graph(256, 64, 128));
  // A (dispatch -> gemm) and H (gemm -> activation); Z and tokens are graph
  // boundary tensors.
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].shared_tensor, "A");
  EXPECT_TRUE(all[0].crosses_domains);
  EXPECT_EQ(all[1].shared_tensor, "H");
  EXPECT_FALSE(all[1].crosses_domains);
  EXPECT_EQ(all[1].hint, RescheduleHint::kNone);
}

// ---- generic graphs -----------------------------------------------------------

TEST(PipelineIr, ElementwiseConsumerAllowsBothAxesPrefersM) {
  PipelineGraph g;
  g.AddTensor("x", 64, 64).AddTensor("y", 64, 64);
  g.AddOp({.name = "recv",
           .domain = OpDomain::kCommunication,
           .reads = {},
           .writes = {{"x", AxisRole::kParallel, AxisRole::kParallel}}});
  g.AddOp({.name = "scale",
           .domain = OpDomain::kCompute,
           .reads = {{"x", AxisRole::kParallel, AxisRole::kParallel}},
           .writes = {{"y", AxisRole::kParallel, AxisRole::kParallel}}});
  const auto pipelines = ResolveOverlapPipelines(g);
  ASSERT_EQ(pipelines.size(), 1u);
  EXPECT_EQ(pipelines.front().legal.size(), 2u);
  EXPECT_EQ(*pipelines.front().chosen, DecomposeDim::kM);
}

TEST(PipelineIr, FullReductionConsumerHasNoLegalAxis) {
  PipelineGraph g;
  g.AddTensor("x", 64, 64).AddTensor("s", 1, 1);
  g.AddOp({.name = "recv",
           .domain = OpDomain::kCommunication,
           .reads = {},
           .writes = {{"x", AxisRole::kParallel, AxisRole::kParallel}}});
  g.AddOp({.name = "global_sum",
           .domain = OpDomain::kCompute,
           .reads = {{"x", AxisRole::kReduce, AxisRole::kReduce}},
           .writes = {{"s", AxisRole::kParallel, AxisRole::kParallel}}});
  const auto pipelines = ResolveOverlapPipelines(g);
  ASSERT_EQ(pipelines.size(), 1u);
  EXPECT_TRUE(pipelines.front().legal.empty());
  EXPECT_FALSE(pipelines.front().chosen.has_value());
  EXPECT_EQ(pipelines.front().hint, RescheduleHint::kNone);
}

TEST(PipelineIr, MultiConsumerLegalityIsIntersection) {
  PipelineGraph g;
  g.AddTensor("x", 64, 64).AddTensor("a", 64, 64).AddTensor("b", 64, 64);
  g.AddOp({.name = "recv",
           .domain = OpDomain::kCommunication,
           .reads = {},
           .writes = {{"x", AxisRole::kParallel, AxisRole::kParallel}}});
  // Consumer 1 reduces columns (rows legal); consumer 2 reduces rows
  // (columns legal): intersection empty.
  g.AddOp({.name = "row_gemm",
           .domain = OpDomain::kCompute,
           .reads = {{"x", AxisRole::kParallel, AxisRole::kReduce}},
           .writes = {{"a", AxisRole::kParallel, AxisRole::kParallel}}});
  g.AddOp({.name = "col_reduce",
           .domain = OpDomain::kCompute,
           .reads = {{"x", AxisRole::kReduce, AxisRole::kParallel}},
           .writes = {{"b", AxisRole::kParallel, AxisRole::kParallel}}});
  const auto pipelines = ResolveOverlapPipelines(g);
  ASSERT_EQ(pipelines.size(), 1u);
  EXPECT_TRUE(pipelines.front().legal.empty());
  ASSERT_EQ(pipelines.front().consumers.size(), 2u);
}

TEST(PipelineIr, BroadcastConsumerBlocksAxis) {
  PipelineGraph g;
  g.AddTensor("x", 8, 8).AddTensor("y", 8, 8);
  g.AddOp({.name = "recv",
           .domain = OpDomain::kCommunication,
           .reads = {},
           .writes = {{"x", AxisRole::kParallel, AxisRole::kParallel}}});
  g.AddOp({.name = "softmax_rows",
           .domain = OpDomain::kCompute,
           .reads = {{"x", AxisRole::kParallel, AxisRole::kBroadcast}},
           .writes = {{"y", AxisRole::kParallel, AxisRole::kParallel}}});
  const auto pipelines = ResolveOverlapPipelines(g);
  ASSERT_EQ(pipelines.size(), 1u);
  ASSERT_EQ(pipelines.front().legal.size(), 1u);
  EXPECT_EQ(pipelines.front().legal.front(), DecomposeDim::kM);
}

// ---- validation ---------------------------------------------------------------

TEST(PipelineIr, RejectsUndeclaredTensor) {
  PipelineGraph g;
  g.AddTensor("x", 8, 8);
  g.AddOp({.name = "bad",
           .domain = OpDomain::kCompute,
           .reads = {{"ghost", AxisRole::kParallel, AxisRole::kParallel}},
           .writes = {{"x", AxisRole::kParallel, AxisRole::kParallel}}});
  EXPECT_THROW(g.Validate(), CheckError);
}

TEST(PipelineIr, RejectsDoubleWriter) {
  PipelineGraph g;
  g.AddTensor("x", 8, 8);
  const PipelineOp writer{.name = "w",
                          .domain = OpDomain::kCompute,
                          .reads = {},
                          .writes = {{"x", AxisRole::kParallel,
                                      AxisRole::kParallel}}};
  PipelineOp writer2 = writer;
  writer2.name = "w2";
  g.AddOp(writer).AddOp(writer2);
  EXPECT_THROW(g.Validate(), CheckError);
}

TEST(PipelineIr, RejectsReadWriteAliasing) {
  PipelineGraph g;
  g.AddTensor("x", 8, 8);
  g.AddOp({.name = "inplace",
           .domain = OpDomain::kCompute,
           .reads = {{"x", AxisRole::kParallel, AxisRole::kParallel}},
           .writes = {{"x", AxisRole::kParallel, AxisRole::kParallel}}});
  EXPECT_THROW(g.Validate(), CheckError);
}

TEST(PipelineIr, RejectsDuplicateTensorDecl) {
  PipelineGraph g;
  g.AddTensor("x", 8, 8);
  EXPECT_THROW(g.AddTensor("x", 4, 4), CheckError);
}

TEST(PipelineIr, DescribeMentionsDecomposition) {
  const auto pipelines =
      ResolveOverlapPipelines(MoeLayer0Graph(256, 64, 128));
  const std::string text = DescribePipelines(pipelines);
  EXPECT_NE(text.find("dispatch"), std::string::npos);
  EXPECT_NE(text.find("decompose along M"), std::string::npos);
  EXPECT_NE(text.find("arrival-order"), std::string::npos);
}

TEST(PipelineIr, NamesAreStable) {
  EXPECT_EQ(RescheduleHintName(RescheduleHint::kArrivalOrder),
            "arrival-order");
  EXPECT_EQ(RescheduleHintName(RescheduleHint::kPanelMajor), "panel-major");
  EXPECT_EQ(DecomposeDimName(DecomposeDim::kM), "M");
  EXPECT_EQ(DecomposeDimName(DecomposeDim::kN), "N");
}

}  // namespace
}  // namespace comet
