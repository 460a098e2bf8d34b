// Tests of the multi-node hierarchy: cluster topology helpers, tier-aware
// collective costs, the 2D-hierarchical all-to-all, and the fused kernels'
// behaviour when expert parallelism spans nodes.
#include <gtest/gtest.h>

#include "comm/collectives.h"
#include "core/comet_executor.h"
#include "core/fused_kernel.h"
#include "exec/op_costs.h"
#include "hw/gpu_spec.h"
#include "moe/workload.h"
#include "util/check.h"

namespace comet {
namespace {

std::vector<std::vector<double>> UniformBytes(int world, double per_pair) {
  return std::vector<std::vector<double>>(
      static_cast<size_t>(world),
      std::vector<double>(static_cast<size_t>(world), per_pair));
}

MoeWorkload Workload(int tp, int ep, int64_t tokens, int64_t experts = 16) {
  ModelConfig model;
  model.name = "mn-test";
  model.layers = 1;
  model.num_experts = experts;
  model.topk = 2;
  model.embedding = 4096;
  model.ffn_hidden = 14336;
  WorkloadOptions options;
  options.seed = 3;
  options.materialize = false;
  return MakeWorkload(model, ParallelConfig{tp, ep}, tokens, options);
}

// ---- topology -----------------------------------------------------------------

TEST(MultiNodeCluster, SingleNodeDefaults) {
  const ClusterSpec c = H800Cluster(8);
  EXPECT_FALSE(c.IsMultiNode());
  EXPECT_EQ(c.GpusPerNode(), 8);
  EXPECT_EQ(c.NumNodes(), 1);
  EXPECT_TRUE(c.SameNode(0, 7));
}

TEST(MultiNodeCluster, TopologyHelpers) {
  const ClusterSpec c = MultiNodeH800Cluster(4, 8);
  EXPECT_TRUE(c.IsMultiNode());
  EXPECT_EQ(c.world_size, 32);
  EXPECT_EQ(c.NumNodes(), 4);
  EXPECT_EQ(c.NodeOfRank(0), 0);
  EXPECT_EQ(c.NodeOfRank(7), 0);
  EXPECT_EQ(c.NodeOfRank(8), 1);
  EXPECT_EQ(c.NodeOfRank(31), 3);
  EXPECT_TRUE(c.SameNode(0, 7));
  EXPECT_FALSE(c.SameNode(7, 8));
}

TEST(MultiNodeCluster, InterLinkSlowerThanNvlink) {
  const ClusterSpec c = MultiNodeH800Cluster(2);
  EXPECT_LT(c.inter_link.bandwidth_bytes_per_us,
            c.link.bandwidth_bytes_per_us);
  EXPECT_GT(c.inter_link.latency_us, c.link.latency_us);
}

TEST(MultiNodeCluster, InvalidNodeSplitRejected) {
  ClusterSpec c = H800Cluster(8);
  c.gpus_per_node = 3;  // does not divide 8
  EXPECT_THROW(c.NumNodes(), CheckError);
}

TEST(MultiNodeCluster, RankOutOfRangeRejected) {
  const ClusterSpec c = MultiNodeH800Cluster(2);
  EXPECT_THROW(c.NodeOfRank(-1), CheckError);
  EXPECT_THROW(c.NodeOfRank(16), CheckError);
}

// ---- collective costs -----------------------------------------------------------

TEST(MultiNodeCollectives, AllToAllSlowerAcrossNodes) {
  const int world = 16;
  const auto bytes = UniformBytes(world, 1 << 20);
  const double single = AllToAllCostUs(H800Cluster(world), bytes);
  const double multi = AllToAllCostUs(MultiNodeH800Cluster(2, 8), bytes);
  EXPECT_GT(multi, single);
}

TEST(MultiNodeCollectives, InterNodeFraction) {
  const ClusterSpec c = MultiNodeH800Cluster(4, 8);
  const auto bytes = UniformBytes(32, 1.0);
  // 31 off-diagonal peers per rank, 24 of them off-node.
  EXPECT_NEAR(InterNodeByteFraction(c, bytes), 24.0 / 31.0, 1e-12);
  EXPECT_DOUBLE_EQ(
      InterNodeByteFraction(H800Cluster(8), UniformBytes(8, 1.0)), 0.0);
}

TEST(MultiNodeCollectives, HierarchicalBeatsDirectAtScale) {
  const ClusterSpec c = MultiNodeH800Cluster(8, 8);
  const auto bytes = UniformBytes(64, 256.0 * 1024.0);
  const double direct = AllToAllCostUs(c, bytes);
  const double hier = HierarchicalAllToAllCostUs(c, bytes);
  EXPECT_LT(hier, direct);
}

TEST(MultiNodeCollectives, HierarchicalFallsBackOnSingleNode) {
  const ClusterSpec c = H800Cluster(8);
  const auto bytes = UniformBytes(8, 1 << 20);
  EXPECT_DOUBLE_EQ(HierarchicalAllToAllCostUs(c, bytes),
                   AllToAllCostUs(c, bytes));
}

TEST(MultiNodeCollectives, ZeroTrafficCostsNothing) {
  const ClusterSpec c = MultiNodeH800Cluster(2);
  const auto bytes = UniformBytes(16, 0.0);
  EXPECT_DOUBLE_EQ(AllToAllCostUs(c, bytes), 0.0);
}

TEST(MultiNodeCollectives, IntraNodeOnlyTrafficUsesNvlinkTerms) {
  const ClusterSpec c = MultiNodeH800Cluster(2, 8);
  auto bytes = UniformBytes(16, 0.0);
  // Traffic only inside node 0.
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      if (i != j) {
        bytes[static_cast<size_t>(i)][static_cast<size_t>(j)] = 1 << 20;
      }
    }
  }
  const double multi = AllToAllCostUs(c, bytes);
  // Must not pay the IB latency/sync: strictly below the same traffic when
  // it crosses nodes.
  auto cross = UniformBytes(16, 0.0);
  for (int i = 0; i < 8; ++i) {
    for (int j = 8; j < 16; ++j) {
      cross[static_cast<size_t>(i)][static_cast<size_t>(j)] = 1 << 20;
    }
  }
  EXPECT_LT(multi, AllToAllCostUs(c, cross));
}

// ---- fused kernels across nodes --------------------------------------------------

TEST(MultiNodeFusedKernel, Layer0CommSlowerWhenEpSpansNodes) {
  const MoeWorkload w = Workload(1, 16, 8192);
  FusedKernelConfig config;
  config.comm_blocks = 16;
  const ClusterSpec single = H800Cluster(16);
  const ClusterSpec multi = MultiNodeH800Cluster(2, 8);
  config.total_blocks = single.gpu.num_sms;
  const auto a = SimulateLayer0Fused(w.plan, 0, OpCostModel(single), config);
  const auto b = SimulateLayer0Fused(w.plan, 0, OpCostModel(multi), config);
  EXPECT_EQ(a.comm_bytes, b.comm_bytes);  // same traffic volume
  EXPECT_GT(b.comm_makespan_us, a.comm_makespan_us);  // slower fabric
}

TEST(MultiNodeFusedKernel, Layer1CommSlowerWhenEpSpansNodes) {
  const MoeWorkload w = Workload(1, 16, 8192);
  FusedKernelConfig config;
  config.comm_blocks = 24;
  const ClusterSpec single = H800Cluster(16);
  const ClusterSpec multi = MultiNodeH800Cluster(2, 8);
  config.total_blocks = single.gpu.num_sms;
  const auto a = SimulateLayer1Fused(w.plan, 0, OpCostModel(single), config);
  const auto b = SimulateLayer1Fused(w.plan, 0, OpCostModel(multi), config);
  EXPECT_GT(b.comm_makespan_us, a.comm_makespan_us);
}

TEST(MultiNodeFusedKernel, CometExecutorRunsOnMultiNode) {
  const MoeWorkload w = Workload(1, 16, 4096);
  CometExecutor comet;
  const auto single = comet.Run(w, H800Cluster(16), ExecMode::kTimedOnly);
  const auto multi =
      comet.Run(w, MultiNodeH800Cluster(2, 8), ExecMode::kTimedOnly);
  EXPECT_GT(multi.duration_us, 0.0);
  // The slower fabric can only hurt.
  EXPECT_GE(multi.duration_us, single.duration_us);
}

}  // namespace
}  // namespace comet
