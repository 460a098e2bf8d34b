// Unit tests for the hardware substrate: cluster presets and the GEMM cost
// model (tile time, wave quantization, K-efficiency, roofline floor).
#include <gtest/gtest.h>

#include "hw/gemm_cost.h"
#include "hw/gpu_spec.h"
#include "util/check.h"

namespace comet {
namespace {

TEST(ClusterPresets, H800Basics) {
  const ClusterSpec c = H800Cluster(8);
  EXPECT_EQ(c.world_size, 8);
  EXPECT_EQ(c.gpu.num_sms, 132);
  EXPECT_GT(c.gpu.peak_flops_per_us, 0.0);
  // In-kernel wire rate beats kernel-level collectives.
  EXPECT_GT(c.link.bandwidth_bytes_per_us,
            c.link.collective_bandwidth_bytes_per_us);
  EXPECT_GT(c.link.per_block_bandwidth_bytes_per_us,
            c.link.per_block_bandwidth_scattered_bytes_per_us);
}

TEST(ClusterPresets, L20IsBandwidthLimited) {
  const ClusterSpec h = H800Cluster(8);
  const ClusterSpec l = L20Cluster(8);
  EXPECT_LT(l.link.bandwidth_bytes_per_us, h.link.bandwidth_bytes_per_us);
  EXPECT_LT(l.gpu.peak_flops_per_us, h.gpu.peak_flops_per_us);
}

TEST(GpuSpec, PerSmThroughput) {
  const ClusterSpec c = H800Cluster(8);
  EXPECT_NEAR(c.gpu.FlopsPerUsPerSm() * c.gpu.num_sms, c.gpu.peak_flops_per_us,
              1e-6);
}

class GemmCostTest : public ::testing::Test {
 protected:
  GemmCostModel model_{H800Cluster(8).gpu};
};

TEST_F(GemmCostTest, TileTimeScalesWithK) {
  const double t1 = model_.TileTimeUs(1024);
  const double t2 = model_.TileTimeUs(2048);
  EXPECT_GT(t2, t1);
  // Deeper K amortizes the pipeline better, so time grows sub-linearly.
  EXPECT_LT(t2, 2.0 * t1);
}

TEST_F(GemmCostTest, KEfficiencyMonotone) {
  EXPECT_LT(model_.KEfficiency(128), model_.KEfficiency(1024));
  EXPECT_LT(model_.KEfficiency(1024), model_.KEfficiency(16384));
  EXPECT_LE(model_.KEfficiency(1 << 20), 1.0);
}

TEST_F(GemmCostTest, NumTilesQuantizes) {
  EXPECT_EQ(model_.NumTiles(GemmShape{128, 128, 64}), 1);
  EXPECT_EQ(model_.NumTiles(GemmShape{129, 128, 64}), 2);
  EXPECT_EQ(model_.NumTiles(GemmShape{256, 256, 64}), 4);
  EXPECT_EQ(model_.NumTiles(GemmShape{0, 128, 64}), 0);
}

TEST_F(GemmCostTest, ZeroWorkCostsZero) {
  EXPECT_EQ(model_.TimeUs(GemmShape{0, 128, 128}, 132), 0.0);
  EXPECT_EQ(model_.GroupTimeUs({}, 132), 0.0);
}

TEST_F(GemmCostTest, MoreSmsNeverSlower) {
  const GemmShape shape{4096, 4096, 4096};
  double prev = model_.TimeUs(shape, 16);
  for (int sms : {32, 64, 132}) {
    const double t = model_.TimeUs(shape, sms);
    EXPECT_LE(t, prev * (1.0 + 1e-12));
    prev = t;
  }
}

TEST_F(GemmCostTest, WaveQuantizationPenalizesSmallM) {
  // Two GEMMs with the same total flops: one monolithic, one split in 8
  // fragments. The fragments pay extra waves -> t1 + t2 > t (Figure 1(b)).
  const GemmShape whole{1024, 4096, 4096};
  const GemmShape part{128, 4096, 4096};
  const double t_whole = model_.TimeUs(whole, 132);
  const double t_parts = 8.0 * model_.TimeUs(part, 132);
  EXPECT_GT(t_parts, t_whole);
}

TEST_F(GemmCostTest, GroupGemmPoolsTiles) {
  // 8 equal groups pooled in one kernel beat 8 sequential kernels.
  std::vector<GemmShape> groups(8, GemmShape{128, 4096, 4096});
  const double grouped = model_.GroupTimeUs(groups, 132);
  const double sequential = 8.0 * model_.TimeUs(groups[0], 132);
  EXPECT_LT(grouped, sequential);
}

TEST_F(GemmCostTest, GroupGemmRequiresUniformNK) {
  EXPECT_THROW(
      model_.GroupTimeUs({GemmShape{64, 128, 256}, GemmShape{64, 256, 256}},
                         132),
      CheckError);
  EXPECT_THROW(
      model_.GroupTimeUs({GemmShape{64, 128, 256}, GemmShape{64, 128, 128}},
                         132),
      CheckError);
}

TEST_F(GemmCostTest, MemoryBoundShapesHitRooflineFloor) {
  // A skinny GEMM (tiny K) moves many bytes per flop; the memory floor must
  // dominate the compute estimate.
  const GemmShape skinny{8192, 8192, 8};
  const double t = model_.TimeUs(skinny, 132);
  const GpuSpec gpu = H800Cluster(8).gpu;
  const double bytes = 2.0 * (8192.0 * 8 + 8.0 * 8192 + 8192.0 * 8192);
  EXPECT_GE(t, bytes / gpu.hbm_bandwidth_bytes_per_us * 0.99);
}

TEST_F(GemmCostTest, InvalidSmCountRejected) {
  EXPECT_THROW(model_.TimeUs(GemmShape{128, 128, 128}, 0), CheckError);
  EXPECT_THROW(model_.TimeUs(GemmShape{128, 128, 128}, 1000), CheckError);
}

TEST_F(GemmCostTest, TileShapeEfficiencyNativeIsOne) {
  EXPECT_DOUBLE_EQ(model_.TileShapeEfficiency(model_.tile_m(),
                                              model_.tile_n()), 1.0);
  // Larger tiles never beat the calibrated sustained rate.
  EXPECT_DOUBLE_EQ(model_.TileShapeEfficiency(256, 256), 1.0);
}

TEST_F(GemmCostTest, TileShapeEfficiencyMonotoneAndPunishesSlivers) {
  double prev = 0.0;
  for (int64_t d : {1, 4, 16, 64, 128}) {
    const double eff = model_.TileShapeEfficiency(d, d);
    EXPECT_GT(eff, prev);
    prev = eff;
  }
  // Token-wise granularity (1-row tiles) is far below native efficiency:
  // the §3.1.2 argument for tile-granular rather than row-granular work.
  EXPECT_LT(model_.TileShapeEfficiency(1, 128), 0.15);
}

TEST_F(GemmCostTest, SmallTileTimeReflectsEfficiencyNotJustFlops) {
  // Halving tile_m halves the flops but costs MORE than half the time.
  const double full = model_.TileTimeUs(1024, 128, 128);
  const double half = model_.TileTimeUs(1024, 64, 128);
  EXPECT_GT(half, full / 2.0);
  EXPECT_LT(half, full);
  // Two-arg overload agrees with the native one.
  EXPECT_DOUBLE_EQ(model_.TileTimeUs(1024),
                   model_.TileTimeUs(1024, model_.tile_m(), model_.tile_n()));
}

TEST_F(GemmCostTest, TileShapeEfficiencyRejectsNonPositive) {
  EXPECT_THROW(model_.TileShapeEfficiency(0, 128), CheckError);
  EXPECT_THROW(model_.TileTimeUs(128, 128, -1), CheckError);
}

}  // namespace
}  // namespace comet
