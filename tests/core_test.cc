// Unit tests for the COMET core: rescheduling, the fused-kernel simulator
// and adaptive workload assignment.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>

#include "core/adaptive.h"
#include "core/fused_kernel.h"
#include "core/reschedule.h"
#include "exec/op_costs.h"
#include "moe/workload.h"
#include "tests/fused_schedule_reference.h"
#include "util/check.h"

namespace comet {
namespace {

using fused_schedule_reference::ExpandTiles;

MoeWorkload SmallWorkload(int tp, int ep, int64_t tokens, double std = 0.0) {
  ModelConfig model;
  model.name = "core-test";
  model.layers = 1;
  model.num_experts = 8;
  model.topk = 2;
  model.embedding = 512;
  model.ffn_hidden = 1024;
  WorkloadOptions options;
  options.seed = 9;
  options.load_std = std;
  options.materialize = false;
  return MakeWorkload(model, ParallelConfig{tp, ep}, tokens, options);
}

// ---- rescheduling -----------------------------------------------------------

TEST(Reschedule, ArrivalClassRingDistance) {
  EXPECT_EQ(RowArrivalClass(2, 2, 4), 0);
  EXPECT_EQ(RowArrivalClass(3, 2, 4), 1);
  EXPECT_EQ(RowArrivalClass(0, 2, 4), 2);
  EXPECT_EQ(RowArrivalClass(1, 2, 4), 3);
}

TEST(Reschedule, Layer0RowsSortedLocalsFirst) {
  const MoeWorkload w = SmallWorkload(1, 4, 256);
  const int rank = 1;
  const RankPlan& plan = w.plan.ForRank(rank);
  const auto schedule = BuildLayer0Schedule(plan, /*ep_group=*/1, 4,
                                            /*out_cols=*/1024, 32, 32, true);
  for (size_t le = 0; le < plan.experts.size(); ++le) {
    const auto& rows = plan.experts[le].rows;
    const auto& order = schedule.row_order[le];
    int prev_class = -1;
    for (int64_t idx : order) {
      const int cls = RowArrivalClass(
          rows[static_cast<size_t>(idx)].source_group, 1, 4);
      EXPECT_GE(cls, prev_class);
      prev_class = std::max(prev_class, cls);
    }
  }
}

TEST(Reschedule, Layer0TileOrderByArrivalClass) {
  // Large enough that every expert has at least one full tile of local rows
  // (~64 local rows per expert vs tile_m=32), so an all-local tile exists
  // and must be scheduled first.
  const MoeWorkload w = SmallWorkload(1, 4, 1024);
  const auto schedule = BuildLayer0Schedule(w.plan.ForRank(0), 0, 4, 1024, 32,
                                            32, true);
  int prev = -1;
  for (const TileRef& tile : ExpandTiles(schedule)) {
    EXPECT_GE(tile.arrival_class, prev);
    prev = tile.arrival_class;
  }
  EXPECT_EQ(TileAt(schedule, 0).arrival_class, 0);
}

TEST(Reschedule, Layer0OffKeepsIdentityRowOrder) {
  const MoeWorkload w = SmallWorkload(1, 4, 256);
  const auto schedule = BuildLayer0Schedule(w.plan.ForRank(0), 0, 4, 1024, 32,
                                            32, false);
  for (const auto& order : schedule.row_order) {
    for (size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(order[i], static_cast<int64_t>(i));
    }
  }
}

TEST(Reschedule, SchedulesCoverEveryTileExactlyOnce) {
  const MoeWorkload w = SmallWorkload(2, 2, 128);
  for (bool resched : {true, false}) {
    const auto s0 = BuildLayer0Schedule(w.plan.ForRank(0), 0, 2,
                                        w.placement.HiddenPerTpRank(), 32, 32,
                                        resched);
    const auto s1 = BuildLayer1Schedule(w.plan.ForRank(0), 512, 32, 32,
                                        resched);
    auto count_cells = [](const std::vector<TileRef>& tiles) {
      int64_t cells = 0;
      for (const auto& t : tiles) {
        cells += (t.row_end - t.row_begin) * (t.col_end - t.col_begin);
      }
      return cells;
    };
    const int64_t rows = w.plan.ForRank(0).TotalRows();
    EXPECT_EQ(count_cells(ExpandTiles(s0)),
              rows * w.placement.HiddenPerTpRank());
    EXPECT_EQ(count_cells(ExpandTiles(s1)), rows * 512);
  }
}

TEST(Reschedule, Layer1ColumnPanelMajor) {
  const MoeWorkload w = SmallWorkload(1, 2, 128);
  const auto schedule =
      BuildLayer1Schedule(w.plan.ForRank(0), 512, 32, 64, true);
  EXPECT_EQ(schedule.num_col_panels, 8);
  int64_t prev_panel = 0;
  for (const TileRef& tile : ExpandTiles(schedule)) {
    const int64_t panel = tile.col_begin / 64;
    EXPECT_GE(panel, prev_panel);
    prev_panel = panel;
  }
}

TEST(Reschedule, Layer1OffIsExpertMajor) {
  const MoeWorkload w = SmallWorkload(1, 2, 128);
  const auto schedule =
      BuildLayer1Schedule(w.plan.ForRank(0), 512, 32, 64, false);
  int64_t prev_expert = 0;
  for (const TileRef& tile : ExpandTiles(schedule)) {
    EXPECT_GE(tile.expert_local, prev_expert);
    prev_expert = tile.expert_local;
  }
}

// The run schedules, expanded through TileAt, are exactly the per-tile
// schedules the builders produced before runs (fused_schedule_reference.h):
// same row orders, same tiles in the same order, on every rank.
TEST(Reschedule, TileAtMatchesReferenceTiles) {
  int64_t empty_experts = 0;
  int64_t cases = 0;
  for (const auto& [tp, ep] : {std::pair{1, 1}, std::pair{1, 2},
                               std::pair{1, 8}, std::pair{2, 1},
                               std::pair{2, 2}, std::pair{2, 8}}) {
    // 24 tokens under a steep skew leave some experts without rows.
    for (const auto& [tokens, std] :
         {std::pair{int64_t{24}, 0.3}, std::pair{int64_t{256}, 0.0}}) {
      const MoeWorkload w = SmallWorkload(tp, ep, tokens, std);
      const int64_t out_cols0 = w.placement.HiddenPerTpRank();
      const int64_t out_cols1 = w.model().embedding;
      for (int rank = 0; rank < tp * ep; ++rank) {
        const RankPlan& plan = w.plan.ForRank(rank);
        const int group = w.placement.EpGroupOfRank(rank);
        for (const auto& slice : plan.experts) {
          empty_experts += slice.rows.empty() ? 1 : 0;
        }
        for (const int64_t tile : {1, 7, 8, 16, 128, 300}) {
          for (const bool resched : {true, false}) {
            SCOPED_TRACE("TP" + std::to_string(tp) + " EP" +
                         std::to_string(ep) + " M" + std::to_string(tokens) +
                         " rank " + std::to_string(rank) + " tile " +
                         std::to_string(tile) +
                         (resched ? " resched" : " canonical"));
            // Rectangular tiles too: tile_m = tile, tile_n = tile + 3.
            const int64_t tile_n = tile + 3;
            fused_schedule_reference::ScheduleScratch ref_scratch;
            fused_schedule_reference::Layer0Schedule ref0;
            fused_schedule_reference::BuildLayer0ScheduleInto(
                plan, group, ep, out_cols0, tile, tile_n, resched,
                ref_scratch, &ref0);
            fused_schedule_reference::Layer1Schedule ref1;
            fused_schedule_reference::BuildLayer1ScheduleInto(
                plan, out_cols1, tile, tile_n, resched, &ref1);
            const Layer0Schedule s0 = BuildLayer0Schedule(
                plan, group, ep, out_cols0, tile, tile_n, resched);
            const Layer1Schedule s1 =
                BuildLayer1Schedule(plan, out_cols1, tile, tile_n, resched);
            EXPECT_EQ(s0.row_order, ref0.row_order);
            EXPECT_EQ(s1.num_col_panels, ref1.num_col_panels);
            for (const auto& [got, want] :
                 {std::pair{ExpandTiles(s0), ref0.tiles},
                  std::pair{ExpandTiles(s1), ref1.tiles}}) {
              ASSERT_EQ(got.size(), want.size());
              for (size_t t = 0; t < got.size(); ++t) {
                ASSERT_TRUE(got[t].expert_local == want[t].expert_local &&
                            got[t].row_begin == want[t].row_begin &&
                            got[t].row_end == want[t].row_end &&
                            got[t].col_begin == want[t].col_begin &&
                            got[t].col_end == want[t].col_end &&
                            got[t].arrival_class == want[t].arrival_class)
                    << "tile " << t;
              }
            }
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_GT(empty_experts, 0);
  EXPECT_EQ(cases, 2 * (1 + 2 + 8 + 2 + 4 + 16) * 6 * 2);
}

// A prepared fine-tile layer0 schedule stores one run per row chunk, not
// one entry per tile: the per-tile state is implicit.
TEST(Reschedule, PreparedLayer0HoldsOneRunPerRowChunk) {
  WorkloadOptions wopt;
  wopt.materialize = false;
  const MoeWorkload w =
      MakeWorkload(Mixtral8x7B(), ParallelConfig{1, 8}, 16384, wopt);
  const ClusterSpec cluster = H800Cluster(8);
  const OpCostModel costs(cluster);
  FusedKernelConfig config;
  config.total_blocks = cluster.gpu.num_sms;
  config.tile_m = 8;
  config.tile_n = 8;
  FusedKernelWorkspace ws;
  PrepareLayer0Fused(w.plan, 0, costs, config, ws);
  int64_t chunks = 0;
  for (const auto& slice : w.plan.ForRank(0).experts) {
    chunks += (static_cast<int64_t>(slice.rows.size()) + 7) / 8;
  }
  const int64_t col_tiles = (w.placement.HiddenPerTpRank() + 7) / 8;
  EXPECT_EQ(static_cast<int64_t>(ws.layer0.runs.size()), chunks);
  EXPECT_EQ(TileCount(ws.layer0), chunks * col_tiles);
  EXPECT_EQ(static_cast<int64_t>(ws.run_intra.size()), chunks);
  EXPECT_LE(static_cast<int64_t>(ws.jobs.size()), chunks);
  EXPECT_GT(col_tiles, 1000);
}

// ---- fused kernel simulator ------------------------------------------------

class FusedKernelTest : public ::testing::Test {
 protected:
  const ClusterSpec cluster_ = H800Cluster(4);
  const OpCostModel costs_{cluster_};

  FusedKernelConfig Config(int nc, bool resched = true) const {
    FusedKernelConfig config;
    config.total_blocks = cluster_.gpu.num_sms;
    config.comm_blocks = nc;
    config.reschedule = resched;
    return config;
  }
};

TEST_F(FusedKernelTest, Layer0DurationPositiveAndConsistent) {
  const MoeWorkload w = SmallWorkload(1, 4, 1024);
  const auto r = SimulateLayer0Fused(w.plan, 0, costs_, Config(16));
  EXPECT_GT(r.duration_us, 0.0);
  EXPECT_GE(r.duration_us, r.compute_makespan_us - 1e-9);
  EXPECT_GE(r.duration_us, r.comm_makespan_us - 1e-9);
  EXPECT_GT(r.comm_bytes, 0.0);
}

TEST_F(FusedKernelTest, RescheduleNeverSlower) {
  for (int64_t m : {256, 1024, 4096}) {
    const MoeWorkload w = SmallWorkload(1, 4, m);
    const auto on = SimulateLayer0Fused(w.plan, 0, costs_, Config(16, true));
    const auto off = SimulateLayer0Fused(w.plan, 0, costs_, Config(16, false));
    EXPECT_LE(on.duration_us, off.duration_us * (1.0 + 1e-9)) << "M=" << m;
  }
}

TEST_F(FusedKernelTest, Layer1RescheduleEnablesEarlyComm) {
  // Needs several compute waves (tiles >> np blocks); with a single wave all
  // tiles finish together and the tile order is irrelevant by construction.
  const MoeWorkload w = SmallWorkload(1, 4, 16384);
  const auto on = SimulateLayer1Fused(w.plan, 0, costs_, Config(16, true));
  const auto off = SimulateLayer1Fused(w.plan, 0, costs_, Config(16, false));
  EXPECT_LT(on.duration_us, off.duration_us);
}

TEST_F(FusedKernelTest, VerticalFusionSlowerThanSpecialized) {
  const MoeWorkload w = SmallWorkload(1, 4, 4096);
  FusedKernelConfig vertical = Config(0);
  vertical.vertical_fusion = true;
  const auto v0 = SimulateLayer0Fused(w.plan, 0, costs_, vertical);
  const auto s0 = SimulateLayer0Fused(w.plan, 0, costs_, Config(16));
  EXPECT_GT(v0.duration_us, s0.duration_us);
}

TEST_F(FusedKernelTest, NoCommBlocksWithTrafficRejected) {
  const MoeWorkload w = SmallWorkload(1, 4, 1024);
  EXPECT_THROW(SimulateLayer0Fused(w.plan, 0, costs_, Config(0)), CheckError);
}

TEST_F(FusedKernelTest, PureTpLayer0HasNoComm) {
  const MoeWorkload w = SmallWorkload(4, 1, 1024);
  const auto r = SimulateLayer0Fused(w.plan, 0, costs_, Config(2));
  EXPECT_DOUBLE_EQ(r.comm_bytes, 0.0);
  EXPECT_DOUBLE_EQ(r.comm_makespan_us, 0.0);
}

TEST_F(FusedKernelTest, PureTpLayer1CommIsReduceScatterOnly) {
  const MoeWorkload w = SmallWorkload(4, 1, 1024);
  const auto r = SimulateLayer1Fused(w.plan, 0, costs_, Config(8));
  const double expected =
      w.plan.TpReduceScatterBytesPerRank(512.0 * costs_.bytes_per_element());
  EXPECT_DOUBLE_EQ(r.comm_bytes, expected);
  EXPECT_GT(r.comm_bytes, 0.0);
}

TEST_F(FusedKernelTest, MoreCommBlocksTradeComputeForComm) {
  const MoeWorkload w = SmallWorkload(1, 4, 4096);
  const auto few = SimulateLayer1Fused(w.plan, 0, costs_, Config(4));
  const auto many = SimulateLayer1Fused(w.plan, 0, costs_, Config(100));
  // The layer1 send of the final column panel can only start once its
  // compute completes, so comm_makespan >= compute_makespan always; what
  // shifting blocks to comm buys is a shorter comm *tail* past compute.
  const double few_tail = few.comm_makespan_us - few.compute_makespan_us;
  const double many_tail = many.comm_makespan_us - many.compute_makespan_us;
  EXPECT_GT(few_tail, 0.0);
  EXPECT_LT(many_tail, few_tail);
  // Fewer compute blocks stretch the compute makespan.
  EXPECT_GT(many.compute_makespan_us, few.compute_makespan_us);
}

void ExpectSameBits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b)) << what;
}

void ExpectSameNumbers(const FusedKernelResult& a, const FusedKernelResult& b) {
  ExpectSameBits(a.duration_us, b.duration_us, "duration_us");
  ExpectSameBits(a.compute_makespan_us, b.compute_makespan_us,
                 "compute_makespan_us");
  ExpectSameBits(a.comm_makespan_us, b.comm_makespan_us, "comm_makespan_us");
  ExpectSameBits(a.stall_us, b.stall_us, "stall_us");
  ExpectSameBits(a.comm_bytes, b.comm_bytes, "comm_bytes");
}

// One prepare serves every division point: pricing nc after nc on one
// prepared workspace gives exactly what a fresh simulation at that nc
// gives, and records a timeline only when handed one.
TEST(FusedKernelSteps, PricesOnOnePrepareMatchFreshSimulations) {
  for (const ClusterSpec& cluster :
       {H800Cluster(4), MultiNodeH800Cluster(2, 2)}) {
    const OpCostModel costs(cluster);
    for (const auto& [tp, ep] : {std::pair{1, 4}, std::pair{2, 2}}) {
      const MoeWorkload w = SmallWorkload(tp, ep, 2048);
      for (const bool vertical : {false, true}) {
        for (const bool layer0 : {true, false}) {
          SCOPED_TRACE(cluster.name + " TP" + std::to_string(tp) + " EP" +
                       std::to_string(ep) + (vertical ? " vertical" : "") +
                       (layer0 ? " layer0" : " layer1"));
          FusedKernelConfig config;
          config.total_blocks = cluster.gpu.num_sms;
          config.tile_m = 64;
          config.tile_n = 64;
          config.vertical_fusion = vertical;
          FusedKernelWorkspace ws;
          if (layer0) {
            PrepareLayer0Fused(w.plan, 1, costs, config, ws);
          } else {
            PrepareLayer1Fused(w.plan, 1, costs, config, ws);
          }
          FusedKernelResult recorded;
          FusedKernelResult unrecorded;
          for (const int nc : {8, 1, 64, 8, 120}) {
            config.comm_blocks = nc;
            const FusedKernelResult fresh =
                layer0 ? SimulateLayer0Fused(w.plan, 1, costs, config)
                       : SimulateLayer1Fused(w.plan, 1, costs, config);
            if (layer0) {
              PriceLayer0Fused(w.plan, costs, config, ws, &recorded,
                               &recorded.timeline);
              PriceLayer0Fused(w.plan, costs, config, ws, &unrecorded,
                               nullptr);
            } else {
              PriceLayer1Fused(w.plan, costs, config, ws, &recorded,
                               &recorded.timeline);
              PriceLayer1Fused(w.plan, costs, config, ws, &unrecorded,
                               nullptr);
            }
            ExpectSameNumbers(recorded, fresh);
            ExpectSameNumbers(unrecorded, fresh);
            EXPECT_TRUE(unrecorded.timeline.empty());
            const auto& got = recorded.timeline.intervals();
            const auto& want = fresh.timeline.intervals();
            ASSERT_EQ(got.size(), want.size()) << "nc " << nc;
            for (size_t i = 0; i < got.size(); ++i) {
              EXPECT_EQ(got[i].label(), want[i].label());
              EXPECT_EQ(got[i].category, want[i].category);
              EXPECT_EQ(got[i].lane, want[i].lane);
              ExpectSameBits(got[i].start_us, want[i].start_us, "start_us");
              ExpectSameBits(got[i].end_us, want[i].end_us, "end_us");
            }
          }
        }
      }
    }
  }
}

// ---- adaptive assignment ------------------------------------------------------

TEST(Adaptive, CandidatesRespectStrideAndBounds) {
  const AdaptiveAssigner assigner(4);
  const auto candidates = assigner.Candidates(132);
  EXPECT_FALSE(candidates.empty());
  EXPECT_EQ(candidates.front(), 4);
  for (size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_EQ(candidates[i] - candidates[i - 1], 4);
  }
  EXPECT_LE(candidates.back(), 131);
}

TEST(Adaptive, SweepIsUShapedAroundOptimum) {
  const MoeWorkload w = SmallWorkload(1, 4, 8192);
  const ClusterSpec cluster = H800Cluster(4);
  const OpCostModel costs(cluster);
  const AdaptiveAssigner assigner(2);
  FusedKernelConfig base;
  base.total_blocks = cluster.gpu.num_sms;
  const auto samples =
      assigner.Sweep(MoePipelineStage::kLayer1, w.plan, 0, costs, base);
  ASSERT_GT(samples.size(), 4u);
  size_t best = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].duration_us < samples[best].duration_us) {
      best = i;
    }
  }
  // Strictly worse at both extremes than at the optimum.
  EXPECT_GT(samples.front().duration_us, samples[best].duration_us);
  EXPECT_GT(samples.back().duration_us, samples[best].duration_us);
}

TEST(Adaptive, SelectionCachedInMetadataStore) {
  const MoeWorkload w = SmallWorkload(1, 4, 2048);
  const ClusterSpec cluster = H800Cluster(4);
  const OpCostModel costs(cluster);
  const AdaptiveAssigner assigner(2);
  FusedKernelConfig base;
  base.total_blocks = cluster.gpu.num_sms;

  MetadataStore store;
  const int nc = assigner.SelectCommBlocks(MoePipelineStage::kLayer1, w.plan,
                                           0, costs, base, &store);
  EXPECT_GT(nc, 0);
  const std::string key =
      AdaptiveAssigner::ProfileKey(cluster, w.placement,
                                   MoePipelineStage::kLayer1);
  ASSERT_TRUE(store.Get(key).has_value());
  // Poison the cache; selection must honour it (cache hit, no re-profile).
  store.PutInt(key, 77);
  EXPECT_EQ(assigner.SelectCommBlocks(MoePipelineStage::kLayer1, w.plan, 0,
                                      costs, base, &store),
            77);
}

TEST(Adaptive, ProfileKeyDistinguishesSetups) {
  const ClusterSpec cluster = H800Cluster(8);
  const MoeWorkload a = SmallWorkload(1, 4, 2048);
  const MoeWorkload b = SmallWorkload(2, 2, 2048);
  const MoeWorkload c = SmallWorkload(1, 4, 4096);
  const auto key = [&](const MoeWorkload& w, MoePipelineStage s) {
    return AdaptiveAssigner::ProfileKey(cluster, w.placement, s);
  };
  EXPECT_NE(key(a, MoePipelineStage::kLayer0),
            key(a, MoePipelineStage::kLayer1));
  EXPECT_NE(key(a, MoePipelineStage::kLayer0),
            key(b, MoePipelineStage::kLayer0));
  EXPECT_NE(key(a, MoePipelineStage::kLayer0),
            key(c, MoePipelineStage::kLayer0));
}

}  // namespace
}  // namespace comet
