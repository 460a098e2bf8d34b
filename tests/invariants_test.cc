// Second property suite: invariants of the routing/traffic accounting, the
// (re)schedules, the fused-kernel simulator, capacity enforcement, the
// transposed GEMM kernels and the multi-node collective costs, swept over
// randomized configurations.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "comm/collectives.h"
#include "core/fused_kernel.h"
#include "core/reschedule.h"
#include "moe/group_gemm.h"
#include "moe/router.h"
#include "moe/workload.h"
#include "sim/trace_export.h"
#include "tests/fused_schedule_reference.h"
#include "util/check.h"
#include "util/rng.h"

namespace comet {
namespace {

MoeWorkload RandomWorkload(Rng& rng, int tp, int ep) {
  ModelConfig model;
  model.name = "inv";
  model.layers = 1;
  model.num_experts = std::max<int64_t>(8, ep);  // divisible by ep (powers of 2)
  model.topk = static_cast<int64_t>(rng.UniformInt(1, 4));
  model.embedding = 64;
  model.ffn_hidden = 128;
  WorkloadOptions options;
  options.seed = rng.UniformInt(1, 1 << 30);
  options.load_std = rng.Uniform(0.0, 0.04);
  options.materialize = false;
  const int64_t tokens = static_cast<int64_t>(rng.UniformInt(2, 64)) * ep;
  return MakeWorkload(model, ParallelConfig{tp, ep}, tokens, options);
}

// =======================================================================
// Property: traffic accounting conservation. Every (token, expert) pair
// whose home group differs from the expert's group contributes exactly one
// dispatched row per TP lane, and the layer1 return carries exactly the
// same rows back.
// =======================================================================

TEST(TrafficInvariants, DispatchMatchesPairCountAndReturnMirrors) {
  Rng rng(42);
  for (int trial = 0; trial < 12; ++trial) {
    const int tp = 1 << rng.UniformInt(0, 2);
    const int ep = 1 << rng.UniformInt(1, 3);
    const MoeWorkload w = RandomWorkload(rng, tp, ep);
    const double row_bytes = 1.0;  // count rows directly

    int64_t crossing_pairs = 0;
    for (int64_t t = 0; t < w.placement.total_tokens(); ++t) {
      const int home = w.placement.HomeGroupOfToken(t);
      for (int64_t e : w.routing.tokens[static_cast<size_t>(t)].experts) {
        crossing_pairs += w.placement.EpGroupOfExpert(e) != home ? 1 : 0;
      }
    }

    const auto dispatch = w.plan.DispatchBytes(row_bytes);
    const auto ret = w.plan.EpReturnBytes(row_bytes);
    double dispatch_total = 0.0, return_total = 0.0;
    for (int i = 0; i < w.world(); ++i) {
      EXPECT_EQ(dispatch[static_cast<size_t>(i)][static_cast<size_t>(i)], 0.0);
      for (int j = 0; j < w.world(); ++j) {
        dispatch_total += dispatch[static_cast<size_t>(i)][static_cast<size_t>(j)];
        return_total += ret[static_cast<size_t>(i)][static_cast<size_t>(j)];
        // Return traffic is the exact mirror of dispatch traffic.
        EXPECT_DOUBLE_EQ(
            ret[static_cast<size_t>(j)][static_cast<size_t>(i)],
            dispatch[static_cast<size_t>(i)][static_cast<size_t>(j)]);
      }
    }
    EXPECT_DOUBLE_EQ(dispatch_total,
                     static_cast<double>(crossing_pairs * tp));
    EXPECT_DOUBLE_EQ(return_total, dispatch_total);
  }
}

// =======================================================================
// Property: schedules cover every output cell exactly once and row orders
// are permutations, for arbitrary (including non-dividing) tile sizes.
// =======================================================================

using ScheduleParam = std::tuple<int64_t /*tile_m*/, int64_t /*tile_n*/,
                                 bool /*reschedule*/>;

class ScheduleCoverage : public ::testing::TestWithParam<ScheduleParam> {};

TEST_P(ScheduleCoverage, ExactCoverAndValidPermutation) {
  const auto [tile_m, tile_n, reschedule] = GetParam();
  Rng rng(7 + static_cast<uint64_t>(tile_m * 100 + tile_n));
  const MoeWorkload w = RandomWorkload(rng, 1, 4);
  const int64_t out_cols = 96;  // deliberately not a tile multiple

  const auto s0 = BuildLayer0Schedule(w.plan.ForRank(1), 1, 4, out_cols,
                                      tile_m, tile_n, reschedule);
  const auto s1 =
      BuildLayer1Schedule(w.plan.ForRank(1), out_cols, tile_m, tile_n,
                          reschedule);

  // Row orders are permutations of each expert's rows.
  const RankPlan& plan = w.plan.ForRank(1);
  for (size_t le = 0; le < plan.experts.size(); ++le) {
    std::vector<bool> seen(plan.experts[le].rows.size(), false);
    ASSERT_EQ(s0.row_order[le].size(), plan.experts[le].rows.size());
    for (int64_t idx : s0.row_order[le]) {
      ASSERT_GE(idx, 0);
      ASSERT_LT(static_cast<size_t>(idx), seen.size());
      EXPECT_FALSE(seen[static_cast<size_t>(idx)]) << "duplicate row";
      seen[static_cast<size_t>(idx)] = true;
    }
  }

  // Tiles partition (expert rows x out_cols) exactly: count cell coverage.
  for (const std::vector<TileRef>& schedule_tiles :
       {fused_schedule_reference::ExpandTiles(s0),
        fused_schedule_reference::ExpandTiles(s1)}) {
    std::map<std::tuple<int64_t, int64_t, int64_t>, int> cover;
    for (const TileRef& t : schedule_tiles) {
      EXPECT_LT(t.row_begin, t.row_end);
      EXPECT_LT(t.col_begin, t.col_end);
      EXPECT_LE(t.col_end, out_cols);
      for (int64_t r = t.row_begin; r < t.row_end; ++r) {
        for (int64_t c = t.col_begin; c < t.col_end; c += tile_n) {
          ++cover[{t.expert_local, r, c}];
        }
      }
    }
    for (const auto& [key, count] : cover) {
      EXPECT_EQ(count, 1) << "cell covered " << count << " times";
    }
    // Completeness: every (row, col-tile) of every expert is present.
    const int64_t col_tiles = (out_cols + tile_n - 1) / tile_n;
    EXPECT_EQ(static_cast<int64_t>(cover.size()),
              plan.TotalRows() * col_tiles);
  }
}

INSTANTIATE_TEST_SUITE_P(TileShapes, ScheduleCoverage,
                         ::testing::Values(ScheduleParam{8, 8, true},
                                           ScheduleParam{8, 8, false},
                                           ScheduleParam{7, 13, true},
                                           ScheduleParam{7, 13, false},
                                           ScheduleParam{1, 96, true},
                                           ScheduleParam{128, 128, true}));

// =======================================================================
// Property: fused-kernel results are internally consistent and invariant
// in communication volume across nc / rescheduling choices.
// =======================================================================

TEST(FusedKernelInvariants, VolumeIndependentOfScheduleAndNc) {
  Rng rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    const MoeWorkload w = RandomWorkload(rng, 1, 4);
    const ClusterSpec cluster = H800Cluster(4);
    const OpCostModel costs(cluster);
    double volume0 = -1.0, volume1 = -1.0;
    for (const int nc : {4, 16, 64}) {
      for (const bool resched : {true, false}) {
        FusedKernelConfig config;
        config.total_blocks = cluster.gpu.num_sms;
        config.comm_blocks = nc;
        config.reschedule = resched;
        config.tile_m = 16;
        config.tile_n = 16;
        const auto r0 = SimulateLayer0Fused(w.plan, 2, costs, config);
        const auto r1 = SimulateLayer1Fused(w.plan, 2, costs, config);
        EXPECT_GE(r0.duration_us, r0.compute_makespan_us - 1e-9);
        EXPECT_GE(r0.duration_us, r0.comm_makespan_us - 1e-9);
        EXPECT_GE(r1.duration_us, r1.compute_makespan_us - 1e-9);
        if (volume0 < 0.0) {
          volume0 = r0.comm_bytes;
          volume1 = r1.comm_bytes;
        } else {
          EXPECT_DOUBLE_EQ(r0.comm_bytes, volume0);
          EXPECT_DOUBLE_EQ(r1.comm_bytes, volume1);
        }
      }
    }
  }
}

// =======================================================================
// Property: capacity enforcement is idempotent, conserves pair counts and
// never exceeds the budget.
// =======================================================================

TEST(CapacityInvariants, IdempotentAndConserving) {
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const int64_t experts = 4 + static_cast<int64_t>(rng.UniformInt(0, 8));
    SyntheticRouter router(
        rng.LoadVectorWithStd(static_cast<size_t>(experts), 0.05),
        rng.UniformInt(1, 1 << 30));
    RoutingTable table =
        router.Route(static_cast<int64_t>(rng.UniformInt(50, 400)), 2);
    int64_t before = 0;
    for (const auto& t : table.tokens) {
      before += static_cast<int64_t>(t.experts.size());
    }
    const double cf = rng.Uniform(0.5, 2.0);
    const DropStats stats = ApplyCapacityFactor(table, experts, cf);
    int64_t after = 0;
    for (const auto& t : table.tokens) {
      after += static_cast<int64_t>(t.experts.size());
    }
    EXPECT_EQ(after, before - stats.dropped_pairs);
    std::vector<int64_t> loads;
    table.ExpertLoadsInto(experts, &loads);
    for (int64_t l : loads) {
      EXPECT_LE(l, stats.capacity);
    }
    table.Validate(experts, 2);

    // Re-applying with the same factor must be a no-op (loads already fit;
    // the pair total shrank, so the recomputed budget can only bind harder
    // -- assert against the ORIGINAL budget instead).
    RoutingTable copy = table;
    const DropStats again = ApplyCapacityFactor(
        copy, experts,
        static_cast<double>(stats.capacity * experts) /
            static_cast<double>(std::max<int64_t>(after, 1)));
    EXPECT_EQ(again.dropped_pairs, 0);
  }
}

// =======================================================================
// Property: transpose dualities of the backward GEMM kernels.
// GemmNT(a, b) == GemmNT(b, a)^T and GemmTN(a, b) == GemmTN(b, a)^T,
// bit-exact (identical reduction orders, commutative multiplies).
// =======================================================================

TEST(TransposeDuality, NTAndTNAreSelfDualUnderSwap) {
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    const int64_t m = rng.UniformInt(1, 12);
    const int64_t n = rng.UniformInt(1, 12);
    const int64_t k = rng.UniformInt(1, 12);
    const Tensor a = Tensor::Randn(Shape{m, k}, rng);
    const Tensor b = Tensor::Randn(Shape{n, k}, rng);
    Tensor ab(Shape{m, n}), ba(Shape{n, m});
    GemmNT(a, b, ab);
    GemmNT(b, a, ba);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        EXPECT_EQ(ab.at({i, j}), ba.at({j, i}));
      }
    }

    const Tensor c = Tensor::Randn(Shape{k, m}, rng);
    const Tensor d = Tensor::Randn(Shape{k, n}, rng);
    Tensor cd(Shape{m, n}), dc(Shape{n, m});
    GemmTN(c, d, cd);
    GemmTN(d, c, dc);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        EXPECT_EQ(cd.at({i, j}), dc.at({j, i}));
      }
    }
  }
}

// =======================================================================
// Property: multi-node collective costs are transpose-invariant (the bound
// is max(send, recv) per port) and monotone in traffic volume.
// =======================================================================

TEST(MultiNodeCostInvariants, TransposeInvariantAndMonotone) {
  Rng rng(19);
  const ClusterSpec cluster = MultiNodeH800Cluster(2, 4);
  const int world = cluster.world_size;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::vector<double>> bytes(
        static_cast<size_t>(world),
        std::vector<double>(static_cast<size_t>(world), 0.0));
    std::vector<std::vector<double>> transposed = bytes;
    std::vector<std::vector<double>> doubled = bytes;
    for (int i = 0; i < world; ++i) {
      for (int j = 0; j < world; ++j) {
        if (i == j) {
          continue;
        }
        const double b = rng.Uniform(0.0, 1 << 20);
        bytes[static_cast<size_t>(i)][static_cast<size_t>(j)] = b;
        transposed[static_cast<size_t>(j)][static_cast<size_t>(i)] = b;
        doubled[static_cast<size_t>(i)][static_cast<size_t>(j)] = 2.0 * b;
      }
    }
    const double base = AllToAllCostUs(cluster, bytes);
    EXPECT_DOUBLE_EQ(AllToAllCostUs(cluster, transposed), base);
    EXPECT_GE(AllToAllCostUs(cluster, doubled), base);
    EXPECT_GE(HierarchicalAllToAllCostUs(cluster, doubled),
              HierarchicalAllToAllCostUs(cluster, bytes));
  }
}

// =======================================================================
// Property: trace export emits exactly one event per interval plus one
// metadata record, for random timelines.
// =======================================================================

TEST(TraceInvariants, OneEventPerInterval) {
  Rng rng(23);
  for (int trial = 0; trial < 6; ++trial) {
    Timeline tl;
    const int n = static_cast<int>(rng.UniformInt(0, 40));
    for (int i = 0; i < n; ++i) {
      const double start = rng.Uniform(0.0, 100.0);
      tl.Add(InternLabel("op" + std::to_string(i)), OpCategory::kOther,
             static_cast<int>(rng.UniformInt(0, 4)), start,
             start + rng.Uniform(0.1, 5.0));
    }
    const std::string json = ToChromeTraceJson(tl);
    size_t events = 0;
    for (size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
         pos = json.find("\"ph\":\"X\"", pos + 1)) {
      ++events;
    }
    EXPECT_EQ(events, static_cast<size_t>(n));
  }
}

// =======================================================================
// Failure injection: invalid configurations must trip checks loudly, never
// produce garbage schedules.
// =======================================================================

TEST(FailureInjection, FusedKernelRejectsBadBlockSplit) {
  Rng rng(29);
  const MoeWorkload w = RandomWorkload(rng, 1, 4);
  const OpCostModel costs{H800Cluster(4)};
  FusedKernelConfig config;
  config.total_blocks = 0;  // no SMs
  EXPECT_THROW(SimulateLayer0Fused(w.plan, 0, costs, config), CheckError);
  config.total_blocks = 32;
  config.comm_blocks = 32;  // no compute blocks left
  EXPECT_THROW(SimulateLayer0Fused(w.plan, 0, costs, config), CheckError);
  config.comm_blocks = -1;
  EXPECT_THROW(SimulateLayer1Fused(w.plan, 0, costs, config), CheckError);
}

TEST(FailureInjection, ScheduleRejectsNonPositiveTiles) {
  Rng rng(31);
  const MoeWorkload w = RandomWorkload(rng, 1, 2);
  EXPECT_THROW(BuildLayer0Schedule(w.plan.ForRank(0), 0, 2, 64, 0, 16, true),
               CheckError);
  EXPECT_THROW(BuildLayer1Schedule(w.plan.ForRank(0), 64, 16, -3, true),
               CheckError);
  EXPECT_THROW(BuildLayer0Schedule(w.plan.ForRank(0), 0, 2, 0, 16, 16, true),
               CheckError);
}

TEST(FailureInjection, ArrivalClassRejectsBadGroups) {
  EXPECT_THROW(RowArrivalClass(4, 0, 4), CheckError);
  EXPECT_THROW(RowArrivalClass(-1, 0, 4), CheckError);
  EXPECT_THROW(RowArrivalClass(0, 4, 4), CheckError);
}

TEST(FailureInjection, CapacityRejectsBadArguments) {
  RoutingTable table;
  table.tokens.push_back(TokenRoute{{0}, {1.0f}});
  EXPECT_THROW(ApplyCapacityFactor(table, 0, 1.0), CheckError);
  EXPECT_THROW(ApplyCapacityFactor(table, 4, 0.0), CheckError);
  RoutingTable bad;
  bad.tokens.push_back(TokenRoute{{9}, {1.0f}});  // expert out of range
  EXPECT_THROW(ApplyCapacityFactor(bad, 4, 1.0), CheckError);
}

TEST(FailureInjection, CollectiveCostRejectsRaggedMatrix) {
  const ClusterSpec cluster = H800Cluster(4);
  std::vector<std::vector<double>> ragged(3, std::vector<double>(4, 1.0));
  EXPECT_THROW(AllToAllCostUs(cluster, ragged), CheckError);
  std::vector<std::vector<double>> bad_row(4, std::vector<double>(4, 1.0));
  bad_row[2].resize(2);
  EXPECT_THROW(AllToAllCostUs(cluster, bad_row), CheckError);
}

}  // namespace
}  // namespace comet
