// Unit tests for the MoE substrate: configs/placement, routers, route plans,
// GroupGEMM tiles, activations, sharded weights and the reference layers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "moe/activation.h"
#include "moe/config.h"
#include "moe/expert_weights.h"
#include "moe/group_gemm.h"
#include "moe/reference_layer.h"
#include "moe/route_plan.h"
#include "moe/router.h"
#include "moe/workload.h"
#include "tests/fdlibm_reference.h"
#include "tests/synthetic_router_reference.h"
#include "util/check.h"
#include "util/fdlibm.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace comet {
namespace {

// ---- config / placement ------------------------------------------------------

TEST(ModelConfig, Table2Presets) {
  const ModelConfig mixtral = Mixtral8x7B();
  EXPECT_EQ(mixtral.layers, 32);
  EXPECT_EQ(mixtral.num_experts, 8);
  EXPECT_EQ(mixtral.topk, 2);
  EXPECT_EQ(mixtral.embedding, 4096);
  EXPECT_EQ(mixtral.ffn_hidden, 14336);

  const ModelConfig qwen = Qwen2Moe();
  EXPECT_EQ(qwen.layers, 24);
  EXPECT_EQ(qwen.num_experts, 64);
  EXPECT_EQ(qwen.topk, 4);
  EXPECT_EQ(qwen.embedding, 2048);
  EXPECT_EQ(qwen.ffn_hidden, 1408);

  const ModelConfig phi = Phi35Moe();
  EXPECT_EQ(phi.layers, 32);
  EXPECT_EQ(phi.num_experts, 16);
  EXPECT_EQ(phi.topk, 2);
  EXPECT_EQ(phi.embedding, 4096);
  EXPECT_EQ(phi.ffn_hidden, 6400);
}

TEST(Placement, RankAndGroupArithmetic) {
  const Placement p(Mixtral8x7B(), ParallelConfig{2, 4}, 1024);
  EXPECT_EQ(p.world(), 8);
  EXPECT_EQ(p.tokens_per_group(), 256);
  EXPECT_EQ(p.EpGroupOfRank(5), 2);
  EXPECT_EQ(p.TpLaneOfRank(5), 1);
  EXPECT_EQ(p.RankOf(2, 1), 5);
  EXPECT_EQ(p.ExpertsPerGroup(), 2);
  EXPECT_EQ(p.EpGroupOfExpert(5), 2);
  EXPECT_EQ(p.LocalExpertIndex(5), 1);
  EXPECT_EQ(p.HiddenPerTpRank(), 14336 / 2);
  EXPECT_EQ(p.HomeGroupOfToken(700), 2);
  EXPECT_EQ(p.FirstTokenOfGroup(2), 512);
}

TEST(Placement, ValidatesDivisibility) {
  EXPECT_THROW(Placement(Mixtral8x7B(), ParallelConfig{1, 3}, 1024),
               CheckError);  // E=8 not divisible by EP=3
  EXPECT_THROW(Placement(Mixtral8x7B(), ParallelConfig{1, 8}, 1021),
               CheckError);  // M not divisible by EP
  ModelConfig odd = Mixtral8x7B();
  odd.ffn_hidden = 14337;
  EXPECT_THROW(Placement(odd, ParallelConfig{2, 4}, 1024), CheckError);
}

// ---- routers -------------------------------------------------------------------

TEST(GateNetwork, SelectsTopKByProbability) {
  // Gate weight designed so expert j's logit = j * sum(x) for positive x.
  Tensor gate(Shape{2, 4});
  for (int64_t n = 0; n < 2; ++n) {
    for (int64_t e = 0; e < 4; ++e) {
      gate.at({n, e}) = static_cast<float>(e);
    }
  }
  GateNetwork network(std::move(gate));
  Tensor tokens = Tensor::Full(Shape{3, 2}, 1.0f);
  const RoutingTable table = network.Route(tokens, 2);
  table.Validate(4, 2);
  for (const auto& t : table.tokens) {
    EXPECT_EQ(t.experts[0], 3);  // highest logit
    EXPECT_EQ(t.experts[1], 2);
    EXPECT_GT(t.weights[0], t.weights[1]);
  }
}

TEST(GateNetwork, WeightsAreNormalized) {
  Rng rng(3);
  GateNetwork network(Tensor::Randn(Shape{8, 6}, rng));
  const Tensor tokens = Tensor::Randn(Shape{5, 8}, rng);
  const RoutingTable table = network.Route(tokens, 3);
  table.Validate(6, 3);
}

TEST(SyntheticRouter, UniformLoadGivesLowStd) {
  SyntheticRouter router(std::vector<double>(8, 1.0 / 8), 11);
  const RoutingTable table = router.Route(20000, 2);
  table.Validate(8, 2);
  EXPECT_LT(table.LoadStd(8), 0.01);
}

TEST(SyntheticRouter, SkewedLoadTracksTarget) {
  Rng rng(12);
  const double target = 0.04;
  SyntheticRouter router(rng.LoadVectorWithStd(8, target), 13);
  const RoutingTable table = router.Route(20000, 2);
  // Sampling without replacement flattens the distribution a little, so the
  // achieved std is close to but usually under the target.
  EXPECT_NEAR(table.LoadStd(8), target, 0.02);
  EXPECT_GT(table.LoadStd(8), 0.015);
}

// The lane-wise RouteInto against the one-token-at-a-time reference
// (synthetic_router_reference.h). Two calls in a row per case: equal tables
// on the second call prove the first consumed the generator identically.
// M covers a lone padded block (1, lanes - 1), an exact one (lanes), a
// ragged tail (lanes + 1, 37) and many blocks (4096); loads with zero
// entries leave fewer than topk positive weights for the larger topk,
// where both must throw.
TEST(SyntheticRouter, MatchesReferenceBitForBit) {
  constexpr int64_t kLanes = fdlibm::kDoubleLanes;
  int cases = 0;
  int throwing_cases = 0;
  // Load std per load kind; kind 3 is kind 2 with zero entries.
  const double load_stds[] = {0.0, 0.032, 0.2, 0.2};
  for (int64_t e_total : {1, 2, 3, 7, 8, 16, 60, 64, 65, 128}) {
    for (int load_kind = 0; load_kind < 4; ++load_kind) {
      Rng load_rng(static_cast<uint64_t>(e_total * 10 + load_kind));
      std::vector<double> load = load_rng.LoadVectorWithStd(
          static_cast<size_t>(e_total), load_stds[load_kind]);
      int64_t positive = 0;
      if (load_kind == 3) {  // every third expert gets no tokens
        for (int64_t e = 1; e < e_total; e += 3) {
          load[static_cast<size_t>(e)] = 0.0;
        }
      }
      for (double p : load) {
        positive += p > 0.0 ? 1 : 0;
      }
      for (int64_t topk = 1; topk <= std::min<int64_t>(e_total, 8); ++topk) {
        for (int64_t m : {int64_t{0}, int64_t{1}, kLanes - 1, kLanes,
                          kLanes + 1, int64_t{37}, int64_t{4096}}) {
          const int64_t shifts[] = {0, 1, e_total - 1, 5 * e_total + 3};
          for (int s = 0; s < 4; ++s) {
            // The shift only rotates stored ids, so the long M = 4096 runs
            // take one shift each, rotating through the four.
            if (m == 4096 && s != (topk + load_kind) % 4) {
              continue;
            }
            const int64_t shift = shifts[s];
            SCOPED_TRACE("E=" + std::to_string(e_total) + " load=" +
                         std::to_string(load_kind) + " topk=" +
                         std::to_string(topk) + " M=" + std::to_string(m) +
                         " shift=" + std::to_string(shift));
            const uint64_t seed = static_cast<uint64_t>(cases) + 1;
            SyntheticRouter router(load, seed);
            synthetic_router_reference::SyntheticRouter reference(load, seed);
            ++cases;
            if (topk > positive && m > 0) {
              RoutingTable got, want;
              EXPECT_THROW(router.RouteInto(m, topk, shift, &got),
                           CheckError);
              EXPECT_THROW(reference.RouteInto(m, topk, shift, &want),
                           CheckError);
              ++throwing_cases;
              continue;
            }
            RoutingTable got, want;
            for (int call = 0; call < 2; ++call) {
              router.RouteInto(m, topk, shift, &got);
              reference.RouteInto(m, topk, shift, &want);
              ASSERT_EQ(got.size(), m);
              ASSERT_EQ(want.size(), m);
              for (int64_t t = 0; t < m; ++t) {
                const TokenRoute& g = got.tokens[static_cast<size_t>(t)];
                const TokenRoute& w = want.tokens[static_cast<size_t>(t)];
                ASSERT_EQ(g.experts, w.experts) << "call " << call << " token "
                                                << t;
                ASSERT_EQ(g.weights.size(), w.weights.size());
                for (size_t k = 0; k < g.weights.size(); ++k) {
                  ASSERT_EQ(std::bit_cast<uint32_t>(g.weights[k]),
                            std::bit_cast<uint32_t>(w.weights[k]))
                      << "call " << call << " token " << t << " pick " << k;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GE(cases, 2000);
  EXPECT_GT(throwing_cases, 0);
}

// A pick whose r never goes negative takes the last expert that still has
// weight. Random draws almost never get there, but the smallest subnormal
// weight does: u * 2^-1074 rounds to 2^-1074 for u > 1/2, so subtracting the
// weight leaves r == 0. A fixed fall-through expert (E - 1) would repeat an
// expert on {1, d, d} at topk 3 and pick the unloaded expert 2 on
// {1, d, 0}, so every table must validate and every pick must land on a
// loaded expert.
TEST(SyntheticRouter, MatchesReferenceWhenAPickFallsThrough) {
  constexpr double kTiny = 0x1p-1074;
  for (const std::vector<double>& load :
       {std::vector<double>{1.0, kTiny, kTiny},
        std::vector<double>{1.0, kTiny, 0.0}}) {
    const int64_t loaded = load[2] > 0.0 ? 3 : 2;
    for (int64_t topk = 1; topk <= 3; ++topk) {
      SCOPED_TRACE("load[2]=" + std::to_string(load[2]) +
                   " topk=" + std::to_string(topk));
      SyntheticRouter router(load, 23);
      synthetic_router_reference::SyntheticRouter reference(load, 23);
      RoutingTable got, want;
      const int64_t m = 4096;
      if (topk > loaded) {
        EXPECT_THROW(reference.RouteInto(m, topk, 0, &want), CheckError);
        EXPECT_THROW(router.RouteInto(m, topk, 0, &got), CheckError);
        continue;
      }
      reference.RouteInto(m, topk, 0, &want);
      router.RouteInto(m, topk, 0, &got);
      for (int64_t t = 0; t < m; ++t) {
        const TokenRoute& g = got.tokens[static_cast<size_t>(t)];
        ASSERT_EQ(g.experts, want.tokens[static_cast<size_t>(t)].experts);
        ASSERT_EQ(g.weights, want.tokens[static_cast<size_t>(t)].weights);
        for (int64_t e : g.experts) {
          ASSERT_GT(load[static_cast<size_t>(e)], 0.0) << "token " << t;
        }
      }
      EXPECT_NO_THROW(got.Validate(3, topk));
      // At least a quarter of the second picks (u > 3/4 on {1, d, d}).
      if (topk >= 2) {
        EXPECT_GT(reference.fall_throughs(), m / 8);
      }
    }
  }
}

// Pick frequencies follow the load (topk 1 is one categorical draw).
TEST(SyntheticRouter, CategoricalFollowsWeights) {
  SyntheticRouter router({1.0, 3.0}, 6);
  const RoutingTable table = router.Route(20000, 1);
  EXPECT_NEAR(static_cast<double>(table.ExpertLoads(2)[1]) / 20000, 0.75,
              0.02);
}

TEST(SyntheticRouter, CategoricalRejectsAllZero) {
  EXPECT_THROW(SyntheticRouter({0.0, 0.0}, 7), CheckError);
  // The second pick finds every weight zero.
  SyntheticRouter router({1.0, 0.0}, 7);
  EXPECT_THROW(router.Route(1, 2), CheckError);
}

TEST(SyntheticRouter, RejectsNonFiniteOrNegativeLoad) {
  EXPECT_THROW(SyntheticRouter({1.0, std::numeric_limits<double>::infinity()},
                               1),
               CheckError);
  EXPECT_THROW(SyntheticRouter({1.0, std::nan("")}, 1), CheckError);
  EXPECT_THROW(SyntheticRouter({1.0, -0.5}, 1), CheckError);
}

TEST(SyntheticRouter, RejectsNegativeTokenCount) {
  SyntheticRouter router({1.0, 1.0}, 2);
  RoutingTable table;
  EXPECT_THROW(router.RouteInto(-1, 1, 0, &table), CheckError);
  EXPECT_THROW(router.Route(-1, 1), CheckError);
}

// A shift near INT64_MAX is reduced mod E before it is added, so it routes
// exactly like its residue.
TEST(SyntheticRouter, HugeShiftRoutesLikeItsResidue) {
  constexpr int64_t kExperts = 7;
  const std::vector<double> load = Rng(4).LoadVectorWithStd(kExperts, 0.05);
  SyntheticRouter huge(load, 9);
  SyntheticRouter residue(load, 9);
  RoutingTable a, b;
  constexpr int64_t kShift = std::numeric_limits<int64_t>::max();
  huge.RouteInto(100, 3, kShift, &a);
  residue.RouteInto(100, 3, kShift % kExperts, &b);
  a.Validate(kExperts, 3);
  for (size_t t = 0; t < a.tokens.size(); ++t) {
    EXPECT_EQ(a.tokens[t].experts, b.tokens[t].experts);
    EXPECT_EQ(a.tokens[t].weights, b.tokens[t].weights);
  }
}

TEST(RoutingTable, ValidateCatchesDuplicates) {
  RoutingTable table;
  table.tokens.push_back(TokenRoute{{1, 1}, {0.5f, 0.5f}});
  EXPECT_THROW(table.Validate(4, 2), CheckError);
}

TEST(RoutingTable, ValidateCatchesBadWeightSum) {
  RoutingTable table;
  table.tokens.push_back(TokenRoute{{0, 1}, {0.9f, 0.5f}});
  EXPECT_THROW(table.Validate(4, 2), CheckError);
}

TEST(RoutingTable, ExpertLoadsCountPairs) {
  RoutingTable table;
  table.tokens.push_back(TokenRoute{{0, 1}, {0.5f, 0.5f}});
  table.tokens.push_back(TokenRoute{{0, 2}, {0.5f, 0.5f}});
  const auto loads = table.ExpertLoads(4);
  EXPECT_EQ(loads[0], 2);
  EXPECT_EQ(loads[1], 1);
  EXPECT_EQ(loads[3], 0);
}

// ---- route plan -----------------------------------------------------------------

class RoutePlanTest : public ::testing::Test {
 protected:
  static MoeWorkload Make(int tp, int ep, int64_t tokens) {
    ModelConfig model;
    model.name = "t";
    model.layers = 1;
    model.num_experts = 8;
    model.topk = 2;
    model.embedding = 16;
    model.ffn_hidden = 32;
    WorkloadOptions options;
    options.seed = 5;
    options.materialize = false;
    return MakeWorkload(model, ParallelConfig{tp, ep}, tokens, options);
  }
};

TEST_F(RoutePlanTest, RowsCoverEveryPairExactlyOnce) {
  const MoeWorkload w = Make(1, 4, 64);
  int64_t total_rows = 0;
  for (int g = 0; g < 4; ++g) {
    total_rows += w.plan.ForGroup(g).TotalRows();
  }
  EXPECT_EQ(total_rows, 64 * 2);  // M * topk
}

TEST_F(RoutePlanTest, RowsAreTokenSortedPerExpert) {
  const MoeWorkload w = Make(1, 4, 64);
  for (int g = 0; g < 4; ++g) {
    for (const auto& slice : w.plan.ForGroup(g).experts) {
      for (size_t i = 1; i < slice.rows.size(); ++i) {
        EXPECT_LT(slice.rows[i - 1].token, slice.rows[i].token);
      }
    }
  }
}

TEST_F(RoutePlanTest, TpLanesShareThePlan) {
  const MoeWorkload w = Make(2, 2, 32);
  EXPECT_EQ(&w.plan.ForRank(0), &w.plan.ForRank(1));  // lanes of group 0
  EXPECT_EQ(&w.plan.ForRank(2), &w.plan.ForRank(3));
  EXPECT_NE(&w.plan.ForRank(0), &w.plan.ForRank(2));
}

TEST_F(RoutePlanTest, DispatchBytesLaneMatched) {
  const MoeWorkload w = Make(2, 2, 32);
  const auto bytes = w.plan.DispatchBytes(1.0);
  const int world = 4;
  for (int i = 0; i < world; ++i) {
    EXPECT_DOUBLE_EQ(bytes[static_cast<size_t>(i)][static_cast<size_t>(i)], 0.0);
    for (int j = 0; j < world; ++j) {
      if (i % 2 != j % 2) {
        // Cross-lane traffic never happens.
        EXPECT_DOUBLE_EQ(bytes[static_cast<size_t>(i)][static_cast<size_t>(j)],
                         0.0);
      }
    }
  }
}

TEST_F(RoutePlanTest, DispatchTotalsMatchRemoteRows) {
  const MoeWorkload w = Make(1, 4, 64);
  const auto bytes = w.plan.DispatchBytes(1.0);
  for (int r = 0; r < 4; ++r) {
    double incoming = 0.0;
    for (int s = 0; s < 4; ++s) {
      incoming += bytes[static_cast<size_t>(s)][static_cast<size_t>(r)];
    }
    EXPECT_DOUBLE_EQ(incoming, static_cast<double>(w.plan.RemoteRows(r)));
  }
}

TEST_F(RoutePlanTest, EpReturnMirrorsDispatch) {
  const MoeWorkload w = Make(1, 4, 64);
  const auto dispatch = w.plan.DispatchBytes(2.0);
  const auto ret = w.plan.EpReturnBytes(2.0);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(ret[static_cast<size_t>(i)][static_cast<size_t>(j)],
                       dispatch[static_cast<size_t>(j)][static_cast<size_t>(i)]);
    }
  }
}

TEST_F(RoutePlanTest, TpReduceScatterBytes) {
  const MoeWorkload w2 = Make(2, 2, 32);
  // (TP-1)/TP * tokens_per_group * bytes_per_row = 1/2 * 16 * 4.
  EXPECT_DOUBLE_EQ(w2.plan.TpReduceScatterBytesPerRank(4.0), 32.0);
  const MoeWorkload w1 = Make(1, 4, 64);
  EXPECT_DOUBLE_EQ(w1.plan.TpReduceScatterBytesPerRank(4.0), 0.0);
}

TEST_F(RoutePlanTest, GemmProblemShapes) {
  const MoeWorkload w = Make(2, 2, 32);
  const auto p0 = w.plan.Layer0Problems(0);
  const auto p1 = w.plan.Layer1Problems(0);
  ASSERT_EQ(p0.size(), 4u);  // E/EP = 4 local experts
  EXPECT_EQ(p0[0].n, 16);    // K/TP = 32/2
  EXPECT_EQ(p0[0].k, 16);    // N
  EXPECT_EQ(p1[0].n, 16);    // N
  EXPECT_EQ(p1[0].k, 16);    // K/TP
  EXPECT_EQ(p0[0].m, p1[0].m);
}

// ---- group gemm -----------------------------------------------------------------

TEST(GroupGemm, MatchesNaiveGemm) {
  Rng rng(21);
  const Tensor a = Tensor::Randn(Shape{7, 5}, rng);
  const Tensor b = Tensor::Randn(Shape{5, 9}, rng);
  Tensor c(Shape{7, 9});
  Gemm(a, b, c);
  for (int64_t i = 0; i < 7; ++i) {
    for (int64_t j = 0; j < 9; ++j) {
      float acc = 0.0f;
      for (int64_t k = 0; k < 5; ++k) {
        acc += a.at({i, k}) * b.at({k, j});
      }
      EXPECT_EQ(c.at({i, j}), acc);
    }
  }
}

// The NN kernel's contract: every C element is one p-ascending acc + a * b
// chain from +0, rounded once to C's dtype. Rows cover every remainder of
// the 8-row register block and both sides of the 32-row packing threshold;
// the column ranges cover every chunk width, in place and packed. Every
// non-NaN result must match bit for bit. A NaN must stay a NaN, but its
// payload is not compared: when two NaNs of different payload meet in an
// add, IEEE 754 leaves open which one survives, and x86 keeps the first
// operand's, whose order the compiler picks per instruction.
TEST(GroupGemm, TileKernelMatchesSingleChainReferenceBitForBit) {
  const int previous_threads = GlobalThreadCount();
  SetGlobalThreadCount(8);
  Rng rng(2016);
  constexpr float kUntouched = -7.0f;
  constexpr int64_t kRowOffset = 3;
  constexpr int64_t n = 49;  // widest range: offset 16 + width 33, at the edge
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const auto bits = [](float x) { return std::bit_cast<uint32_t>(x); };
  std::vector<int64_t> row_counts;
  for (int64_t r = 1; r <= 17; ++r) {
    row_counts.push_back(r);
  }
  row_counts.insert(row_counts.end(), {31, 32, 33, 128});
  for (DType dtype : {DType::kF32, DType::kBF16, DType::kF16}) {
    for (int64_t k : {0, 1, 7, 64, 129}) {
      for (int64_t rows : row_counts) {
        const int64_t m = kRowOffset + rows;
        Tensor a = Tensor::Randn(Shape{m, k}, rng, 1.0f, dtype);
        Tensor b = Tensor::Randn(Shape{k, n}, rng, 1.0f, dtype);
        if (k > 0) {
          // Signed zeros, infinities and a NaN, in rows and columns that
          // every column range below reaches.
          float* av = a.data().data();
          float* bv = b.data().data();
          av[(m - 1) * k + k / 2] = nan;
          av[kRowOffset * k] = inf;
          av[(m / 2) * k + k - 1] = -0.0f;
          bv[(k - 1) * n + 16] = -inf;
          bv[(k / 2) * n + 3] = 0.0f;
          bv[0 * n + 17] = -0.0f;
        }
        Tensor want(Shape{m, n}, dtype);
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (int64_t p = 0; p < k; ++p) {
              acc += a.data()[i * k + p] * b.data()[p * n + j];
            }
            want.data()[i * n + j] = QuantizeScalar(acc, dtype);
          }
        }
        const std::string shape = std::string(DTypeName(dtype)) +
                                  " k=" + std::to_string(k) +
                                  " rows=" + std::to_string(rows);
        int64_t mismatches = 0;
        std::string first;
        const auto check = [&](const Tensor& got, int64_t i, int64_t j,
                               float expected, const std::string& where) {
          const float value = got.data()[i * n + j];
          const bool same = std::isnan(expected)
                                ? std::isnan(value)
                                : bits(value) == bits(expected);
          if (!same) {
            if (mismatches++ == 0) {
              first = where + " at (" + std::to_string(i) + ", " +
                      std::to_string(j) + ")";
            }
          }
        };
        for (int64_t col_begin : {0, 3, 16}) {
          for (int64_t width = 1; width <= 33; ++width) {
            const int64_t col_end = col_begin + width;
            Tensor c = Tensor::Full(Shape{m, n}, kUntouched, dtype);
            GemmTile(a, b, c, kRowOffset, m, col_begin, col_end);
            const std::string where = "GemmTile " + shape +
                                      " cols [" + std::to_string(col_begin) +
                                      ", " + std::to_string(col_end) + ")";
            for (int64_t i = 0; i < m; ++i) {
              for (int64_t j = 0; j < n; ++j) {
                const bool inside =
                    i >= kRowOffset && j >= col_begin && j < col_end;
                check(c, i, j, inside ? want.data()[i * n + j] : kUntouched,
                      where);
              }
            }
          }
        }
        for (int threads : {1, 8}) {
          ScopedThreadLimit limit(threads);
          Tensor c = Tensor::Full(Shape{m, n}, kUntouched, dtype);
          Gemm(a, b, c);
          const std::string where =
              "Gemm threads=" + std::to_string(threads) + " " + shape;
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = 0; j < n; ++j) {
              check(c, i, j, want.data()[i * n + j], where);
            }
          }
        }
        EXPECT_EQ(mismatches, 0) << "first: " << first;
      }
    }
  }
  SetGlobalThreadCount(previous_threads);
}

TEST(GroupGemm, TileExecutionEqualsWhole) {
  Rng rng(22);
  const Tensor a = Tensor::Randn(Shape{13, 8}, rng);
  const Tensor b = Tensor::Randn(Shape{8, 11}, rng);
  Tensor whole(Shape{13, 11});
  Gemm(a, b, whole);
  Tensor tiled(Shape{13, 11});
  for (int64_t r = 0; r < 13; r += 4) {
    for (int64_t cc = 0; cc < 11; cc += 3) {
      GemmTile(a, b, tiled, r, std::min<int64_t>(r + 4, 13), cc,
               std::min<int64_t>(cc + 3, 11));
    }
  }
  EXPECT_EQ(Tensor::MaxAbsDiff(whole, tiled), 0.0f);
}

TEST(GroupGemm, TileOrderDoesNotChangeResult) {
  Rng rng(23);
  const Tensor a = Tensor::Randn(Shape{12, 6}, rng);
  const Tensor b = Tensor::Randn(Shape{6, 10}, rng);
  GroupGemmProblem problem;
  Tensor c1(Shape{12, 10});
  problem.a = {&a};
  problem.b = {&b};
  problem.c = {&c1};
  const auto tiles = EnumerateTiles(problem, 4, 4);
  RunGroupGemm(problem, tiles);

  Tensor c2(Shape{12, 10});
  problem.c = {&c2};
  auto reversed = tiles;
  std::reverse(reversed.begin(), reversed.end());
  RunGroupGemm(problem, reversed);
  EXPECT_EQ(Tensor::MaxAbsDiff(c1, c2), 0.0f);
}

TEST(GroupGemm, EnumerateCountsTiles) {
  const Tensor a = Tensor::Zeros(Shape{10, 4});
  const Tensor b = Tensor::Zeros(Shape{4, 6});
  Tensor c(Shape{10, 6});
  GroupGemmProblem problem;
  problem.a = {&a};
  problem.b = {&b};
  problem.c = {&c};
  EXPECT_EQ(EnumerateTiles(problem, 4, 4).size(), 6u);  // ceil(10/4)*ceil(6/4)
}

// ---- activation ------------------------------------------------------------------

TEST(Activation, GeluValues) {
  EXPECT_NEAR(GeluScalar(0.0f), 0.0f, 1e-6f);
  EXPECT_NEAR(GeluScalar(1.0f), 0.8412f, 1e-3f);
  EXPECT_NEAR(GeluScalar(-1.0f), -0.1588f, 1e-3f);
}

TEST(Activation, SiluValues) {
  EXPECT_NEAR(SiluScalar(0.0f), 0.0f, 1e-6f);
  EXPECT_NEAR(SiluScalar(1.0f), 0.7311f, 1e-3f);
}

TEST(Activation, TileApplicationMatchesWhole) {
  Rng rng(31);
  Tensor whole = Tensor::Randn(Shape{6, 8}, rng);
  Tensor tiled = whole;
  ApplyActivation(whole, ActivationKind::kGelu);
  for (int64_t r = 0; r < 6; r += 2) {
    for (int64_t c = 0; c < 8; c += 3) {
      ApplyActivationTile(tiled, ActivationKind::kGelu, r,
                          std::min<int64_t>(r + 2, 6), c,
                          std::min<int64_t>(c + 3, 8));
    }
  }
  EXPECT_EQ(Tensor::MaxAbsDiff(whole, tiled), 0.0f);
}

TEST(Activation, ReluAndIdentity) {
  Tensor t = Tensor::Full(Shape{1, 2}, -1.0f);
  Tensor id = t;
  ApplyActivation(t, ActivationKind::kRelu);
  EXPECT_EQ(t.at({0, 0}), 0.0f);
  ApplyActivation(id, ActivationKind::kIdentity);
  EXPECT_EQ(id.at({0, 0}), -1.0f);
}

// ---- GELU: bit-exact against fdlibm tanhf -------------------------------------------

// Inputs that reach every branch of fdlibm tanhf/expm1f and the kernel's
// vector lanes: +-4096 ulps around each branch threshold (as tanh inputs, and
// as the GELU inputs whose inner argument lands there), a stride-1021 sweep
// of all 2^32 bit patterns, and the specials.
std::vector<float> GeluProbeInputs() {
  std::vector<float> tanh_thresholds;
  // tanhf: |x| = 2^-55, 1, 22, inf.
  for (uint32_t bits : {0x24000000u, 0x3f800000u, 0x41b00000u, 0x7f800000u}) {
    tanh_thresholds.push_back(std::bit_cast<float>(bits));
  }
  // expm1f at its argument a = +-2|x|: |a| = 2^-25, 0.5 ln2, 1.5 ln2,
  // 27 ln2, and every boundary (k - 0.5) ln2 of the rounded reduction k.
  for (uint32_t bits : {0x33000000u, 0x3eb17218u, 0x3f851592u, 0x4195b844u}) {
    tanh_thresholds.push_back(std::bit_cast<float>(bits) / 2.0f);
  }
  for (int k = 2; k <= 64; ++k) {
    tanh_thresholds.push_back(static_cast<float>((k - 0.5) * std::log(2.0) / 2));
  }
  std::vector<float> centers;
  for (float v : tanh_thresholds) {
    centers.push_back(v);
    if (std::isinf(v)) continue;
    // The GELU input x with sqrt(2/pi) (x + 0.044715 x^3) = v, by Newton.
    double x = v;
    for (int i = 0; i < 60; ++i) {
      const double f = 0.7978845608028654 * (x + 0.044715 * x * x * x) - v;
      x -= f / (0.7978845608028654 * (1.0 + 3 * 0.044715 * x * x));
    }
    centers.push_back(static_cast<float>(x));
  }
  std::vector<float> inputs;
  for (float center : centers) {
    for (float sign : {1.0f, -1.0f}) {
      const int64_t c = std::bit_cast<uint32_t>(center);
      for (int64_t d = -4096; d <= 4096; ++d) {
        const int64_t b = c + d;
        if (b < 0 || b > 0x7f800000) continue;  // stay on one sign's line
        inputs.push_back(sign * std::bit_cast<float>(static_cast<uint32_t>(b)));
      }
    }
  }
  for (uint64_t b = 0; b < (uint64_t{1} << 32); b += 1021) {
    inputs.push_back(std::bit_cast<float>(static_cast<uint32_t>(b)));
  }
  for (uint32_t bits : {0x00000000u, 0x80000000u, 0x7f800000u, 0xff800000u,
                        0x7fc00000u, 0xffc00000u, 0x7fa00001u, 0xffbfffffu,
                        0x00000001u, 0x80000001u, 0x007fffffu, 0x807fffffu,
                        0x00400000u, 0x00800000u, 0x7f7fffffu, 0xff7fffffu}) {
    inputs.push_back(std::bit_cast<float>(bits));
  }
  return inputs;
}

// Index of the first element whose bits differ, or -1.
int64_t FirstBitMismatch(const std::vector<float>& got,
                         const std::vector<float>& want) {
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<uint32_t>(got[i]) != std::bit_cast<uint32_t>(want[i])) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

// The GELU derivative exactly as ActivationGradScalar writes it, on the
// reference tanhf.
float ReferenceGeluGrad(float x) {
  constexpr float kC = 0.7978845608028654f;
  const float x3 = x * x * x;
  const float inner = kC * (x + 0.044715f * x3);
  const float t = fdlibm_reference::Tanhf(inner);
  const float sech2 = 1.0f - t * t;
  const float dinner = kC * (1.0f + 3.0f * 0.044715f * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * sech2 * dinner;
}

TEST(Activation, GeluMatchesFdlibmReferenceBitForBit) {
  const std::vector<float> inputs = GeluProbeInputs();
  const size_t n = inputs.size();
  std::vector<float> got(n), want(n);
  auto expect_exact = [&](const char* what) {
    const int64_t i = FirstBitMismatch(got, want);
    EXPECT_EQ(i, -1) << what << " differs at x bits 0x" << std::hex
                     << std::bit_cast<uint32_t>(inputs[static_cast<size_t>(
                            std::max<int64_t>(i, 0))]);
  };
  for (size_t i = 0; i < n; ++i) {
    got[i] = TanhScalar(inputs[i]);
    want[i] = fdlibm_reference::Tanhf(inputs[i]);
  }
  expect_exact("TanhScalar");
  for (size_t i = 0; i < n; ++i) {
    got[i] = GeluScalar(inputs[i]);
    want[i] = fdlibm_reference::Gelu(inputs[i]);
  }
  expect_exact("GeluScalar");
  for (size_t i = 0; i < n; ++i) {
    got[i] = ActivationGradScalar(ActivationKind::kGelu, inputs[i]);
    want[i] = ReferenceGeluGrad(inputs[i]);
  }
  expect_exact("ActivationGradScalar");

  // The vectorized tile loop, at each dtype, over column ranges that leave
  // 1, 15, 1 and 1 tail lanes (16-lane vectors) from a misaligned start.
  // Columns outside the range must stay untouched.
  constexpr int64_t kColBegin = 3;
  for (DType dtype : {DType::kF32, DType::kBF16, DType::kF16}) {
    for (int64_t width : {int64_t{1}, int64_t{15}, int64_t{17}, int64_t{129}}) {
      // Every 7th input keeps the 12 passes quick; each pass still covers
      // every threshold neighborhood densely.
      std::vector<float> xs;
      for (size_t i = 0; i < n; i += 7) {
        xs.push_back(QuantizeScalar(inputs[i], dtype));
      }
      const int64_t rows =
          (static_cast<int64_t>(xs.size()) + width - 1) / width;
      const int64_t kCols = kColBegin + width + 3;
      Tensor t = Tensor::Full(Shape{rows, kCols}, 0.5f, dtype);
      for (size_t i = 0; i < xs.size(); ++i) {
        const int64_t r = static_cast<int64_t>(i) / width;
        const int64_t c = kColBegin + static_cast<int64_t>(i) % width;
        t.row(r)[static_cast<size_t>(c)] = xs[i];
      }
      ApplyActivationTile(t, ActivationKind::kGelu, 0, rows, kColBegin,
                          kColBegin + width);
      got.assign(xs.size(), 0.0f);
      want.assign(xs.size(), 0.0f);
      for (size_t i = 0; i < xs.size(); ++i) {
        const int64_t r = static_cast<int64_t>(i) / width;
        const int64_t c = kColBegin + static_cast<int64_t>(i) % width;
        got[i] = t.row(r)[static_cast<size_t>(c)];
        want[i] = QuantizeScalar(fdlibm_reference::Gelu(xs[i]), dtype);
      }
      const int64_t i = FirstBitMismatch(got, want);
      EXPECT_EQ(i, -1) << "ApplyActivationTile " << DTypeName(dtype)
                       << " width " << width << " differs at x bits 0x"
                       << std::hex
                       << std::bit_cast<uint32_t>(
                              xs[static_cast<size_t>(std::max<int64_t>(i, 0))]);
      bool outside_untouched = true;
      for (int64_t r = 0; r < rows; ++r) {
        const auto row = t.row(r);
        for (int64_t c = 0; c < kCols; ++c) {
          if (c >= kColBegin && c < kColBegin + width) continue;
          outside_untouched &= row[static_cast<size_t>(c)] == 0.5f;
        }
      }
      EXPECT_TRUE(outside_untouched)
          << DTypeName(dtype) << " width " << width;
    }
  }
}

// ---- sharded weights --------------------------------------------------------------

TEST(ShardedWeights, ShardsTileTheFullMatrices) {
  ModelConfig model;
  model.num_experts = 2;
  model.topk = 1;
  model.embedding = 4;
  model.ffn_hidden = 8;
  Rng rng(41);
  const ExpertWeights full = ExpertWeights::Random(model, rng);
  const ShardedExpertWeights sharded(full, 2);
  for (int64_t e = 0; e < 2; ++e) {
    for (int t = 0; t < 2; ++t) {
      const Tensor& w0 = sharded.W0Shard(e, t);
      EXPECT_EQ(w0.shape(), Shape({4, 4}));
      for (int64_t r = 0; r < 4; ++r) {
        for (int64_t c = 0; c < 4; ++c) {
          EXPECT_EQ(w0.at({r, c}), full.W0(e).at({r, t * 4 + c}));
        }
      }
      const Tensor& w1 = sharded.W1Shard(e, t);
      EXPECT_EQ(w1.shape(), Shape({4, 4}));
      for (int64_t r = 0; r < 4; ++r) {
        for (int64_t c = 0; c < 4; ++c) {
          EXPECT_EQ(w1.at({r, c}), full.W1(e).at({t * 4 + r, c}));
        }
      }
    }
  }
}

// ---- reference layers ---------------------------------------------------------------

TEST(ReferenceLayer, DenseAndShardedAgreeClosely) {
  ModelConfig model;
  model.name = "t";
  model.layers = 1;
  model.num_experts = 4;
  model.topk = 2;
  model.embedding = 16;
  model.ffn_hidden = 32;
  WorkloadOptions options;
  options.seed = 51;
  const MoeWorkload w =
      MakeWorkload(model, ParallelConfig{2, 2}, 32, options);
  const auto dense = ReferenceMoeLayer(w);
  const auto sharded = ShardedReferenceMoeLayer(w);
  ASSERT_EQ(dense.size(), sharded.size());
  for (size_t g = 0; g < dense.size(); ++g) {
    EXPECT_TRUE(Tensor::AllClose(dense[g], sharded[g], 1e-4f, 1e-4f));
  }
}

TEST(ReferenceLayer, TokensWithSameRouteGetSameOutput) {
  ModelConfig model;
  model.name = "t";
  model.layers = 1;
  model.num_experts = 2;
  model.topk = 1;
  model.embedding = 8;
  model.ffn_hidden = 16;
  WorkloadOptions options;
  options.seed = 52;
  MoeWorkload w = MakeWorkload(model, ParallelConfig{1, 1}, 8, options);
  // Force token 0 and 1 identical in input and routing.
  w.inputs[0].SetRow(1, w.inputs[0].row(0));
  w.routing.tokens[1] = w.routing.tokens[0];
  w.plan = RoutePlan(w.placement, w.routing);
  const auto out = ReferenceMoeLayer(w);
  for (int64_t c = 0; c < 8; ++c) {
    EXPECT_EQ(out[0].at({0, c}), out[0].at({1, c}));
  }
}

// ---- capacity-limited routing ---------------------------------------------------

TEST(CapacityFactor, EnforcesPerExpertBudget) {
  SyntheticRouter router(std::vector<double>{0.7, 0.1, 0.1, 0.1}, 17);
  RoutingTable table = router.Route(1000, 2);
  const DropStats stats = ApplyCapacityFactor(table, 4, 1.0);
  // capacity = ceil(1.0 * 2000 / 4) = 500 pairs per expert.
  EXPECT_EQ(stats.capacity, 500);
  const auto loads = table.ExpertLoads(4);
  for (int64_t l : loads) {
    EXPECT_LE(l, stats.capacity);
  }
  // The hot expert (p = 0.7) must have overflowed.
  EXPECT_GT(stats.dropped_pairs, 0);
  EXPECT_GT(stats.overflow_per_expert[0], 0);
  table.Validate(4, 2);
}

TEST(CapacityFactor, LargeFactorDropsNothing) {
  SyntheticRouter router(std::vector<double>{0.7, 0.1, 0.1, 0.1}, 17);
  RoutingTable table = router.Route(500, 2);
  const RoutingTable before = table;
  const DropStats stats = ApplyCapacityFactor(table, 4, 8.0);
  EXPECT_EQ(stats.dropped_pairs, 0);
  EXPECT_EQ(stats.fully_dropped_tokens, 0);
  for (size_t t = 0; t < table.tokens.size(); ++t) {
    EXPECT_EQ(table.tokens[t].experts, before.tokens[t].experts);
  }
}

TEST(CapacityFactor, SurvivingWeightsRenormalized) {
  RoutingTable table;
  table.tokens.push_back(TokenRoute{{0, 1}, {0.75f, 0.25f}});
  table.tokens.push_back(TokenRoute{{0, 1}, {0.6f, 0.4f}});
  table.tokens.push_back(TokenRoute{{0, 2}, {0.5f, 0.5f}});
  // 6 pairs, 3 experts, cf = 1/2 -> capacity ceil(6 * 0.5 / 3) = 1.
  const DropStats stats = ApplyCapacityFactor(table, 3, 0.5);
  EXPECT_EQ(stats.capacity, 1);
  // Token 0 keeps both (first come), token 1 loses both to capacity,
  // token 2 keeps only expert 2.
  EXPECT_EQ(table.tokens[0].experts.size(), 2u);
  EXPECT_TRUE(table.tokens[1].experts.empty());
  ASSERT_EQ(table.tokens[2].experts.size(), 1u);
  EXPECT_EQ(table.tokens[2].experts[0], 2);
  EXPECT_FLOAT_EQ(table.tokens[2].weights[0], 1.0f);
  EXPECT_EQ(stats.fully_dropped_tokens, 1);
  EXPECT_EQ(stats.dropped_pairs, 3);
}

TEST(CapacityFactor, DropFraction) {
  DropStats stats;
  stats.dropped_pairs = 25;
  EXPECT_DOUBLE_EQ(stats.DropFraction(100), 0.25);
  EXPECT_DOUBLE_EQ(stats.DropFraction(0), 0.0);
}

TEST(CapacityFactor, DroppedRoutingStillExecutesFunctionally) {
  ModelConfig model;
  model.name = "cap-test";
  model.layers = 1;
  model.num_experts = 4;
  model.topk = 2;
  model.embedding = 16;
  model.ffn_hidden = 24;
  WorkloadOptions options;
  options.seed = 23;
  options.load_std = 0.08;  // heavy imbalance so drops actually happen
  MoeWorkload w = MakeWorkload(model, ParallelConfig{1, 2}, 32, options);
  const DropStats stats = ApplyCapacityFactor(w.routing, 4, 0.75);
  ASSERT_GT(stats.dropped_pairs, 0);
  w.plan = RoutePlan(w.placement, w.routing);

  const auto dense = ReferenceMoeLayer(w);
  const auto sharded = ShardedReferenceMoeLayer(w);
  ASSERT_EQ(dense.size(), 2u);
  for (size_t g = 0; g < dense.size(); ++g) {
    EXPECT_TRUE(Tensor::AllClose(dense[g], sharded[g], 1e-4f, 1e-5f));
  }
}

TEST(CapacityFactor, FullyDroppedTokenOutputsZero) {
  ModelConfig model;
  model.name = "cap-zero";
  model.layers = 1;
  model.num_experts = 2;
  model.topk = 1;
  model.embedding = 8;
  model.ffn_hidden = 8;
  WorkloadOptions options;
  options.seed = 5;
  MoeWorkload w = MakeWorkload(model, ParallelConfig{1, 1}, 4, options);
  // Route everything to expert 0 then cap at 1 pair: tokens 1..3 drop fully.
  for (auto& t : w.routing.tokens) {
    t = TokenRoute{{0}, {1.0f}};
  }
  const DropStats stats = ApplyCapacityFactor(w.routing, 2, 0.5);
  EXPECT_EQ(stats.fully_dropped_tokens, 3);
  w.plan = RoutePlan(w.placement, w.routing);
  const auto out = ReferenceMoeLayer(w);
  for (int64_t t = 1; t < 4; ++t) {
    for (int64_t c = 0; c < 8; ++c) {
      EXPECT_EQ(out[0].at({t, c}), 0.0f);
    }
  }
}

// ---- gate scoring: bit-exact against the scalar loop -----------------------------

// Token t's gate probabilities as a per-element scalar loop computes them:
// each logit one n-ascending f32 chain from zero, then a max-subtracted
// softmax over the experts.
std::vector<float> ScalarGateProbs(const Tensor& tokens, const Tensor& gate,
                                   int64_t t) {
  const int64_t e_total = gate.cols();
  std::vector<float> probs(static_cast<size_t>(e_total));
  const auto x = tokens.row(t);
  for (int64_t e = 0; e < e_total; ++e) {
    float acc = 0.0f;
    for (int64_t n = 0; n < tokens.cols(); ++n) {
      acc += x[static_cast<size_t>(n)] * gate.at({n, e});
    }
    probs[static_cast<size_t>(e)] = acc;
  }
  const float max_logit = *std::max_element(probs.begin(), probs.end());
  float z = 0.0f;
  for (float& p : probs) {
    p = std::exp(p - max_logit);
    z += p;
  }
  for (float& p : probs) {
    p /= z;
  }
  return probs;
}

// Token-choice top-k over the scalar probabilities: iterative argmax, ties
// to the smaller expert, selected probabilities renormalized.
RoutingTable ScalarTopKRoute(const Tensor& tokens, const Tensor& gate,
                             int64_t topk) {
  RoutingTable table;
  table.tokens.resize(static_cast<size_t>(tokens.rows()));
  for (int64_t t = 0; t < tokens.rows(); ++t) {
    const std::vector<float> probs = ScalarGateProbs(tokens, gate, t);
    TokenRoute& route = table.tokens[static_cast<size_t>(t)];
    float sum = 0.0f;
    for (int64_t k = 0; k < topk; ++k) {
      int64_t best = -1;
      for (int64_t e = 0; e < gate.cols(); ++e) {
        const bool taken = std::find(route.experts.begin(), route.experts.end(),
                                     e) != route.experts.end();
        if (!taken && (best < 0 || probs[static_cast<size_t>(e)] >
                                       probs[static_cast<size_t>(best)])) {
          best = e;
        }
      }
      route.experts.push_back(best);
      route.weights.push_back(probs[static_cast<size_t>(best)]);
      sum += probs[static_cast<size_t>(best)];
    }
    for (float& w : route.weights) {
      w /= sum;
    }
  }
  return table;
}

void ExpectSameBits(const RoutingTable& got, const RoutingTable& want,
                    const std::string& where) {
  ASSERT_EQ(got.tokens.size(), want.tokens.size()) << where;
  for (size_t t = 0; t < want.tokens.size(); ++t) {
    const TokenRoute& g = got.tokens[t];
    const TokenRoute& w = want.tokens[t];
    ASSERT_EQ(g.experts.size(), w.experts.size()) << where << " token " << t;
    for (size_t i = 0; i < w.experts.size(); ++i) {
      EXPECT_EQ(g.experts[i], w.experts[i]) << where << " token " << t;
      EXPECT_EQ(std::bit_cast<uint32_t>(g.weights[i]),
                std::bit_cast<uint32_t>(w.weights[i]))
          << where << " token " << t << " slot " << i;
    }
  }
}

// Both gate entry points -- Route, and RouteInto reusing its scratch --
// against the scalar loop.
TEST(GateScoring, BothGatesMatchTheScalarLoopBitForBit) {
  const int previous_threads = GlobalThreadCount();
  SetGlobalThreadCount(8);
  Rng rng(2026);
  // One scratch and one table across every shape: the reuse path the
  // serving loop takes.
  GateScratch scratch;
  RoutingTable routed;
  for (int threads : {1, 8}) {
    ScopedThreadLimit limit(threads);
    for (DType dtype : {DType::kF32, DType::kBF16}) {
      for (int64_t n : {1, 15, 64, 257}) {
        for (int64_t e : {1, 3, 8, 17}) {
          const Tensor gate = Tensor::Randn(Shape{n, e}, rng, 0.5f);
          const GateNetwork network(gate);
          const int64_t topk = std::min<int64_t>(e, 2);
          for (int64_t m : {0, 1, 5, 33}) {
            const Tensor tokens = Tensor::Randn(Shape{m, n}, rng, 1.0f, dtype);
            const std::string where =
                "threads=" + std::to_string(threads) + " " +
                DTypeName(dtype) + " N=" + std::to_string(n) +
                " E=" + std::to_string(e) + " m=" + std::to_string(m);
            const RoutingTable want = ScalarTopKRoute(tokens, gate, topk);
            network.RouteInto(tokens, topk, scratch, &routed);
            ExpectSameBits(routed, want, "RouteInto " + where);
            ExpectSameBits(network.Route(tokens, topk), want,
                           "Route " + where);
          }
        }
      }
    }
  }
  SetGlobalThreadCount(previous_threads);
}

}  // namespace
}  // namespace comet
