// Property-based tests: parameterized sweeps over the configuration space
// asserting the invariants the system's correctness rests on.
#include <gtest/gtest.h>

#include <bit>
#include <tuple>

#include "baselines/fastermoe.h"
#include "baselines/megatron.h"
#include "baselines/tutel.h"
#include "comm/memory_planner.h"
#include "comm/symmetric_heap.h"
#include "core/comet_executor.h"
#include "moe/reference_layer.h"
#include "tests/route_plan_reference.h"
#include "sim/slot_pool.h"
#include "util/rng.h"
#include "util/stats.h"

namespace comet {
namespace {

// =======================================================================
// Property: COMET's functional execution is bit-exact vs the sharded
// reference for EVERY parallelism / topk / imbalance combination.
// =======================================================================

using ExactnessParam = std::tuple<int /*tp*/, int /*ep*/, int64_t /*topk*/,
                                  double /*load_std*/, bool /*reschedule*/>;

class CometExactness : public ::testing::TestWithParam<ExactnessParam> {};

TEST_P(CometExactness, BitExactVsShardedReference) {
  const auto [tp, ep, topk, load_std, reschedule] = GetParam();
  ModelConfig model;
  model.name = "prop";
  model.layers = 1;
  model.num_experts = 8;
  model.topk = topk;
  model.embedding = 24;
  model.ffn_hidden = 48;
  WorkloadOptions options;
  options.seed = 1000 + static_cast<uint64_t>(tp * 100 + ep * 10 + topk);
  options.load_std = load_std;
  const MoeWorkload w =
      MakeWorkload(model, ParallelConfig{tp, ep}, 48, options);

  const auto reference = ShardedReferenceMoeLayer(w);
  CometOptions comet_options;
  comet_options.reschedule = reschedule;
  comet_options.tile_m = 8;
  comet_options.tile_n = 8;
  CometExecutor comet{comet_options};
  const auto run =
      comet.Run(w, H800Cluster(tp * ep), ExecMode::kFunctional);
  ASSERT_EQ(run.outputs.size(), reference.size());
  for (size_t g = 0; g < reference.size(); ++g) {
    EXPECT_EQ(Tensor::MaxAbsDiff(run.outputs[g], reference[g]), 0.0f)
        << "group " << g;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParallelismSweep, CometExactness,
    ::testing::Values(
        ExactnessParam{1, 1, 2, 0.0, true}, ExactnessParam{1, 2, 2, 0.0, true},
        ExactnessParam{1, 4, 2, 0.03, true},
        ExactnessParam{1, 8, 2, 0.05, true},
        ExactnessParam{1, 8, 4, 0.02, true},
        ExactnessParam{2, 1, 2, 0.0, true}, ExactnessParam{4, 1, 2, 0.0, true},
        ExactnessParam{8, 1, 2, 0.02, true},
        ExactnessParam{2, 2, 2, 0.03, true},
        ExactnessParam{2, 4, 4, 0.0, true},
        ExactnessParam{4, 2, 4, 0.03, true},
        ExactnessParam{1, 4, 1, 0.0, true},
        ExactnessParam{2, 2, 8, 0.0, true},
        ExactnessParam{1, 4, 2, 0.03, false},
        ExactnessParam{2, 2, 4, 0.0, false},
        ExactnessParam{4, 2, 2, 0.05, false}));

// =======================================================================
// Property: RoutePlan/RoutingTable structural invariants under random
// configurations. 10 seeds x 20 random configs per test = 200 configs per
// property: every (token, slot) pair lands in the plan exactly once, row
// counts are conserved across the whole plan, and no entry addresses an
// out-of-range rank/expert/slot.
// =======================================================================

struct RandomPlanConfig {
  ModelConfig model;
  ParallelConfig parallel;
  int64_t tokens = 0;
  MoeWorkload workload;
};

RandomPlanConfig MakeRandomPlanConfig(Rng& rng) {
  const int tp = rng.UniformInt(0, 2) == 0 ? 1 : 2;
  const int ep = 1 << rng.UniformInt(0, 3);  // 1, 2, 4, 8
  ModelConfig model;
  model.name = "route-prop";
  model.layers = 1;
  model.num_experts = ep * rng.UniformInt(1, 4);
  model.topk = rng.UniformInt(1, std::min<int64_t>(model.num_experts, 4));
  model.embedding = 8;
  model.ffn_hidden = 8 * tp;
  const int64_t tokens = ep * rng.UniformInt(2, 24);
  WorkloadOptions options;
  options.seed = static_cast<uint64_t>(rng.UniformInt(1, 1 << 30));
  options.load_std = rng.Uniform(0.0, 0.05);
  options.materialize = false;  // plan metadata only
  const ParallelConfig parallel{tp, ep};
  return RandomPlanConfig{model, parallel, tokens,
                          MakeWorkload(model, parallel, tokens, options)};
}

class RoutePlanProperty : public ::testing::TestWithParam<uint64_t /*seed*/> {};

TEST_P(RoutePlanProperty, EveryPairDispatchedExactlyOnce) {
  Rng rng(1000 + GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const RandomPlanConfig c = MakeRandomPlanConfig(rng);
    const RoutePlan& plan = c.workload.plan;
    const Placement& placement = c.workload.placement;
    // Count, for every (token, slot), how many plan rows reference it.
    std::vector<int> seen(
        static_cast<size_t>(c.tokens * c.model.topk), 0);
    for (int g = 0; g < c.parallel.ep; ++g) {
      for (const ExpertSlice& slice : plan.ForGroup(g).experts) {
        for (const ExpertRow& row : slice.rows) {
          seen[static_cast<size_t>(row.token * c.model.topk + row.slot)]++;
          // The row must reproduce the routing decision exactly.
          const TokenRoute& route =
              c.workload.routing.tokens[static_cast<size_t>(row.token)];
          ASSERT_LT(static_cast<size_t>(row.slot), route.experts.size());
          EXPECT_EQ(route.experts[static_cast<size_t>(row.slot)],
                    slice.expert);
          EXPECT_EQ(route.weights[static_cast<size_t>(row.slot)], row.weight);
          EXPECT_EQ(placement.HomeGroupOfToken(row.token), row.source_group);
        }
      }
    }
    for (int64_t t = 0; t < c.tokens; ++t) {
      const TokenRoute& route =
          c.workload.routing.tokens[static_cast<size_t>(t)];
      for (int64_t k = 0; k < c.model.topk; ++k) {
        const int expected =
            k < static_cast<int64_t>(route.experts.size()) ? 1 : 0;
        EXPECT_EQ(seen[static_cast<size_t>(t * c.model.topk + k)], expected)
            << "token " << t << " slot " << k;
      }
    }
  }
}

TEST_P(RoutePlanProperty, RowCountsConservedAcrossPlan) {
  Rng rng(2000 + GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const RandomPlanConfig c = MakeRandomPlanConfig(rng);
    const RoutePlan& plan = c.workload.plan;
    int64_t total_pairs = 0;
    for (const TokenRoute& route : c.workload.routing.tokens) {
      total_pairs += static_cast<int64_t>(route.experts.size());
    }
    int64_t plan_rows = 0;
    for (int g = 0; g < c.parallel.ep; ++g) {
      plan_rows += plan.ForGroup(g).TotalRows();
    }
    EXPECT_EQ(plan_rows, total_pairs);
    // Per-rank views serve their group's plan; remote + local partitions it.
    for (int r = 0; r < c.parallel.world(); ++r) {
      const int g = c.workload.placement.EpGroupOfRank(r);
      EXPECT_EQ(plan.ForRank(r).TotalRows(), plan.ForGroup(g).TotalRows());
      EXPECT_EQ(plan.RemoteRows(r) + plan.LocalRows(r),
                plan.ForRank(r).TotalRows());
    }
    // Expert loads agree with the routing table's histogram.
    std::vector<int64_t> loads;
    c.workload.routing.ExpertLoadsInto(c.model.num_experts, &loads);
    for (int g = 0; g < c.parallel.ep; ++g) {
      for (const ExpertSlice& slice : plan.ForGroup(g).experts) {
        EXPECT_EQ(static_cast<int64_t>(slice.rows.size()),
                  loads[static_cast<size_t>(slice.expert)]);
      }
    }
  }
}

TEST_P(RoutePlanProperty, NoEntryAddressesOutOfRangeRankOrExpert) {
  Rng rng(3000 + GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const RandomPlanConfig c = MakeRandomPlanConfig(rng);
    const RoutePlan& plan = c.workload.plan;
    const Placement& placement = c.workload.placement;
    for (int g = 0; g < c.parallel.ep; ++g) {
      const RankPlan& rank_plan = plan.ForGroup(g);
      EXPECT_EQ(rank_plan.ep_group, g);
      EXPECT_EQ(static_cast<int64_t>(rank_plan.experts.size()),
                placement.ExpertsPerGroup());
      for (const ExpertSlice& slice : rank_plan.experts) {
        EXPECT_GE(slice.expert, 0);
        EXPECT_LT(slice.expert, c.model.num_experts);
        // The group only hosts its own experts.
        EXPECT_EQ(placement.EpGroupOfExpert(slice.expert), g);
        for (const ExpertRow& row : slice.rows) {
          EXPECT_GE(row.token, 0);
          EXPECT_LT(row.token, c.tokens);
          EXPECT_GE(row.slot, 0);
          EXPECT_LT(row.slot, c.model.topk);
          EXPECT_GE(row.source_group, 0);
          EXPECT_LT(row.source_group, c.parallel.ep);
          EXPECT_GE(row.weight, 0.0f);
        }
      }
    }
    // Routing table invariants hold for every generated table.
    c.workload.routing.Validate(c.model.num_experts, c.model.topk);
  }
}

// The traffic RoutePlan reads from its (source group, destination group)
// row counts equals the per-row walk of route_plan_reference.h bit for bit:
// random routings (some with capacity drops), TP 1, 2 and 4, replica
// assignments, integral row sizes, and a plan rebuilt over an earlier one.
TEST_P(RoutePlanProperty, PairCountsMatchPerRowWalk) {
  Rng rng(4000 + GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const int tp = 1 << rng.UniformInt(0, 2);  // 1, 2, 4
    const int ep = 1 << rng.UniformInt(0, 3);  // 1, 2, 4, 8
    ModelConfig model;
    model.name = "pair-counts";
    model.layers = 1;
    model.num_experts = ep * rng.UniformInt(1, 4);
    model.topk = rng.UniformInt(1, std::min<int64_t>(model.num_experts, 4));
    model.embedding = 8;
    model.ffn_hidden = 8 * tp;
    const int64_t tokens = ep * rng.UniformInt(1, 40);
    const Placement placement(model, ParallelConfig{tp, ep}, tokens);
    SyntheticRouter router(
        rng.LoadVectorWithStd(static_cast<size_t>(model.num_experts),
                              rng.Uniform(0.0, 0.1)),
        static_cast<uint64_t>(rng.UniformInt(1, 1 << 30)));
    RoutingTable earlier = router.Route(tokens, model.topk);
    RoutingTable routing = router.Route(tokens, model.topk);
    if (rng.UniformInt(0, 2) == 0) {
      ApplyCapacityFactor(routing, model.num_experts, 1.0);
    }

    // Up to three replica slots, each active with probability 3/4 on a
    // distinct expert away from its home group.
    const int max_replicas = ep > 1 ? static_cast<int>(rng.UniformInt(0, 3)) : 0;
    std::vector<ReplicaAssignment> replicas;
    std::vector<bool> replicated(static_cast<size_t>(model.num_experts));
    for (int slot = 0; slot < max_replicas; ++slot) {
      const int64_t e = rng.UniformInt(0, model.num_experts - 1);
      if (rng.UniformInt(0, 3) == 0 || replicated[static_cast<size_t>(e)]) {
        continue;
      }
      const int home = placement.EpGroupOfExpert(e);
      const int group =
          (home + static_cast<int>(rng.UniformInt(1, ep - 1))) % ep;
      replicated[static_cast<size_t>(e)] = true;
      replicas.push_back(ReplicaAssignment{e, group, slot});
    }
    RoutePlan plan;
    plan.Reserve(placement, tokens, max_replicas);
    plan.Rebuild(placement, earlier);
    plan.Rebuild(placement, routing, replicas);

    const double row_bytes[] = {
        1.0, 2.0, 4096.0 * 2.0, 7168.0 * 4.0,
        static_cast<double>(rng.UniformInt(1, int64_t{1} << 20))};
    for (const double b : row_bytes) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " tp=" +
                   std::to_string(tp) + " ep=" + std::to_string(ep) +
                   " replicas=" + std::to_string(replicas.size()) +
                   " bytes_per_row=" + std::to_string(b));
      const auto dispatch = plan.DispatchBytes(b);
      const auto ret = plan.EpReturnBytes(b);
      const auto want_dispatch = route_plan_reference::DispatchBytes(plan, b);
      const auto want_ret = route_plan_reference::EpReturnBytes(plan, b);
      ASSERT_EQ(dispatch.size(), want_dispatch.size());
      ASSERT_EQ(ret.size(), want_ret.size());
      for (size_t i = 0; i < dispatch.size(); ++i) {
        for (size_t j = 0; j < dispatch.size(); ++j) {
          ASSERT_EQ(std::bit_cast<uint64_t>(dispatch[i][j]),
                    std::bit_cast<uint64_t>(want_dispatch[i][j]))
              << i << " -> " << j;
          ASSERT_EQ(std::bit_cast<uint64_t>(ret[i][j]),
                    std::bit_cast<uint64_t>(want_ret[i][j]))
              << i << " -> " << j;
        }
      }
    }
    for (int r = 0; r < placement.world(); ++r) {
      EXPECT_EQ(plan.RemoteRows(r), route_plan_reference::RemoteRows(plan, r))
          << "rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutePlanProperty,
                         ::testing::Range(uint64_t{0}, uint64_t{10}));

// =======================================================================
// Property: slot-pool schedules respect resource and readiness invariants
// under random task sets.
// =======================================================================

class SlotPoolProperty : public ::testing::TestWithParam<int /*slots*/> {};

TEST_P(SlotPoolProperty, SchedulesAreFeasible) {
  const int slots = GetParam();
  Rng rng(77 + static_cast<uint64_t>(slots));
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<SlotTask> tasks;
    const int n = static_cast<int>(rng.UniformInt(1, 60));
    for (int i = 0; i < n; ++i) {
      tasks.push_back(SlotTask{rng.Uniform(0.0, 50.0), rng.Uniform(0.1, 5.0)});
    }
    const SlotSchedule s = ScheduleInOrder(tasks, slots, 0.0);
    ASSERT_EQ(s.tasks.size(), tasks.size());
    // (1) No task starts before it is ready.
    for (size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_GE(s.tasks[i].start_us, tasks[i].ready_us - 1e-9);
      EXPECT_NEAR(s.tasks[i].end_us - s.tasks[i].start_us,
                  tasks[i].duration_us, 1e-9);
    }
    // (2) At no time do more than `slots` tasks run concurrently: check
    // at every start point.
    for (size_t i = 0; i < tasks.size(); ++i) {
      int running = 0;
      const double t = s.tasks[i].start_us;
      for (size_t j = 0; j < tasks.size(); ++j) {
        if (s.tasks[j].start_us <= t && t < s.tasks[j].end_us) {
          ++running;
        }
      }
      EXPECT_LE(running, slots);
    }
    // (3) Makespan is the max end time.
    double max_end = 0.0;
    for (const auto& st : s.tasks) {
      max_end = std::max(max_end, st.end_us);
    }
    EXPECT_DOUBLE_EQ(s.makespan_us, max_end);
  }
}

INSTANTIATE_TEST_SUITE_P(SlotCounts, SlotPoolProperty,
                         ::testing::Values(1, 2, 7, 32));

// =======================================================================
// Property: work conservation -- the slot-pool makespan is bounded below by
// both the critical path and total-work/slots, and above by the 2x greedy
// bound (list scheduling).
// =======================================================================

TEST(SlotPoolBounds, GreedyWithinClassicBounds) {
  Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    const int slots = static_cast<int>(rng.UniformInt(1, 16));
    std::vector<SlotTask> tasks;
    const int n = static_cast<int>(rng.UniformInt(1, 100));
    double total = 0.0;
    double longest = 0.0;
    for (int i = 0; i < n; ++i) {
      const double d = rng.Uniform(0.1, 3.0);
      tasks.push_back(SlotTask{0.0, d});
      total += d;
      longest = std::max(longest, d);
    }
    const SlotSchedule s = ScheduleInOrder(tasks, slots);
    EXPECT_GE(s.makespan_us + 1e-9, total / slots);
    EXPECT_GE(s.makespan_us + 1e-9, longest);
    EXPECT_LE(s.makespan_us, total / slots + longest + 1e-9);
  }
}

// =======================================================================
// Property: the load-vector generator hits its std target across sizes.
// =======================================================================

using LoadParam = std::tuple<size_t /*n*/, double /*std*/>;

class LoadVectorProperty : public ::testing::TestWithParam<LoadParam> {};

TEST_P(LoadVectorProperty, SumsToOneAndTracksStd) {
  const auto [n, target] = GetParam();
  Rng rng(5 + n);
  const auto v = rng.LoadVectorWithStd(n, target);
  ASSERT_EQ(v.size(), n);
  double sum = 0.0;
  for (double p : v) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  if (target > 0.0) {
    EXPECT_NEAR(PopulationStddev(v), target, target * 0.3);
  } else {
    EXPECT_DOUBLE_EQ(PopulationStddev(v), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LoadVectorProperty,
                         ::testing::Values(LoadParam{8, 0.0},
                                           LoadParam{8, 0.032},
                                           LoadParam{16, 0.02},
                                           LoadParam{64, 0.005},
                                           LoadParam{64, 0.01}));

// =======================================================================
// Property: timing duration is monotone in token count for every executor.
// =======================================================================

class MonotoneDuration : public ::testing::TestWithParam<int /*which*/> {};

TEST_P(MonotoneDuration, MoreTokensNeverFaster) {
  ModelConfig model;
  model.name = "prop";
  model.layers = 1;
  model.num_experts = 8;
  model.topk = 2;
  model.embedding = 512;
  model.ffn_hidden = 1024;
  const auto cluster = H800Cluster(4);

  MegatronExecutor cutlass = MakeMegatronCutlass();
  MegatronExecutor te = MakeMegatronTe();
  FasterMoeExecutor fastermoe;
  TutelExecutor tutel;
  CometExecutor comet;
  MoeLayerExecutor* executors[] = {&cutlass, &te, &fastermoe, &tutel, &comet};
  MoeLayerExecutor* exec = executors[GetParam()];

  double prev = 0.0;
  for (int64_t m : {512, 2048, 8192}) {
    WorkloadOptions options;
    options.seed = 4;
    options.materialize = false;
    const MoeWorkload w =
        MakeWorkload(model, ParallelConfig{1, 4}, m, options);
    const double us = exec->Run(w, cluster, ExecMode::kTimedOnly).duration_us;
    EXPECT_GE(us, prev) << exec->name() << " at M=" << m;
    prev = us;
  }
}

INSTANTIATE_TEST_SUITE_P(AllExecutors, MonotoneDuration,
                         ::testing::Range(0, 5));

// =======================================================================
// Property: for ONE RoutePlan, the symmetric-heap traffic at a 2-byte
// dtype is EXACTLY half the f32 traffic (same rows move, every element
// half the width), the byte totals equal the plan's remote-row count
// times the row width, and heap allocations reconcile with the memory
// planner's dtype-width formula (2MN at BF16/FP16, 4MN at f32 -- paper
// Table 3). 100 randomized configs.
// =======================================================================

class DtypeTrafficProperty : public ::testing::TestWithParam<int> {};

TEST_P(DtypeTrafficProperty, TwoByteTrafficHalvesAndReconcilesWithPlanner) {
  const int seed = GetParam();
  Rng rng(9000 + static_cast<uint64_t>(seed));

  const int ep_choices[] = {1, 2, 4, 8};
  const int ep = ep_choices[rng.UniformInt(0, 3)];
  ModelConfig model;
  model.name = "traffic-prop";
  model.layers = 1;
  model.num_experts = ep * rng.UniformInt(1, 4);
  model.topk = rng.UniformInt(1, std::min<int64_t>(model.num_experts, 4));
  model.embedding = 8 * rng.UniformInt(1, 8);
  model.ffn_hidden = 2 * model.embedding;
  const int64_t tokens = ep * rng.UniformInt(4, 32);

  WorkloadOptions options;
  options.seed = 700 + static_cast<uint64_t>(seed);
  options.load_std = rng.Uniform(0.0, 0.05);
  options.materialize = false;  // only the RoutePlan matters here
  const MoeWorkload w =
      MakeWorkload(model, ParallelConfig{1, ep}, tokens, options);

  // Drive the plan's dispatch gathers through a heap at `dtype`: every rank
  // reads each of its planned rows from the row's home rank, exactly like
  // the executors' layer0 gather.
  const auto drive = [&](DType dtype) {
    SymmetricHeap heap(ep);
    const SymmetricBufferId in_buf = heap.Allocate(
        "in", Shape{w.placement.tokens_per_group(), model.embedding}, dtype);
    // Allocation sizes must match the planner at this dtype: the planner's
    // Bytes() IS tokens * embedding * width(dtype).
    EXPECT_DOUBLE_EQ(
        heap.AllocatedBytesPerRank(),
        PlanCommBuffer(w.placement.tokens_per_group(), model.embedding, dtype)
            .Bytes());
    std::vector<float> row(static_cast<size_t>(model.embedding), 0.0f);
    for (int r = 0; r < ep; ++r) {
      for (const auto& slice : w.plan.ForRank(r).experts) {
        for (const ExpertRow& er : slice.rows) {
          const int src = w.placement.RankOf(er.source_group, 0);
          heap.CopyRow(in_buf, r, src,
                       er.token - w.placement.FirstTokenOfGroup(er.source_group),
                       row);
        }
      }
    }
    return heap.TotalTraffic();
  };

  int64_t remote_rows = 0;
  for (int r = 0; r < ep; ++r) {
    remote_rows += w.plan.RemoteRows(r);
  }

  const double t_f32 = drive(DType::kF32);
  const double t_bf16 = drive(DType::kBF16);
  const double t_f16 = drive(DType::kF16);
  EXPECT_EQ(t_f32, static_cast<double>(remote_rows * model.embedding * 4));
  EXPECT_EQ(t_bf16, static_cast<double>(remote_rows * model.embedding * 2));
  EXPECT_EQ(t_f16, t_bf16);
  EXPECT_EQ(t_f32, 2.0 * t_bf16) << "ep=" << ep << " tokens=" << tokens;
}

INSTANTIATE_TEST_SUITE_P(HundredConfigs, DtypeTrafficProperty,
                         ::testing::Range(0, 100));

}  // namespace
}  // namespace comet
