// The adaptation-plane regression tier (docs/ARCHITECTURE.md, "The
// adaptation plane").
//
// Four layers of pinning:
//  1. Knob validation: every new adaptation/skew/length-distribution knob
//     fails loudly at configuration time (CheckError), not at first use.
//  2. Policy properties: the HotExpertTracker detects a hot expert within a
//     bounded number of iterations, places replicas on the least-loaded
//     group (documented tie rules), and never flaps (hysteresis band +
//     per-slot cooldown), under both crafted and randomized load sequences.
//  3. Contract A -- adaptation OFF is byte-identical to the PR 8 serving
//     plane: the serve digests re-pin the alloc_test goldens.
//  4. Contract B -- adaptation ON is bit-deterministic across host threads
//     {1,8} x EP {1,4}, and bit-TRANSPARENT: replica slices compute the
//     same bits as home slices, so with identical batch compositions the
//     combined output digest with replication on equals the digest with it
//     off while promotions actually happened.
// Plus the steady-state zero-allocation envelope with adaptation enabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "hw/gpu_spec.h"
#include "moe/router.h"
#include "serve/adaptation.h"
#include "serve/cluster.h"
#include "serve/loadgen.h"
#include "serve/request.h"
#include "serve/server.h"
#include "util/alloc_counter.h"
#include "util/check.h"
#include "util/rng.h"

namespace comet {
namespace {

using util::AllocStats;
using util::AllocWindow;

// ---- knob validation (loud, at configuration time) -------------------------

TEST(AdaptationOptionsValidate, RejectsBadKnobs) {
  AdaptationOptions ok;
  EXPECT_NO_THROW(ok.Validate());

  AdaptationOptions o = ok;
  o.ewma_decay = 0.0;
  EXPECT_THROW(o.Validate(), CheckError) << "decay must be in (0, 1]";
  o = ok;
  o.ewma_decay = 1.5;
  EXPECT_THROW(o.Validate(), CheckError);
  o = ok;
  o.cool_factor = o.hot_factor;  // hysteresis band collapses
  EXPECT_THROW(o.Validate(), CheckError);
  o = ok;
  o.cool_factor = -0.1;
  EXPECT_THROW(o.Validate(), CheckError);
  o = ok;
  o.max_replicated_experts = -1;
  EXPECT_THROW(o.Validate(), CheckError);
  o = ok;
  o.cooldown_iterations = -1;
  EXPECT_THROW(o.Validate(), CheckError);
}

TEST(LengthDistValidate, RejectsBrokenDistributionsAtConstruction) {
  LengthDist empty_range = LengthDist::Uniform(5, 2);
  EXPECT_THROW(empty_range.Validate(), CheckError);
  LengthDist bad_fraction = LengthDist::Bimodal(4, 32, 1.5);
  EXPECT_THROW(bad_fraction.Validate(), CheckError);
  EXPECT_NO_THROW(LengthDist::Uniform(2, 2).Validate());
  EXPECT_NO_THROW(LengthDist::Bimodal(4, 32, 0.0).Validate());

  // The load generator trips the same checks up front -- a malformed
  // distribution must not emit a single request.
  LoadGenOptions lo;
  lo.prompt = empty_range;
  EXPECT_THROW(LoadGenerator{lo}, CheckError);
  LoadGenOptions lo2;
  lo2.decode = bad_fraction;
  EXPECT_THROW(LoadGenerator{lo2}, CheckError);
}

// ---- dtype-aware RoutingTable::Validate ------------------------------------

TEST(RoutingValidate, WeightSumToleranceIsDtypeAware) {
  // Combine weights as a bf16 quantizer would leave them: each weight is
  // correctly rounded, the sum sits ~4e-3 from 1 -- inside topk bf16 ulps,
  // far outside the old fixed 1e-4.
  RoutingTable t;
  TokenRoute r;
  r.experts.push_back(0);
  r.experts.push_back(1);
  r.weights.push_back(0.501f);
  r.weights.push_back(0.503f);  // sum 1.004
  t.tokens.push_back(r);

  EXPECT_THROW(t.Validate(8, 2), CheckError)
      << "at f32 the tolerance stays 1e-4; a 4e-3 error is a real bug there";
  EXPECT_NO_THROW(t.Validate(8, 2, DType::kBF16))
      << "bf16-quantized weights are correctly-rounded values; rejecting "
         "them would make every quantized serving batch invalid";
}

TEST(RoutingValidate, GenuinelyBrokenWeightsFailAtEveryDtype) {
  RoutingTable t;
  TokenRoute r;
  r.experts.push_back(0);
  r.experts.push_back(1);
  r.weights.push_back(0.9f);
  r.weights.push_back(0.6f);  // sum 1.5: broken, not a rounding artifact
  t.tokens.push_back(r);
  EXPECT_THROW(t.Validate(8, 2), CheckError);
  EXPECT_THROW(t.Validate(8, 2, DType::kBF16), CheckError);
  EXPECT_THROW(t.Validate(8, 2, DType::kF16), CheckError);
}

// ---- HotExpertTracker policy properties ------------------------------------

AdaptationOptions TrackerOptions() {
  AdaptationOptions o;
  o.enabled = true;
  o.ewma_decay = 0.25;
  o.hot_factor = 1.75;
  o.cool_factor = 1.25;
  o.max_replicated_experts = 1;
  o.cooldown_iterations = 4;
  return o;
}

TEST(HotExpertTracker, DetectsSustainedHotExpertWithinKIterations) {
  HotExpertTracker tracker(TrackerOptions(), /*num_experts=*/8, /*ep=*/4);
  // Expert 3 takes half the traffic, everyone else splits the rest.
  std::vector<int64_t> loads = {2, 2, 2, 14, 2, 2, 2, 2};
  int promoted_at = -1;
  for (int iter = 0; iter < 10; ++iter) {
    tracker.Observe(loads);
    for (const auto& ev : tracker.events()) {
      if (ev.promote) {
        EXPECT_EQ(ev.expert, 3);
        promoted_at = iter;
      }
    }
    if (promoted_at >= 0) {
      break;
    }
  }
  ASSERT_GE(promoted_at, 0) << "a 50%-load expert must be detected";
  EXPECT_LE(promoted_at, 5) << "EWMA at decay 0.25 crosses 1.75/E fast";
  EXPECT_EQ(tracker.active_replicas(), 1);
}

TEST(HotExpertTracker, ReplicaLandsOnLeastLoadedGroupLowestIndexTie) {
  // E=8, EP=4, epg=2. Hot expert 0 lives in group 0. All other groups are
  // equally idle -> the documented tie rule picks the lowest group index.
  AdaptationOptions o = TrackerOptions();
  o.ewma_decay = 1.0;  // no smoothing: the decision reads this iteration
  {
    HotExpertTracker tracker(o, 8, 4);
    std::vector<int64_t> loads = {100, 0, 0, 0, 0, 0, 0, 0};
    ASSERT_EQ(tracker.Observe(loads), 1);
    const auto& ev = tracker.events()[0];
    EXPECT_TRUE(ev.promote);
    EXPECT_EQ(ev.expert, 0);
    EXPECT_EQ(ev.ep_group, 1) << "tie among groups 1..3 -> lowest index";
    EXPECT_EQ(ev.slot, 0);
  }
  {
    // Now give groups distinct loads: expert 2 (group 1) carries 1/3 and
    // expert 6 (group 3) 1/9 -- group 2 is the genuinely least loaded.
    HotExpertTracker tracker(o, 8, 4);
    std::vector<int64_t> loads = {50, 0, 30, 0, 0, 0, 10, 0};
    ASSERT_EQ(tracker.Observe(loads), 1);
    const auto& ev = tracker.events()[0];
    EXPECT_EQ(ev.expert, 0);
    EXPECT_EQ(ev.ep_group, 2) << "least effective load among groups != home";
  }
}

TEST(HotExpertTracker, HottestExpertWinsLowestIndexTie) {
  AdaptationOptions o = TrackerOptions();
  o.ewma_decay = 1.0;
  HotExpertTracker tracker(o, 8, 4);
  // Experts 1 and 5 both above threshold; 5 hotter -> 5 wins.
  std::vector<int64_t> loads = {0, 30, 0, 0, 0, 60, 0, 10};
  ASSERT_EQ(tracker.Observe(loads), 1);
  EXPECT_EQ(tracker.events()[0].expert, 5);

  // Exact tie between 2 and 6 -> lowest expert index.
  HotExpertTracker tracker2(o, 8, 4);
  std::vector<int64_t> tie = {0, 0, 50, 0, 0, 0, 50, 0};
  ASSERT_EQ(tracker2.Observe(tie), 1);
  EXPECT_EQ(tracker2.events()[0].expert, 2);
}

TEST(HotExpertTracker, Ep1NeverPromotes) {
  HotExpertTracker tracker(TrackerOptions(), 8, /*ep=*/1);
  std::vector<int64_t> loads = {100, 0, 0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(tracker.Observe(loads), 0) << "no other group to replicate to";
  }
  EXPECT_EQ(tracker.promotions(), 0);
}

TEST(HotExpertTracker, RetireRespectsHysteresisAndCooldown) {
  AdaptationOptions o = TrackerOptions();  // cooldown 4
  HotExpertTracker tracker(o, 8, 4);
  std::vector<int64_t> hot = {0, 0, 0, 100, 0, 0, 0, 0};
  std::vector<int64_t> uniform = {1, 1, 1, 1, 1, 1, 1, 1};

  // Promote, then go uniform immediately. The EWMA must fall below
  // cool_factor/E AND the slot cooldown must elapse before the retire.
  int iter = 0;
  int promote_iter = -1;
  while (promote_iter < 0) {
    tracker.Observe(hot);
    if (!tracker.events().empty() && tracker.events()[0].promote) {
      promote_iter = iter;
    }
    ++iter;
    ASSERT_LT(iter, 10);
  }
  int retire_iter = -1;
  for (int i = 0; i < 40 && retire_iter < 0; ++i) {
    tracker.Observe(uniform);
    if (!tracker.events().empty() && !tracker.events()[0].promote) {
      retire_iter = iter;
    }
    ++iter;
  }
  ASSERT_GE(retire_iter, 0) << "a cooled expert must eventually retire";
  EXPECT_GE(retire_iter - promote_iter, o.cooldown_iterations)
      << "the per-slot cooldown gates retirement";
  EXPECT_EQ(tracker.active_replicas(), 0);
  EXPECT_EQ(tracker.retirements(), 1);

  // Immediately hot again: the just-retired slot is quiescent, so no
  // promotion can land for cooldown_iterations more observations.
  int repromote_gap = -1;
  for (int i = 0; i < 20; ++i) {
    tracker.Observe(hot);
    if (!tracker.events().empty() && tracker.events()[0].promote) {
      repromote_gap = i;
      break;
    }
  }
  ASSERT_GE(repromote_gap, 0);
  EXPECT_GE(repromote_gap, o.cooldown_iterations - 1)
      << "slot reuse inside the cooldown window is flapping";
}

TEST(HotExpertTracker, RandomizedInvariants) {
  AdaptationOptions o = TrackerOptions();
  o.max_replicated_experts = 2;
  o.hot_factor = 1.4;
  o.cool_factor = 1.1;
  HotExpertTracker tracker(o, 8, 4);
  Rng rng(20260807);
  std::vector<int64_t> loads(8, 0);
  std::vector<int> last_event_iter(static_cast<size_t>(
                                       o.max_replicated_experts),
                                   -1000);
  for (int iter = 0; iter < 400; ++iter) {
    // Oscillating skew: phases of concentrated load on a walking expert,
    // interleaved with uniform phases -- the flap-bait profile.
    const int hot_e = (iter / 25) % 8;
    for (int e = 0; e < 8; ++e) {
      const int64_t base = rng.UniformInt(0, 3);
      loads[static_cast<size_t>(e)] =
          base + (e == hot_e && (iter / 25) % 2 == 0 ? 40 : 0);
    }
    const int n = tracker.Observe(loads);
    ASSERT_LE(n, 2);
    for (const auto& ev : tracker.events()) {
      ASSERT_GE(ev.slot, 0);
      ASSERT_LT(ev.slot, o.max_replicated_experts);
      // Anti-flap: consecutive transitions through one slot are separated
      // by at least the cooldown.
      EXPECT_GE(iter - last_event_iter[static_cast<size_t>(ev.slot)],
                o.cooldown_iterations)
          << "slot " << ev.slot << " flapped at iteration " << iter;
      last_event_iter[static_cast<size_t>(ev.slot)] = iter;
      if (ev.promote) {
        EXPECT_GE(tracker.ewma(ev.expert), o.hot_factor / 8.0);
      }
    }
    // Structural invariants of the replica set, every iteration.
    ASSERT_LE(tracker.active_replicas(), o.max_replicated_experts);
    std::vector<int64_t> seen;
    for (const ReplicaAssignment& a : tracker.replicas()) {
      if (a.expert < 0) {
        continue;
      }
      EXPECT_NE(a.ep_group, static_cast<int>(a.expert / 2))
          << "replica on its home group";
      EXPECT_TRUE(std::find(seen.begin(), seen.end(), a.expert) == seen.end())
          << "expert replicated twice";
      seen.push_back(a.expert);
    }
  }
  EXPECT_GT(tracker.promotions(), 0) << "the flap-bait profile must promote";
  EXPECT_GT(tracker.retirements(), 0);
}

// ---- synthetic routing: drift is a pure rotation ---------------------------

TEST(SyntheticRouting, ShiftZeroMatchesRouteAndShiftRotates) {
  const std::vector<double> load = Rng(5).LoadVectorWithStd(8, 0.1);
  SyntheticRouter a(load, 7);
  SyntheticRouter b(load, 7);
  SyntheticRouter c(load, 7);
  RoutingTable ta = a.Route(32, 2);
  RoutingTable tb;
  b.RouteInto(32, 2, /*shift=*/0, &tb);
  RoutingTable tc;
  c.RouteInto(32, 2, /*shift=*/3, &tc);
  ASSERT_EQ(tb.size(), ta.size());
  ASSERT_EQ(tc.size(), ta.size());
  for (int64_t t = 0; t < ta.size(); ++t) {
    const auto& ra = ta.tokens[static_cast<size_t>(t)];
    const auto& rb = tb.tokens[static_cast<size_t>(t)];
    const auto& rc = tc.tokens[static_cast<size_t>(t)];
    ASSERT_EQ(rb.experts, ra.experts);
    ASSERT_EQ(rb.weights, ra.weights);
    ASSERT_EQ(rc.weights, ra.weights)
        << "the shift must not perturb the draw sequence";
    ASSERT_EQ(rc.experts.size(), ra.experts.size());
    for (size_t k = 0; k < ra.experts.size(); ++k) {
      EXPECT_EQ(rc.experts[k], (ra.experts[k] + 3) % 8);
    }
  }
}

// ---- the serving scenario (mirrors serve_test/alloc_test helpers) ----------

ModelConfig ServeModel() {
  ModelConfig m;
  m.name = "serve-tiny";
  m.layers = 1;
  m.num_experts = 8;
  m.topk = 2;
  m.embedding = 32;
  m.ffn_hidden = 64;
  return m;
}

ServeOptions BaseServeOptions(int ep, DType dtype, int num_threads) {
  ServeOptions o;
  o.model = ServeModel();
  o.parallel = ParallelConfig{1, ep};
  o.seed = 1234;
  o.dtype = dtype;
  o.num_threads = num_threads;
  o.token_budget = 16;
  o.max_active = 8;
  o.queue_capacity = 64;
  return o;
}

// Skewed synthetic serving with the adaptation loop closed.
ServeOptions AdaptServeOptions(int ep, DType dtype, int num_threads) {
  ServeOptions o = BaseServeOptions(ep, dtype, num_threads);
  o.routing = ServeRoutingMode::kSynthetic;
  o.synthetic_load_std = 0.1;
  o.adaptation.enabled = true;
  o.adaptation.hot_factor = 1.4;
  o.adaptation.cool_factor = 1.1;
  o.adaptation.max_replicated_experts = 1;
  o.adaptation.cooldown_iterations = 4;
  return o;
}

LoadGenOptions BaseLoadOptions(int64_t n = 24) {
  LoadGenOptions o;
  o.seed = 77;
  o.offered_rps = 2000.0;
  o.num_requests = n;
  o.prompt = LengthDist::Uniform(2, 6);
  o.decode = LengthDist::Uniform(1, 4);
  return o;
}

uint64_t RequestDigest(const std::vector<RequestRecord>& completed) {
  uint64_t h = Fnv1aInit();
  for (const RequestRecord& c : completed) {
    h = Fnv1aAdd(h, &c.id, sizeof(c.id));
    h = Fnv1aAdd(h, &c.output_digest, sizeof(c.output_digest));
    h = Fnv1aAdd(h, &c.queue_wait_us, sizeof(c.queue_wait_us));
    h = Fnv1aAdd(h, &c.ttft_us, sizeof(c.ttft_us));
    h = Fnv1aAdd(h, &c.e2e_us, sizeof(c.e2e_us));
    h = Fnv1aAdd(h, &c.mean_itl_us, sizeof(c.mean_itl_us));
  }
  return h;
}

// Saturating arrivals, all at t = 0: batch composition becomes a pure
// function of the iteration index (never of simulated durations), which is
// what makes the on-vs-off transparency comparison well-defined.
std::vector<RequestSpec> SaturatingArrivals(int64_t n) {
  std::vector<RequestSpec> arrivals;
  for (int64_t i = 0; i < n; ++i) {
    RequestSpec r;
    r.id = i;
    r.seed = static_cast<uint64_t>(i) * 1000003ULL + 5;
    r.prompt_tokens = 2 + (i % 5);
    r.decode_tokens = i % 5;
    r.arrival_us = 0.0;
    arrivals.push_back(r);
  }
  return arrivals;
}

// ---- serving misconfiguration fails loudly ---------------------------------

TEST(ServeConfig, SyntheticKnobsRequireSyntheticMode) {
  ServeOptions o = BaseServeOptions(2, DType::kF32, 1);
  o.synthetic_load_std = 0.05;  // routing still kGate
  EXPECT_THROW(MoeServer(o, H800Cluster(2)), CheckError);
  ServeOptions o2 = BaseServeOptions(2, DType::kF32, 1);
  o2.drift_period_us = 100.0;
  EXPECT_THROW(MoeServer(o2, H800Cluster(2)), CheckError);
}

TEST(ServeConfig, AdaptationKnobsValidateAtConstruction) {
  ServeOptions o = BaseServeOptions(2, DType::kF32, 1);
  o.adaptation.enabled = true;
  o.adaptation.ewma_decay = 2.0;
  EXPECT_THROW(MoeServer(o, H800Cluster(2)), CheckError);
  ServeOptions o2 = BaseServeOptions(2, DType::kF32, 1);
  o2.adaptation.enabled = true;
  o2.adaptation.cool_factor = 3.0;  // >= hot_factor
  EXPECT_THROW(MoeServer(o2, H800Cluster(2)), CheckError);
}

// ---- contract A: adaptation off is byte-identical to PR 8 ------------------

// The pins below are the alloc_test serve goldens (captured two PRs ago,
// before the adaptation plane existed). A server with default-disabled
// adaptation must reproduce them bit for bit: disabled means NO change to
// the served bytes, not "small change".
struct OffGolden {
  int ep;
  DType dtype;
  uint64_t combined_digest;
};

constexpr OffGolden kOffGoldens[] = {
    {1, DType::kF32, 0x090039d1a50fb32eULL},
    {1, DType::kBF16, 0xe7ca02ae05f060c2ULL},
    {4, DType::kF32, 0x090039d1a50fb32eULL},
    {4, DType::kBF16, 0xe7ca02ae05f060c2ULL},
};

TEST(AdaptationOffContract, ServedBitsMatchPreAdaptationGoldens) {
  LoadGenOptions lo;
  lo.seed = 77;
  lo.offered_rps = 2000.0;
  lo.num_requests = 24;
  lo.prompt = LengthDist::Uniform(2, 6);
  lo.decode = LengthDist::Uniform(0, 4);  // the historical golden load
  const auto arrivals = LoadGenerator(lo).GenerateAll();
  for (const OffGolden& g : kOffGoldens) {
    SCOPED_TRACE(testing::Message()
                 << "ep=" << g.ep << " dtype=" << DTypeName(g.dtype));
    MoeServer server(BaseServeOptions(g.ep, g.dtype, 1), H800Cluster(g.ep));
    const ServeReport r = server.Serve(arrivals);
    EXPECT_EQ(r.combined_digest, g.combined_digest);
    EXPECT_EQ(r.promotions, 0);
    EXPECT_EQ(r.retirements, 0);
    EXPECT_EQ(r.replicated_rows, 0);
  }
}

// ---- contract B: adaptation on is deterministic and bit-transparent --------

TEST(AdaptationOnContract, BitDeterministicAcrossThreadsAndEp) {
  for (int ep : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "ep=" << ep);
    const auto arrivals = LoadGenerator(BaseLoadOptions()).GenerateAll();
    uint64_t combined[2] = {0, 0};
    uint64_t req[2] = {0, 0};
    int64_t promotions[2] = {0, 0};
    int i = 0;
    for (int num_threads : {1, 8}) {
      MoeServer server(AdaptServeOptions(ep, DType::kBF16, num_threads),
                       H800Cluster(ep));
      const ServeReport r = server.Serve(arrivals);
      combined[i] = r.combined_digest;
      req[i] = RequestDigest(r.completed);
      promotions[i] = r.promotions;
      ++i;
    }
    EXPECT_EQ(combined[0], combined[1])
        << "adapted serving must be thread-count invariant";
    EXPECT_EQ(req[0], req[1]);
    EXPECT_EQ(promotions[0], promotions[1]);
    if (ep > 1) {
      EXPECT_GT(promotions[0], 0)
          << "the skewed synthetic load must actually trigger replication";
    } else {
      EXPECT_EQ(promotions[0], 0) << "EP 1 has nowhere to replicate";
    }
  }
}

TEST(AdaptationOnContract, ReplicationIsBitTransparent) {
  // Same saturating (t = 0) load, same synthetic routing stream; the ONLY
  // difference between the two runs is whether hot experts are split across
  // replicas. Replica weights are bit-identical slab copies and the combine
  // order is a pure function of (token, slot, lane), so the served bytes
  // must be EQUAL while the adapted run demonstrably replicated.
  const auto arrivals = SaturatingArrivals(40);
  ServeOptions on = AdaptServeOptions(4, DType::kF32, 1);
  ServeOptions off = on;
  off.adaptation = AdaptationOptions{};  // disabled

  MoeServer server_on(on, H800Cluster(4));
  const ServeReport r_on = server_on.Serve(arrivals);
  MoeServer server_off(off, H800Cluster(4));
  const ServeReport r_off = server_off.Serve(arrivals);

  ASSERT_GT(r_on.promotions, 0) << "the comparison is vacuous otherwise";
  EXPECT_GT(r_on.replicated_rows, 0);
  EXPECT_EQ(r_off.promotions, 0);
  EXPECT_EQ(r_on.combined_digest, r_off.combined_digest)
      << "replica slices changed the served bits: the slab copy or the "
         "combine order is not coordinate-pure";
  EXPECT_EQ(static_cast<int64_t>(r_on.completed.size()),
            static_cast<int64_t>(r_off.completed.size()));
}

TEST(AdaptationOnContract, DriftingSkewStaysDeterministic) {
  const auto arrivals = LoadGenerator(BaseLoadOptions(32)).GenerateAll();
  ServeOptions o = AdaptServeOptions(4, DType::kBF16, 1);
  o.drift_period_us = 2000.0;  // hot spot walks during the run
  uint64_t digests[2];
  int64_t promotions[2];
  for (int i = 0; i < 2; ++i) {
    MoeServer server(o, H800Cluster(4));
    const ServeReport r = server.Serve(arrivals);
    digests[i] = r.combined_digest;
    promotions[i] = r.promotions;
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(promotions[0], promotions[1]);
}

// ---- cluster plane aggregates the adaptation counters ----------------------

TEST(ClusterAdaptation, CountersAggregateAndStayDeterministic) {
  ClusterOptions co;
  co.server = AdaptServeOptions(4, DType::kBF16, 1);
  co.replicas = 2;
  co.placement = PlacementPolicy::kLeastLoaded;
  const auto arrivals = LoadGenerator(BaseLoadOptions(32)).GenerateAll();
  int64_t promotions[2];
  uint64_t digests[2];
  for (int i = 0; i < 2; ++i) {
    MoeCluster cluster(co, H800Cluster(4));
    const ClusterReport r = cluster.Run(arrivals);
    promotions[i] = r.promotions;
    uint64_t h = Fnv1aInit();
    for (const RequestRecord& c : r.completed) {
      h = Fnv1aAdd(h, &c.output_digest, sizeof(c.output_digest));
    }
    digests[i] = h;
  }
  EXPECT_GT(promotions[0], 0);
  EXPECT_EQ(promotions[0], promotions[1]);
  EXPECT_EQ(digests[0], digests[1]);
}

// An adapted cluster is reusable: a second Run starts from the same empty
// replica layout as a fresh cluster, so both of its reports equal a fresh
// cluster's, field for field.
TEST(ClusterAdaptation, ReusedClusterMatchesFreshCluster) {
  ClusterOptions co;
  co.server = AdaptServeOptions(4, DType::kBF16, 1);
  co.replicas = 2;
  co.placement = PlacementPolicy::kLeastLoaded;
  const auto arrivals = LoadGenerator(BaseLoadOptions(32)).GenerateAll();
  const ClusterReport fresh = MoeCluster(co, H800Cluster(4)).Run(arrivals);
  ASSERT_GT(fresh.promotions, fresh.retirements)
      << "the first run must end with a replica slot still busy";

  MoeCluster reused(co, H800Cluster(4));
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(testing::Message() << "run=" << run);
    const ClusterReport r = reused.Run(arrivals);
    EXPECT_EQ(r.combined_digest, fresh.combined_digest);
    EXPECT_EQ(RequestDigest(r.completed), RequestDigest(fresh.completed));
    EXPECT_EQ(r.iterations, fresh.iterations);
    EXPECT_EQ(r.batched_tokens, fresh.batched_tokens);
    EXPECT_EQ(r.promotions, fresh.promotions);
    EXPECT_EQ(r.retirements, fresh.retirements);
    EXPECT_EQ(r.replicated_rows, fresh.replicated_rows);
    EXPECT_EQ(r.replica_failures, 0);
    EXPECT_EQ(r.per_replica_completed, fresh.per_replica_completed);
    EXPECT_EQ(r.per_replica_iterations, fresh.per_replica_iterations);
    EXPECT_EQ(std::bit_cast<uint64_t>(r.sim_duration_us),
              std::bit_cast<uint64_t>(fresh.sim_duration_us));
    EXPECT_EQ(std::bit_cast<uint64_t>(r.e2e_us.p99),
              std::bit_cast<uint64_t>(fresh.e2e_us.p99));
  }
}

// ---- zero allocations survive adaptation -----------------------------------

TEST(AdaptationZeroAlloc, SteadyStateWindowWithReplicationActive) {
  // Static skew: one expert stays hot, so after the warm-up promotes it (a
  // change iteration: weight slab copy + profile flush + re-profile, all
  // allowed to allocate) the replica set is stable and the steady state
  // must be allocation-free -- the PR 8 envelope with the adaptation loop
  // running every iteration (EWMA update, tracker observe, split rebuild).
  constexpr int64_t kRequests = 220;
  constexpr int kWarmupIters = 16;
  constexpr int kWindowIters = 24;
  constexpr int kOfferPerIter = 3;
  const auto arrivals = SaturatingArrivals(kRequests);
  int64_t total_tokens = 0;
  for (const RequestSpec& r : arrivals) {
    total_tokens += r.TotalTokens();
  }

  MoeServer server(AdaptServeOptions(4, DType::kBF16, 1), H800Cluster(4));
  MoeServer::RunBounds bounds;
  bounds.expected_requests = kRequests;
  bounds.expected_tokens = total_tokens;
  bounds.max_prompt_tokens = 6;
  bounds.max_decode_tokens = 4;
  server.BeginRun(bounds);

  size_t next = 0;
  const auto offer_some = [&] {
    for (int k = 0; k < kOfferPerIter && next < arrivals.size(); ++k) {
      server.Offer(arrivals[next++]);
    }
  };
  double now = 0.0, end = 0.0;
  for (int i = 0; i < kWarmupIters; ++i) {
    offer_some();
    ASSERT_TRUE(server.StepIteration(now, &end));
    now = end;
  }
  // The window only proves the contract if the replica layout is already
  // in place and stays put.
  ASSERT_GT(server.View().promotions, 0)
      << "warm-up must cover the promotion; raise kWarmupIters or the skew";

  AllocStats stats;
  const int64_t promotions_before = server.View().promotions;
  const int64_t retirements_before = server.View().retirements;
  {
    AllocWindow w;
    for (int i = 0; i < kWindowIters; ++i) {
      offer_some();
      ASSERT_TRUE(server.StepIteration(now, &end));
      now = end;
    }
    stats = w.Snapshot();
  }
  EXPECT_EQ(server.View().promotions, promotions_before)
      << "a change iteration landed inside the window; the static-skew "
         "scenario is supposed to keep the replica set stable";
  EXPECT_EQ(server.View().retirements, retirements_before);
  EXPECT_EQ(stats.allocs, 0u)
      << stats.allocs << " heap allocations (" << stats.bytes
      << " bytes) in " << kWindowIters
      << " adapted steady-state iterations; set COMET_ALLOC_TRAP=1 for a "
         "backtrace";
  EXPECT_EQ(stats.frees, 0u);
  EXPECT_GT(server.View().replicated_rows, 0)
      << "the window must actually serve rows from replica slices";

  while (server.StepIteration(now, &end)) {
    offer_some();
    now = end;
  }
  while (next < arrivals.size()) {
    server.Offer(arrivals[next++]);
    while (server.StepIteration(now, &end)) {
      now = end;
    }
  }
  const ServeReport report = server.BuildReport(now);
  EXPECT_EQ(static_cast<int64_t>(report.completed.size()) + report.shed,
            kRequests);
}

}  // namespace
}  // namespace comet
