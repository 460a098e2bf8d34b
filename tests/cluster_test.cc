// Cluster-plane tests: the multi-replica fleet (MoeCluster), the pluggable
// placement policies (Dispatcher), and the deterministic fault plane.
//
// The acceptance invariants of the subsystem:
//  * determinism -- same seed/config => bit-identical per-request output
//    digests AND identical latency percentiles at COMET_THREADS {1,8},
//    across replicas {1,2,4} x all four placement policies;
//  * equivalence -- a 1-replica cluster IS the single-server serving plane,
//    bit for bit (same records, digests, percentiles, shed counts);
//  * placement properties (randomized trials) -- every admitted request is
//    dispatched to exactly one accepting replica, sticky sessions never
//    migrate while their pin accepts, p2c always takes the less loaded of
//    its two samples, and admitted = completed + shed + failed_in_flight;
//  * fault accounting -- a replica failing mid-run loses or re-dispatches
//    exactly its in-flight requests (re-dispatched outputs match the
//    no-fault run bit-for-bit), a drained replica finishes its work but
//    accepts nothing new, and a wedged rank surfaces as a counted replica
//    failure via the fail-fast signal wait, never as a hang.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "serve/cluster.h"
#include "serve/loadgen.h"
#include "util/check.h"
#include "util/rng.h"

namespace comet {
namespace {

constexpr PlacementPolicy kAllPolicies[] = {
    PlacementPolicy::kRoundRobin,
    PlacementPolicy::kLeastLoaded,
    PlacementPolicy::kPowerOfTwo,
    PlacementPolicy::kSticky,
};

ModelConfig ClusterModel() {
  ModelConfig m;
  m.name = "cluster-tiny";
  m.layers = 1;
  m.num_experts = 8;
  m.topk = 2;
  m.embedding = 32;
  m.ffn_hidden = 64;
  return m;
}

// A micro model for the randomized property trials (hundreds of runs).
ModelConfig MicroModel() {
  ModelConfig m;
  m.name = "cluster-micro";
  m.layers = 1;
  m.num_experts = 4;
  m.topk = 2;
  m.embedding = 8;
  m.ffn_hidden = 16;
  return m;
}

ServeOptions BaseServeOptions(const ModelConfig& model, int ep, DType dtype,
                              int num_threads) {
  ServeOptions o;
  o.model = model;
  o.parallel = ParallelConfig{1, ep};
  o.seed = 1234;
  o.dtype = dtype;
  o.num_threads = num_threads;
  o.token_budget = 16;
  o.max_active = 8;
  o.queue_capacity = 64;
  return o;
}

ClusterOptions BaseClusterOptions(int replicas, PlacementPolicy placement,
                                  int num_threads = 1,
                                  DType dtype = DType::kF32) {
  ClusterOptions o;
  o.server = BaseServeOptions(ClusterModel(), 2, dtype, num_threads);
  o.replicas = replicas;
  o.placement = placement;
  o.placement_seed = 99;
  return o;
}

LoadGenOptions BaseLoadOptions(int64_t n = 24) {
  LoadGenOptions o;
  o.seed = 77;
  o.offered_rps = 2000.0;
  o.num_requests = n;
  o.prompt = LengthDist::Uniform(2, 6);
  o.decode = LengthDist::Uniform(0, 4);
  // Several requests per session so the sticky policy has affinity to keep.
  o.num_sessions = 6;
  return o;
}

void ExpectReportsIdentical(const ClusterReport& a, const ClusterReport& b) {
  ASSERT_EQ(a.completed.size(), b.completed.size());
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.failed_in_flight, b.failed_in_flight);
  EXPECT_EQ(a.redispatched, b.redispatched);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.batched_tokens, b.batched_tokens);
  EXPECT_EQ(a.padding_tokens, b.padding_tokens);
  EXPECT_EQ(a.per_replica_completed, b.per_replica_completed);
  EXPECT_EQ(a.per_replica_iterations, b.per_replica_iterations);
  for (size_t i = 0; i < a.completed.size(); ++i) {
    const RequestRecord& ra = a.completed[i];
    const RequestRecord& rb = b.completed[i];
    EXPECT_EQ(ra.id, rb.id);
    EXPECT_EQ(ra.output_digest, rb.output_digest)
        << "request " << ra.id << " output bits changed";
    EXPECT_EQ(ra.queue_wait_us, rb.queue_wait_us);
    EXPECT_EQ(ra.ttft_us, rb.ttft_us);
    EXPECT_EQ(ra.e2e_us, rb.e2e_us);
    EXPECT_EQ(ra.mean_itl_us, rb.mean_itl_us);
  }
  EXPECT_EQ(a.combined_digest, b.combined_digest);
  EXPECT_EQ(a.sim_duration_us, b.sim_duration_us);
  EXPECT_EQ(a.ttft_us.p50, b.ttft_us.p50);
  EXPECT_EQ(a.ttft_us.p95, b.ttft_us.p95);
  EXPECT_EQ(a.ttft_us.p99, b.ttft_us.p99);
  EXPECT_EQ(a.itl_us.p99, b.itl_us.p99);
  EXPECT_EQ(a.queue_wait_us.p99, b.queue_wait_us.p99);
  EXPECT_EQ(a.e2e_us.p99, b.e2e_us.p99);
}

// ---- determinism tier ------------------------------------------------------

// The acceptance matrix of the cluster plane: identical seed/config =>
// bit-identical reports at 1 vs 8 host threads, for every fleet size and
// placement policy. The global event loop is single-threaded and the
// replicas' numerics are thread-count-exact, so NOTHING may move.
TEST(ClusterDeterminism, AcrossThreadCountsAndPolicies) {
  const auto arrivals = LoadGenerator(BaseLoadOptions()).GenerateAll();
  for (int replicas : {1, 2, 4}) {
    for (PlacementPolicy policy : kAllPolicies) {
      SCOPED_TRACE(std::string("replicas=") + std::to_string(replicas) +
                   " policy=" + PlacementPolicyName(policy));
      MoeCluster serial(BaseClusterOptions(replicas, policy, 1),
                        H800Cluster(2));
      MoeCluster threaded(BaseClusterOptions(replicas, policy, 8),
                          H800Cluster(2));
      const ClusterReport a = serial.Run(arrivals);
      const ClusterReport b = threaded.Run(arrivals);
      ExpectReportsIdentical(a, b);
      EXPECT_EQ(static_cast<int64_t>(a.completed.size()) + a.shed +
                    a.failed_in_flight,
                a.offered);
    }
  }
}

// Runs are independent: the same cluster object re-run over the same
// arrivals reproduces itself bit-for-bit (no state leaks across BeginRun).
TEST(ClusterDeterminism, RerunIsBitIdentical) {
  const auto arrivals = LoadGenerator(BaseLoadOptions()).GenerateAll();
  MoeCluster cluster(
      BaseClusterOptions(2, PlacementPolicy::kPowerOfTwo), H800Cluster(2));
  const ClusterReport a = cluster.Run(arrivals);
  const ClusterReport b = cluster.Run(arrivals);
  ExpectReportsIdentical(a, b);
}

// A 1-replica cluster IS the single-server serving plane: every field of
// the report matches MoeServer::Serve over the same arrivals, bit for bit.
// This pins the dispatcher-hook refactor of MoeServer: the hooks compose
// into exactly the loop PR 5 shipped.
TEST(ClusterDeterminism, SingleReplicaMatchesMoeServer) {
  const auto arrivals = LoadGenerator(BaseLoadOptions()).GenerateAll();
  for (PlacementPolicy policy : kAllPolicies) {
    SCOPED_TRACE(PlacementPolicyName(policy));
    MoeServer server(BaseServeOptions(ClusterModel(), 2, DType::kF32, 1),
                     H800Cluster(2));
    MoeCluster cluster(BaseClusterOptions(1, policy), H800Cluster(2));
    const ServeReport s = server.Serve(arrivals);
    const ClusterReport c = cluster.Run(arrivals);

    ASSERT_EQ(s.completed.size(), c.completed.size());
    EXPECT_EQ(s.offered, c.offered);
    EXPECT_EQ(s.shed, c.shed);
    EXPECT_EQ(s.iterations, c.iterations);
    EXPECT_EQ(s.batched_tokens, c.batched_tokens);
    EXPECT_EQ(s.padding_tokens, c.padding_tokens);
    for (size_t i = 0; i < s.completed.size(); ++i) {
      const RequestRecord& rs = s.completed[i];
      const RequestRecord& rc = c.completed[i];
      EXPECT_EQ(rs.id, rc.id);
      EXPECT_EQ(rs.output_digest, rc.output_digest);
      EXPECT_EQ(rs.queue_wait_us, rc.queue_wait_us);
      EXPECT_EQ(rs.ttft_us, rc.ttft_us);
      EXPECT_EQ(rs.e2e_us, rc.e2e_us);
      EXPECT_EQ(rs.mean_itl_us, rc.mean_itl_us);
    }
    EXPECT_EQ(s.combined_digest, c.combined_digest);
    EXPECT_EQ(s.sim_duration_us, c.sim_duration_us);
    EXPECT_EQ(s.throughput_tokens_per_s, c.throughput_tokens_per_s);
    EXPECT_EQ(s.ttft_us.p50, c.ttft_us.p50);
    EXPECT_EQ(s.ttft_us.p99, c.ttft_us.p99);
    EXPECT_EQ(s.itl_us.p99, c.itl_us.p99);
    EXPECT_EQ(s.queue_wait_us.p99, c.queue_wait_us.p99);
    EXPECT_EQ(s.e2e_us.p99, c.e2e_us.p99);
  }
}

// ---- Dispatcher unit property tests ----------------------------------------

// Random loads / accepting sets, many trials per policy. The dispatcher's
// contract is checkable without a cluster: the pick is always an accepting
// replica (or -1 when none), and each policy's selection rule holds.
TEST(PlacementProperty, PickAlwaysAcceptingOrMinusOne) {
  for (PlacementPolicy policy : kAllPolicies) {
    Rng rng(500 + static_cast<uint64_t>(policy));
    Dispatcher dispatcher(policy, 8, /*seed=*/7);
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<int64_t> loads(8);
      std::vector<bool> accepting(8);
      for (int r = 0; r < 8; ++r) {
        loads[r] = rng.UniformInt(0, 100);
        accepting[r] = rng.NextDouble() < 0.7;
      }
      RequestSpec spec;
      spec.id = trial;
      spec.session = static_cast<uint64_t>(rng.UniformInt(0, 3));
      DispatchDecision d;
      const int pick = dispatcher.Pick(spec, loads, accepting, &d);
      const bool any =
          std::any_of(accepting.begin(), accepting.end(), [](bool b) {
            return b;
          });
      if (!any) {
        EXPECT_EQ(pick, -1);
        continue;
      }
      ASSERT_GE(pick, 0);
      ASSERT_LT(pick, 8);
      EXPECT_TRUE(accepting[pick]) << PlacementPolicyName(policy);
      EXPECT_EQ(d.replica, pick);
      // accepting_mask reflects the accepting set at decision time.
      for (int r = 0; r < 8; ++r) {
        EXPECT_EQ((d.accepting_mask >> r) & 1, accepting[r] ? 1u : 0u);
      }
    }
  }
}

TEST(PlacementProperty, LeastLoadedPicksGlobalMinTieLowestIndex) {
  Rng rng(501);
  Dispatcher dispatcher(PlacementPolicy::kLeastLoaded, 6, 7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int64_t> loads(6);
    std::vector<bool> accepting(6);
    bool any = false;
    for (int r = 0; r < 6; ++r) {
      loads[r] = rng.UniformInt(0, 5);  // small range: ties are common
      accepting[r] = rng.NextDouble() < 0.8;
      any = any || accepting[r];
    }
    if (!any) {
      accepting[static_cast<size_t>(rng.UniformInt(0, 5))] = true;
    }
    const int pick =
        dispatcher.Pick(RequestSpec{}, loads, accepting, nullptr);
    ASSERT_GE(pick, 0);
    for (int r = 0; r < 6; ++r) {
      if (!accepting[r]) continue;
      EXPECT_LE(loads[pick], loads[r]);
      if (loads[r] == loads[pick]) {
        EXPECT_LE(pick, r) << "tie must go to the lowest index";
      }
    }
  }
}

TEST(PlacementProperty, PowerOfTwoPicksLessLoadedOfItsTwoSamples) {
  Rng rng(502);
  Dispatcher dispatcher(PlacementPolicy::kPowerOfTwo, 8, 7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int64_t> loads(8);
    std::vector<bool> accepting(8);
    int num_accepting = 0;
    for (int r = 0; r < 8; ++r) {
      loads[r] = rng.UniformInt(0, 50);
      accepting[r] = rng.NextDouble() < 0.6;
      num_accepting += accepting[r] ? 1 : 0;
    }
    if (num_accepting == 0) {
      accepting[3] = true;
      num_accepting = 1;
    }
    DispatchDecision d;
    const int pick = dispatcher.Pick(RequestSpec{}, loads, accepting, &d);
    ASSERT_GE(pick, 0);
    EXPECT_TRUE(accepting[pick]);
    if (num_accepting == 1) {
      EXPECT_EQ(d.candidate_a, -1) << "single candidate: no sampling";
      continue;
    }
    ASSERT_GE(d.candidate_a, 0);
    ASSERT_GE(d.candidate_b, 0);
    EXPECT_NE(d.candidate_a, d.candidate_b) << "samples must be distinct";
    EXPECT_TRUE(accepting[d.candidate_a]);
    EXPECT_TRUE(accepting[d.candidate_b]);
    EXPECT_EQ(d.load_a, loads[d.candidate_a]);
    EXPECT_EQ(d.load_b, loads[d.candidate_b]);
    const int want =
        d.load_a < d.load_b
            ? d.candidate_a
            : (d.load_b < d.load_a ? d.candidate_b
                                   : std::min(d.candidate_a, d.candidate_b));
    EXPECT_EQ(pick, want);
  }
}

TEST(PlacementProperty, StickyPinsSessionWhilePinAccepts) {
  Rng rng(503);
  Dispatcher dispatcher(PlacementPolicy::kSticky, 4, 7);
  std::map<uint64_t, int> pin;  // shadow of the dispatcher's session map
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<int64_t> loads(4);
    std::vector<bool> accepting(4);
    bool any = false;
    for (int r = 0; r < 4; ++r) {
      loads[r] = rng.UniformInt(0, 30);
      accepting[r] = rng.NextDouble() < 0.8;
      any = any || accepting[r];
    }
    if (!any) {
      accepting[0] = true;
    }
    RequestSpec spec;
    spec.session = static_cast<uint64_t>(rng.UniformInt(0, 5));
    DispatchDecision d;
    const int pick = dispatcher.Pick(spec, loads, accepting, &d);
    ASSERT_GE(pick, 0);
    const auto it = pin.find(spec.session);
    if (it != pin.end() && accepting[it->second]) {
      EXPECT_EQ(pick, it->second)
          << "session migrated while its pin was accepting";
      EXPECT_TRUE(d.sticky_hit);
    } else {
      EXPECT_FALSE(d.sticky_hit);
      // Re-homing goes least-loaded.
      for (int r = 0; r < 4; ++r) {
        if (accepting[r]) {
          EXPECT_LE(loads[pick], loads[r]);
        }
      }
    }
    pin[spec.session] = pick;
  }
}

TEST(PlacementProperty, RoundRobinRotatesOverAcceptingReplicas) {
  Dispatcher dispatcher(PlacementPolicy::kRoundRobin, 4, 7);
  std::vector<int64_t> loads(4, 0);
  std::vector<bool> accepting(4, true);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(dispatcher.Pick(RequestSpec{}, loads, accepting, nullptr),
              i % 4);
  }
  accepting[1] = false;  // rotation skips the non-accepting replica
  std::vector<int> picks;
  for (int i = 0; i < 6; ++i) {
    picks.push_back(dispatcher.Pick(RequestSpec{}, loads, accepting, nullptr));
  }
  EXPECT_EQ(picks, (std::vector<int>{0, 2, 3, 0, 2, 3}));
}

TEST(PlacementProperty, ParseRoundTripsAndRejectsUnknown) {
  for (PlacementPolicy policy : kAllPolicies) {
    EXPECT_EQ(ParsePlacementPolicy(PlacementPolicyName(policy)), policy);
  }
  EXPECT_THROW(ParsePlacementPolicy("best-effort"), CheckError);
}

// ---- cluster-level randomized property trials ------------------------------

std::vector<RequestSpec> RandomArrivals(Rng& rng, int64_t n) {
  std::vector<RequestSpec> arrivals;
  double clock = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    RequestSpec spec;
    spec.id = i;
    spec.seed = rng.NextU64();
    spec.session = static_cast<uint64_t>(rng.UniformInt(0, 3));
    spec.prompt_tokens = rng.UniformInt(1, 6);
    spec.decode_tokens = rng.UniformInt(0, 4);
    clock += rng.NextDouble() * 400.0;
    spec.arrival_us = clock;
    arrivals.push_back(spec);
  }
  return arrivals;
}

// 100 randomized fleets per policy. Checked per trial, from the dispatch
// log and the report:
//  * every admitted request is dispatched to exactly one accepting replica
//    (its bit is set in the decision's accepting_mask);
//  * sticky sessions never migrate (no faults here, pins never break);
//  * conservation: offered = completed + shed + failed_in_flight;
//  * placement does not touch outputs: per-request digests are identical
//    across all four policies over the same arrivals.
TEST(ClusterProperty, RandomizedTrialsPerPolicy) {
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE(std::string("trial=") + std::to_string(trial));
    Rng rng(9000 + static_cast<uint64_t>(trial));
    const auto arrivals = RandomArrivals(rng, rng.UniformInt(4, 12));
    const int replicas = static_cast<int>(rng.UniformInt(2, 4));

    std::map<int64_t, uint64_t> digests_by_policy[4];
    for (size_t p = 0; p < 4; ++p) {
      const PlacementPolicy policy = kAllPolicies[p];
      SCOPED_TRACE(PlacementPolicyName(policy));
      ClusterOptions options;
      options.server =
          BaseServeOptions(MicroModel(), /*ep=*/1, DType::kF32, 1);
      options.replicas = replicas;
      options.placement = policy;
      options.placement_seed = 4242 + trial;
      options.record_dispatch_log = true;
      MoeCluster cluster(options, H800Cluster(1));
      const ClusterReport report = cluster.Run(arrivals);

      // Conservation.
      EXPECT_EQ(static_cast<int64_t>(report.completed.size()) + report.shed +
                    report.failed_in_flight,
                report.offered);
      EXPECT_EQ(report.failed_in_flight, 0) << "no faults scheduled";
      EXPECT_EQ(report.shed, 0) << "queues are far from full";

      // Exactly one dispatch per request, always to an accepting replica.
      std::map<int64_t, int> dispatches;
      std::map<uint64_t, std::set<int>> session_replicas;
      for (const DispatchDecision& d : report.dispatch_log) {
        ASSERT_GE(d.replica, 0);
        ASSERT_LT(d.replica, replicas);
        EXPECT_EQ((d.accepting_mask >> d.replica) & 1, 1u)
            << "dispatched to a non-accepting replica";
        EXPECT_FALSE(d.redispatch);
        ++dispatches[d.request_id];
        session_replicas[d.session].insert(d.replica);
      }
      EXPECT_EQ(dispatches.size(), arrivals.size());
      for (const auto& [id, count] : dispatches) {
        EXPECT_EQ(count, 1) << "request " << id << " dispatched twice";
      }
      if (policy == PlacementPolicy::kSticky) {
        for (const auto& [session, replica_set] : session_replicas) {
          EXPECT_EQ(replica_set.size(), 1u)
              << "session " << session << " migrated without a fault";
        }
      }
      for (const RequestRecord& rec : report.completed) {
        digests_by_policy[p][rec.id] = rec.output_digest;
      }
    }
    // Outputs are a function of the request, not of where it ran.
    for (size_t p = 1; p < 4; ++p) {
      EXPECT_EQ(digests_by_policy[0], digests_by_policy[p])
          << "placement policy changed request output bits";
    }
  }
}

// ---- fault plane -----------------------------------------------------------

// Tightly bunched arrivals so both replicas hold in-flight work when the
// fault fires mid-run.
LoadGenOptions BurstLoadOptions(int64_t n = 24) {
  LoadGenOptions o = BaseLoadOptions(n);
  o.arrival = ArrivalProcess::kBursty;
  o.mean_burst = static_cast<double>(n);
  o.offered_rps = 1e9;  // everything arrives (essentially) at t=0
  return o;
}

ClusterOptions FaultClusterOptions(InFlightPolicy in_flight) {
  ClusterOptions o = BaseClusterOptions(2, PlacementPolicy::kLeastLoaded);
  o.in_flight = in_flight;
  o.record_dispatch_log = true;
  // Generous SLO so only lost/shed requests can violate it.
  o.server.slo.ttft_us = 1e12;
  return o;
}

TEST(ClusterFaults, FailMidRunRedispatchLosesNothing) {
  const auto arrivals = LoadGenerator(BurstLoadOptions()).GenerateAll();
  // Baseline (no faults) for the digest-invariance check and fault timing.
  ClusterOptions base = FaultClusterOptions(InFlightPolicy::kRedispatch);
  const ClusterReport clean = MoeCluster(base, H800Cluster(2)).Run(arrivals);
  ASSERT_EQ(static_cast<int64_t>(clean.completed.size()), clean.offered);

  ClusterOptions faulty = base;
  faulty.faults.events.push_back(
      {clean.sim_duration_us * 0.4, /*replica=*/0, FaultKind::kFail});
  const ClusterReport report =
      MoeCluster(faulty, H800Cluster(2)).Run(arrivals);

  EXPECT_EQ(report.replica_failures, 1);
  EXPECT_EQ(report.failed_in_flight, 0);
  EXPECT_GT(report.redispatched, 0) << "replica 0 held work when it died";
  // Nothing is lost under kRedispatch: every request completes...
  EXPECT_EQ(static_cast<int64_t>(report.completed.size()), report.offered);
  EXPECT_EQ(report.slo_violations, 0);
  // ...and a re-dispatched request, recomputed from scratch on the
  // survivor, produces the SAME output bits as the no-fault run: outputs
  // depend on (seed, weights), never on which replica or batch served them.
  ASSERT_EQ(report.completed.size(), clean.completed.size());
  for (size_t i = 0; i < report.completed.size(); ++i) {
    EXPECT_EQ(report.completed[i].id, clean.completed[i].id);
    EXPECT_EQ(report.completed[i].output_digest,
              clean.completed[i].output_digest)
        << "request " << report.completed[i].id;
  }
  // After the failure every dispatch went to the survivor.
  for (const DispatchDecision& d : report.dispatch_log) {
    if (d.time_us >= faulty.faults.events[0].time_us) {
      EXPECT_EQ(d.replica, 1);
    }
    if (d.redispatch) {
      EXPECT_EQ(d.replica, 1);
    }
  }
}

TEST(ClusterFaults, FailMidRunCountAsViolationChargesSlo) {
  const auto arrivals = LoadGenerator(BurstLoadOptions()).GenerateAll();
  ClusterOptions base = FaultClusterOptions(InFlightPolicy::kCountAsViolation);
  const ClusterReport clean = MoeCluster(base, H800Cluster(2)).Run(arrivals);

  ClusterOptions faulty = base;
  faulty.faults.events.push_back(
      {clean.sim_duration_us * 0.4, /*replica=*/0, FaultKind::kFail});
  const ClusterReport report =
      MoeCluster(faulty, H800Cluster(2)).Run(arrivals);

  EXPECT_EQ(report.replica_failures, 1);
  EXPECT_GT(report.failed_in_flight, 0) << "replica 0 held work when it died";
  EXPECT_EQ(report.redispatched, 0);
  // Lost in-flight requests are exactly the gap between offered and
  // completed (no sheds at this load), and exactly the SLO violations: the
  // generous targets make every completed request meet the SLO.
  EXPECT_EQ(static_cast<int64_t>(report.completed.size()) +
                report.failed_in_flight,
            report.offered);
  EXPECT_EQ(report.slo_violations, report.failed_in_flight);
  const double expect_attainment =
      static_cast<double>(report.completed.size()) /
      static_cast<double>(report.offered);
  EXPECT_DOUBLE_EQ(report.slo_attainment, expect_attainment);
}

TEST(ClusterFaults, DrainFinishesInFlightAndAcceptsNothingNew) {
  // Spread arrivals so plenty lands after the drain point.
  const auto arrivals = LoadGenerator(BaseLoadOptions(32)).GenerateAll();
  ClusterOptions base = BaseClusterOptions(2, PlacementPolicy::kRoundRobin);
  base.record_dispatch_log = true;
  const ClusterReport clean = MoeCluster(base, H800Cluster(2)).Run(arrivals);

  ClusterOptions draining = base;
  const double drain_at = clean.sim_duration_us * 0.3;
  draining.faults.events.push_back({drain_at, /*replica=*/0,
                                    FaultKind::kDrain});
  const ClusterReport report =
      MoeCluster(draining, H800Cluster(2)).Run(arrivals);

  EXPECT_EQ(report.replicas_drained, 1);
  EXPECT_EQ(report.replica_failures, 0);
  EXPECT_EQ(report.failed_in_flight, 0);
  // A drain loses nothing: in-flight work on the drained replica finishes.
  EXPECT_EQ(static_cast<int64_t>(report.completed.size()), report.offered);
  ASSERT_EQ(report.completed.size(), clean.completed.size());
  for (size_t i = 0; i < report.completed.size(); ++i) {
    EXPECT_EQ(report.completed[i].output_digest,
              clean.completed[i].output_digest);
  }
  // The drained replica did complete work (it was serving before the
  // drain), but every post-drain dispatch avoided it.
  EXPECT_GT(report.per_replica_completed[0], 0);
  for (const DispatchDecision& d : report.dispatch_log) {
    if (d.time_us >= drain_at) {
      EXPECT_EQ(d.replica, 1) << "dispatched to a drained replica";
      EXPECT_EQ((d.accepting_mask >> 0) & 1, 0u);
    }
  }
}

// A wedged rank (a signal wait no producer will ever satisfy) surfaces as
// a counted replica failure after signal_wait_timeout_ms -- never a hang.
// The suite-visible proof: this test finishes, quickly, with the failure
// accounted and the fleet's work completed by the survivor.
TEST(ClusterFaults, WedgedReplicaFailsFastAndIsCounted) {
  const auto arrivals = LoadGenerator(BurstLoadOptions(12)).GenerateAll();
  ClusterOptions options = FaultClusterOptions(InFlightPolicy::kRedispatch);
  options.server.signal_wait_timeout_ms = 30;  // keep the test fast
  options.faults.events.push_back({0.0, /*replica=*/0, FaultKind::kWedge});

  const auto wall_start = std::chrono::steady_clock::now();
  const ClusterReport report =
      MoeCluster(options, H800Cluster(2)).Run(arrivals);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  EXPECT_EQ(report.replica_failures, 1) << "the wedge must surface as death";
  EXPECT_EQ(static_cast<int64_t>(report.completed.size()), report.offered)
      << "the survivor absorbs the wedged replica's work";
  EXPECT_EQ(report.failed_in_flight, 0);
  // One 30 ms timeout plus real serving work; far below a hang. Generous
  // bound for slow CI machines.
  EXPECT_LT(wall_ms, 10'000.0);
}

// More replicas finish the same overload sooner: the simplest end-to-end
// sanity that dispatching actually spreads load.
TEST(ClusterFaults, FleetFinishesOverloadFasterThanOneReplica) {
  const auto arrivals = LoadGenerator(BurstLoadOptions(32)).GenerateAll();
  const ClusterReport one =
      MoeCluster(BaseClusterOptions(1, PlacementPolicy::kLeastLoaded),
                 H800Cluster(2))
          .Run(arrivals);
  const ClusterReport four =
      MoeCluster(BaseClusterOptions(4, PlacementPolicy::kLeastLoaded),
                 H800Cluster(2))
          .Run(arrivals);
  EXPECT_EQ(static_cast<int64_t>(one.completed.size()), one.offered);
  EXPECT_EQ(static_cast<int64_t>(four.completed.size()), four.offered);
  EXPECT_LT(four.sim_duration_us, one.sim_duration_us);
  EXPECT_GT(four.throughput_tokens_per_s, one.throughput_tokens_per_s);
}

TEST(ClusterOptionsValidation, RejectsBadConfigs) {
  ClusterOptions zero = BaseClusterOptions(0, PlacementPolicy::kRoundRobin);
  EXPECT_THROW(MoeCluster(zero, H800Cluster(2)), CheckError);

  ClusterOptions out_of_range =
      BaseClusterOptions(2, PlacementPolicy::kRoundRobin);
  out_of_range.faults.events.push_back({100.0, /*replica=*/2,
                                        FaultKind::kFail});
  EXPECT_THROW(MoeCluster(out_of_range, H800Cluster(2)), CheckError);

  ClusterOptions unsorted = BaseClusterOptions(2, PlacementPolicy::kRoundRobin);
  unsorted.faults.events.push_back({200.0, 0, FaultKind::kFail});
  unsorted.faults.events.push_back({100.0, 1, FaultKind::kDrain});
  EXPECT_THROW(MoeCluster(unsorted, H800Cluster(2)), CheckError);
}

}  // namespace
}  // namespace comet
