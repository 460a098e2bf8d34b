// Recovery-plane tests: replica recovery (kRecover), deterministic retry
// with backoff + hedged dispatch, health-aware placement (the per-replica
// circuit breaker), and transport integrity (per-row checksums + the
// link-corruption injector).
//
// The acceptance invariants of the subsystem:
//  * determinism -- same seed + config + fault plan => bit-identical
//    reports (digests, counters, percentiles, retry/hedge/breaker
//    trajectories) at COMET_THREADS {1,8}, across all placement policies;
//  * faults never change bits -- a retried, hedged, or redispatched
//    request's output digest equals the no-fault run's: faults and the
//    machinery that survives them move LATENCY only;
//  * recovery -- a kRecover replica is rebuilt from scratch, pays its
//    warm-up before re-entering the accepting set, and re-admits traffic
//    through the breaker's half-open probe path;
//  * hedging -- at most one speculative copy, exactly one completion per
//    request, losers cancelled with exact wasted_tokens accounting;
//  * breaker -- the closed -> open -> half-open state machine honors its
//    contract under randomized trials (exponential backoff capped, probe
//    success closes, probe failure re-opens longer);
//  * integrity -- an injected bit-flip on the symmetric heap is ALWAYS
//    detected at its first consumer (CheckError naming buffer/rank/row),
//    never silently served;
//  * conservation (chaos trials) -- under random fault/recovery plans,
//    offered == completed + shed + failed_in_flight + retries_exhausted
//    and every completed request's bits match the no-fault run.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "comm/symmetric_heap.h"
#include "serve/cluster.h"
#include "serve/health.h"
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

ModelConfig RecoveryModel() {
  ModelConfig m;
  m.name = "recovery-tiny";
  m.layers = 1;
  m.num_experts = 8;
  m.topk = 2;
  m.embedding = 32;
  m.ffn_hidden = 64;
  return m;
}

// A micro model for the randomized chaos trials (hundreds of runs).
ModelConfig MicroModel() {
  ModelConfig m;
  m.name = "recovery-micro";
  m.layers = 1;
  m.num_experts = 4;
  m.topk = 2;
  m.embedding = 8;
  m.ffn_hidden = 16;
  return m;
}

ServeOptions BaseServeOptions(const ModelConfig& model, int ep,
                              int num_threads) {
  ServeOptions o;
  o.model = model;
  o.parallel = ParallelConfig{1, ep};
  o.seed = 1234;
  o.dtype = DType::kF32;
  o.num_threads = num_threads;
  o.token_budget = 16;
  o.max_active = 8;
  o.queue_capacity = 64;
  // Generous SLO so only lost/shed requests can violate it.
  o.slo.ttft_us = 1e12;
  return o;
}

ClusterOptions BaseClusterOptions(int replicas, PlacementPolicy placement,
                                  int num_threads = 1) {
  ClusterOptions o;
  o.server = BaseServeOptions(RecoveryModel(), 2, num_threads);
  o.replicas = replicas;
  o.placement = placement;
  o.placement_seed = 99;
  return o;
}

// Spread arrivals: traffic keeps flowing long enough to straddle a
// fail -> recover -> warm-up -> probe sequence.
LoadGenOptions SpreadLoadOptions(int64_t n = 32) {
  LoadGenOptions o;
  o.seed = 77;
  o.offered_rps = 2000.0;
  o.num_requests = n;
  o.prompt = LengthDist::Uniform(2, 6);
  o.decode = LengthDist::Uniform(0, 4);
  o.num_sessions = 6;
  return o;
}

// Tightly bunched arrivals: both replicas hold in-flight and queued work
// when a fault fires, and queue waits are long enough for hedging.
LoadGenOptions BurstLoadOptions(int64_t n = 24) {
  LoadGenOptions o = SpreadLoadOptions(n);
  o.arrival = ArrivalProcess::kBursty;
  o.mean_burst = static_cast<double>(n);
  o.offered_rps = 1e9;  // everything arrives (essentially) at t=0
  return o;
}

void ExpectReportsIdentical(const ClusterReport& a, const ClusterReport& b) {
  ASSERT_EQ(a.completed.size(), b.completed.size());
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.failed_in_flight, b.failed_in_flight);
  EXPECT_EQ(a.retries_exhausted, b.retries_exhausted);
  EXPECT_EQ(a.redispatched, b.redispatched);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.hedged, b.hedged);
  EXPECT_EQ(a.hedge_wins, b.hedge_wins);
  EXPECT_EQ(a.wasted_tokens, b.wasted_tokens);
  EXPECT_EQ(a.replica_failures, b.replica_failures);
  EXPECT_EQ(a.replicas_recovered, b.replicas_recovered);
  EXPECT_EQ(a.corruptions_detected, b.corruptions_detected);
  EXPECT_EQ(a.breaker_opens, b.breaker_opens);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.batched_tokens, b.batched_tokens);
  EXPECT_EQ(a.per_replica_completed, b.per_replica_completed);
  EXPECT_EQ(a.per_replica_iterations, b.per_replica_iterations);
  for (size_t i = 0; i < a.completed.size(); ++i) {
    const RequestRecord& ra = a.completed[i];
    const RequestRecord& rb = b.completed[i];
    EXPECT_EQ(ra.id, rb.id);
    EXPECT_EQ(ra.output_digest, rb.output_digest)
        << "request " << ra.id << " output bits changed";
    EXPECT_EQ(ra.queue_wait_us, rb.queue_wait_us);
    EXPECT_EQ(ra.e2e_us, rb.e2e_us);
    EXPECT_EQ(ra.retries, rb.retries);
    EXPECT_EQ(ra.hedged, rb.hedged);
  }
  EXPECT_EQ(a.combined_digest, b.combined_digest);
  EXPECT_EQ(a.sim_duration_us, b.sim_duration_us);
  EXPECT_EQ(a.ttft_us.p99, b.ttft_us.p99);
  EXPECT_EQ(a.itl_us.p99, b.itl_us.p99);
  EXPECT_EQ(a.e2e_us.p99, b.e2e_us.p99);
}

// Per-request digest map of a no-fault, no-hedge run over `arrivals`: the
// ground truth every fault/retry/hedge scenario must reproduce bit-for-bit.
std::map<int64_t, uint64_t> CleanDigests(
    const std::vector<RequestSpec>& arrivals, double* duration = nullptr) {
  ClusterOptions clean =
      BaseClusterOptions(2, PlacementPolicy::kLeastLoaded);
  const ClusterReport report =
      MoeCluster(clean, H800Cluster(2)).Run(arrivals);
  COMET_CHECK_EQ(static_cast<int64_t>(report.completed.size()),
                 report.offered);
  std::map<int64_t, uint64_t> digests;
  for (const RequestRecord& rec : report.completed) {
    digests[rec.id] = rec.output_digest;
  }
  if (duration != nullptr) {
    *duration = report.sim_duration_us;
  }
  return digests;
}

// ---- determinism tier ------------------------------------------------------

// The acceptance matrix of the recovery plane: a plan that exercises fail,
// recover-with-warm-up, backoff retries, hedging and the breaker at once
// must produce bit-identical reports at 1 vs 8 host threads, for every
// placement policy. Breaker trajectories are RNG-free and retry jitter
// draws from its own seeded stream, so NOTHING may move.
TEST(RecoveryDeterminism, AcrossThreadCountsAndPolicies) {
  const auto arrivals = LoadGenerator(SpreadLoadOptions()).GenerateAll();
  double duration = 0.0;
  CleanDigests(arrivals, &duration);
  for (PlacementPolicy policy : kAllPolicies) {
    SCOPED_TRACE(PlacementPolicyName(policy));
    ClusterOptions serial = BaseClusterOptions(2, policy, /*num_threads=*/1);
    serial.in_flight = InFlightPolicy::kRetryBackoff;
    serial.retry_budget = 3;
    serial.hedge_queue_wait_us = duration * 0.05;
    serial.recovery_warmup_us = duration * 0.05;
    serial.faults.events.push_back(
        {duration * 0.3, /*replica=*/0, FaultKind::kFail});
    serial.faults.events.push_back(
        {duration * 0.5, /*replica=*/0, FaultKind::kRecover});
    ClusterOptions threaded = serial;
    threaded.server.num_threads = 8;
    const ClusterReport a = MoeCluster(serial, H800Cluster(2)).Run(arrivals);
    const ClusterReport b =
        MoeCluster(threaded, H800Cluster(2)).Run(arrivals);
    ExpectReportsIdentical(a, b);
    EXPECT_EQ(a.replica_failures, 1);
    EXPECT_EQ(a.replicas_recovered, 1);
    EXPECT_EQ(static_cast<int64_t>(a.completed.size()) + a.shed +
                  a.failed_in_flight + a.retries_exhausted,
              a.offered);
  }
}

// A cluster that replaced a replica mid-run (kRecover) is still reusable:
// the same object re-run over the same arrivals reproduces itself bit for
// bit -- the fresh incarnation has the same seed, hence the same weights,
// and BeginRun resets everything else.
TEST(RecoveryDeterminism, RerunAfterRecoveryIsBitIdentical) {
  const auto arrivals = LoadGenerator(SpreadLoadOptions()).GenerateAll();
  double duration = 0.0;
  CleanDigests(arrivals, &duration);
  ClusterOptions options =
      BaseClusterOptions(2, PlacementPolicy::kLeastLoaded);
  options.in_flight = InFlightPolicy::kRetryBackoff;
  options.recovery_warmup_us = duration * 0.05;
  options.faults.events.push_back({duration * 0.3, 0, FaultKind::kFail});
  options.faults.events.push_back({duration * 0.5, 0, FaultKind::kRecover});
  MoeCluster cluster(options, H800Cluster(2));
  const ClusterReport a = cluster.Run(arrivals);
  const ClusterReport b = cluster.Run(arrivals);
  EXPECT_EQ(a.replicas_recovered, 1);
  ExpectReportsIdentical(a, b);
}

// ---- replica recovery ------------------------------------------------------

// The full lifecycle: fail -> dead (breaker force-opened) -> rebuilt from
// scratch -> warming (still not accepting) -> accepting, re-admitted
// through a half-open probe. No dispatch may land on the replica between
// its death and the end of its warm-up, and once it is back it serves real
// work -- with the same output bits the no-fault run produced.
TEST(ReplicaRecovery, FailThenRecoverRejoinsAfterWarmupViaProbe) {
  const auto arrivals = LoadGenerator(SpreadLoadOptions()).GenerateAll();
  double duration = 0.0;
  const auto clean = CleanDigests(arrivals, &duration);

  ClusterOptions options =
      BaseClusterOptions(2, PlacementPolicy::kLeastLoaded);
  options.record_dispatch_log = true;
  const double fail_at = duration * 0.25;
  const double recover_at = duration * 0.45;
  options.recovery_warmup_us = duration * 0.05;
  options.faults.events.push_back({fail_at, 0, FaultKind::kFail});
  options.faults.events.push_back({recover_at, 0, FaultKind::kRecover});
  const ClusterReport report =
      MoeCluster(options, H800Cluster(2)).Run(arrivals);

  EXPECT_EQ(report.replica_failures, 1);
  EXPECT_EQ(report.replicas_recovered, 1);
  EXPECT_GE(report.breaker_opens, 1) << "death must force the breaker open";
  // Nothing lost under kRedispatch, and recovery never changes bits.
  EXPECT_EQ(static_cast<int64_t>(report.completed.size()), report.offered);
  for (const RequestRecord& rec : report.completed) {
    EXPECT_EQ(rec.output_digest, clean.at(rec.id)) << "request " << rec.id;
  }
  // The dead/warming window is dispatch-free; re-entry is through a probe.
  const double back_at = recover_at + options.recovery_warmup_us;
  bool probed = false;
  bool served_after_recovery = false;
  for (const DispatchDecision& d : report.dispatch_log) {
    if (d.replica != 0) {
      continue;
    }
    if (d.time_us > fail_at) {
      EXPECT_GE(d.time_us, back_at)
          << "dispatched to replica 0 while dead or warming";
      served_after_recovery = true;
      probed = probed || d.probe;
    }
  }
  EXPECT_TRUE(served_after_recovery)
      << "the recovered replica never took traffic again";
  EXPECT_TRUE(probed)
      << "re-entry must go through the breaker's half-open probe";
  EXPECT_GT(report.probes, 0);
}

// A recovery with zero warm-up re-enters immediately (modulo the breaker's
// backoff); a long warm-up visibly delays the first post-recovery dispatch.
TEST(ReplicaRecovery, WarmupDelaysReentry) {
  const auto arrivals = LoadGenerator(SpreadLoadOptions()).GenerateAll();
  double duration = 0.0;
  CleanDigests(arrivals, &duration);

  auto first_return = [&](double warmup) {
    ClusterOptions options =
        BaseClusterOptions(2, PlacementPolicy::kLeastLoaded);
    options.record_dispatch_log = true;
    options.recovery_warmup_us = warmup;
    options.faults.events.push_back({duration * 0.25, 0, FaultKind::kFail});
    options.faults.events.push_back(
        {duration * 0.4, 0, FaultKind::kRecover});
    const ClusterReport report =
        MoeCluster(options, H800Cluster(2)).Run(arrivals);
    COMET_CHECK_EQ(report.replicas_recovered, 1);
    double first = -1.0;
    for (const DispatchDecision& d : report.dispatch_log) {
      if (d.replica == 0 && d.time_us > duration * 0.25) {
        first = d.time_us;
        break;
      }
    }
    return first;
  };
  const double eager = first_return(/*warmup=*/0.0);
  const double lazy = first_return(/*warmup=*/duration * 0.3);
  ASSERT_GE(eager, 0.0);
  ASSERT_GE(lazy, 0.0);
  EXPECT_GE(lazy, duration * 0.4 + duration * 0.3);
  EXPECT_LT(eager, lazy);
}

// ---- deterministic retry + hedging -----------------------------------------

// kRetryBackoff: in-flight requests on a dying replica come back through
// seeded exponential backoff and land on the survivor. Nothing is lost,
// the per-request retry annotations reconcile with the report counter, and
// every retried request's bits match the no-fault run.
TEST(RetryBackoff, FailedInFlightRetriesMatchNoFaultBits) {
  const auto arrivals = LoadGenerator(BurstLoadOptions()).GenerateAll();
  double duration = 0.0;
  const auto clean = CleanDigests(arrivals, &duration);

  ClusterOptions options =
      BaseClusterOptions(2, PlacementPolicy::kLeastLoaded);
  options.in_flight = InFlightPolicy::kRetryBackoff;
  options.retry_budget = 4;
  options.faults.events.push_back({duration * 0.4, 0, FaultKind::kFail});
  const ClusterReport report =
      MoeCluster(options, H800Cluster(2)).Run(arrivals);

  EXPECT_EQ(report.replica_failures, 1);
  EXPECT_GT(report.retries, 0) << "replica 0 held work when it died";
  EXPECT_EQ(report.retries_exhausted, 0);
  EXPECT_EQ(report.failed_in_flight, 0);
  EXPECT_EQ(static_cast<int64_t>(report.completed.size()), report.offered);
  EXPECT_EQ(report.slo_violations, 0);
  int64_t annotated = 0;
  for (const RequestRecord& rec : report.completed) {
    annotated += rec.retries;
    EXPECT_EQ(rec.output_digest, clean.at(rec.id))
        << "retry changed request " << rec.id << "'s output bits";
  }
  EXPECT_EQ(annotated, report.retries)
      << "per-request retry annotations must reconcile with the counter";
}

// retry_budget = 0 means a failed in-flight request is immediately
// retries_exhausted -- and exhausted requests are SLO violations, counted
// in the attainment denominator exactly like sheds.
TEST(RetryBackoff, ZeroBudgetExhaustsAndChargesSlo) {
  const auto arrivals = LoadGenerator(BurstLoadOptions()).GenerateAll();
  double duration = 0.0;
  CleanDigests(arrivals, &duration);

  ClusterOptions options =
      BaseClusterOptions(2, PlacementPolicy::kLeastLoaded);
  options.in_flight = InFlightPolicy::kRetryBackoff;
  options.retry_budget = 0;
  options.faults.events.push_back({duration * 0.4, 0, FaultKind::kFail});
  const ClusterReport report =
      MoeCluster(options, H800Cluster(2)).Run(arrivals);

  EXPECT_GT(report.retries_exhausted, 0);
  EXPECT_EQ(report.retries, 0);
  EXPECT_EQ(static_cast<int64_t>(report.completed.size()) +
                report.retries_exhausted,
            report.offered);
  EXPECT_EQ(report.slo_violations, report.retries_exhausted);
  EXPECT_DOUBLE_EQ(
      report.slo_attainment,
      static_cast<double>(report.completed.size()) /
          static_cast<double>(report.offered));
}

// Hedging under a burst: long queue waits trigger speculative second
// copies. Exactly one completion per request, losers cancelled with their
// executed tokens charged to wasted_tokens, and the bits are exactly the
// no-hedge run's.
TEST(Hedging, ExactlyOneCompletionAndBitsUnchanged) {
  const auto arrivals = LoadGenerator(BurstLoadOptions()).GenerateAll();
  double duration = 0.0;
  const auto clean = CleanDigests(arrivals, &duration);

  ClusterOptions options =
      BaseClusterOptions(2, PlacementPolicy::kLeastLoaded);
  options.hedge_queue_wait_us = duration * 0.05;
  options.record_dispatch_log = true;
  const ClusterReport report =
      MoeCluster(options, H800Cluster(2)).Run(arrivals);

  EXPECT_GT(report.hedged, 0) << "burst queue waits must trigger hedges";
  EXPECT_LE(report.hedge_wins, report.hedged);
  EXPECT_GE(report.wasted_tokens, 0);
  EXPECT_EQ(static_cast<int64_t>(report.completed.size()), report.offered);
  // Exactly one completion per request id.
  std::set<int64_t> ids;
  for (const RequestRecord& rec : report.completed) {
    EXPECT_TRUE(ids.insert(rec.id).second)
        << "request " << rec.id << " completed twice";
    EXPECT_EQ(rec.output_digest, clean.at(rec.id))
        << "hedging changed request " << rec.id << "'s output bits";
  }
  // Every hedge dispatch in the log is a second copy of a known request.
  int64_t hedge_dispatches = 0;
  for (const DispatchDecision& d : report.dispatch_log) {
    if (d.hedge) {
      ++hedge_dispatches;
      EXPECT_TRUE(ids.count(d.request_id));
    }
  }
  EXPECT_EQ(hedge_dispatches, report.hedged);
  // The hedged flag is annotated onto completed records.
  int64_t annotated = 0;
  for (const RequestRecord& rec : report.completed) {
    annotated += rec.hedged ? 1 : 0;
  }
  EXPECT_GE(annotated, report.hedged);
}

// A hedged request survives its primary's death: the speculative copy
// completes, so even kCountAsViolation loses nothing it hedged.
TEST(Hedging, HedgeCopyRescuesRequestsFromDyingPrimary) {
  const auto arrivals = LoadGenerator(BurstLoadOptions()).GenerateAll();
  double duration = 0.0;
  const auto clean = CleanDigests(arrivals, &duration);

  ClusterOptions no_hedge =
      BaseClusterOptions(2, PlacementPolicy::kLeastLoaded);
  no_hedge.in_flight = InFlightPolicy::kCountAsViolation;
  no_hedge.faults.events.push_back({duration * 0.4, 0, FaultKind::kFail});
  ClusterOptions hedge = no_hedge;
  hedge.hedge_queue_wait_us = duration * 0.03;

  const ClusterReport without =
      MoeCluster(no_hedge, H800Cluster(2)).Run(arrivals);
  const ClusterReport with = MoeCluster(hedge, H800Cluster(2)).Run(arrivals);
  ASSERT_GT(without.failed_in_flight, 0)
      << "the fault must cost something without hedging";
  EXPECT_GT(with.hedged, 0);
  EXPECT_LT(with.failed_in_flight, without.failed_in_flight)
      << "hedged copies on the survivor must rescue some requests";
  for (const RequestRecord& rec : with.completed) {
    EXPECT_EQ(rec.output_digest, clean.at(rec.id));
  }
}

// ---- circuit breaker -------------------------------------------------------

// Scripted walk through the state machine as the cluster drives it: a
// death force-opens it, the backoff gates re-entry, a death while half-open
// re-opens with a doubled wait, a probe success closes it and resets the
// streak.
TEST(CircuitBreaker, ScriptedTransitions) {
  HealthOptions options;  // backoff 2000, x2
  ReplicaHealth health(1, options);
  EXPECT_EQ(health.state(0, 0.0), BreakerState::kClosed);
  EXPECT_TRUE(health.AllowDispatch(0, 0.0));

  health.ForceOpen(0, 0.0);
  EXPECT_EQ(health.state(0, 0.0), BreakerState::kOpen);
  EXPECT_FALSE(health.AllowDispatch(0, 0.0));
  EXPECT_EQ(health.consecutive_opens(0), 1);
  EXPECT_DOUBLE_EQ(health.open_until(0), 2000.0);

  // Backoff elapsed: half-open, one probe allowed.
  EXPECT_EQ(health.state(0, 2000.0), BreakerState::kHalfOpen);
  EXPECT_TRUE(health.AllowDispatch(0, 2000.0));
  health.OnProbeDispatched(0, 2000.0);
  EXPECT_FALSE(health.AllowDispatch(0, 2000.0))
      << "half_open_probes = 1: the second probe must wait";
  EXPECT_EQ(health.total_probes(), 1);

  // The half-open replica dies again: re-open with doubled backoff.
  health.ForceOpen(0, 2100.0);
  EXPECT_EQ(health.state(0, 2100.0), BreakerState::kOpen);
  EXPECT_FALSE(health.AllowDispatch(0, 2100.0));
  EXPECT_EQ(health.consecutive_opens(0), 2);
  EXPECT_DOUBLE_EQ(health.open_until(0), 2100.0 + 4000.0);

  // Backoff elapsed again; this probe succeeds: closed, streak reset.
  EXPECT_EQ(health.state(0, 6100.0), BreakerState::kHalfOpen);
  health.OnProbeDispatched(0, 6100.0);
  health.ObserveSuccess(0, 6200.0);
  EXPECT_EQ(health.state(0, 6200.0), BreakerState::kClosed);
  EXPECT_EQ(health.consecutive_opens(0), 0);
  EXPECT_TRUE(health.AllowDispatch(0, 6200.0));
  EXPECT_EQ(health.total_opens(), 2);

  // A reset streak: the next death waits the base backoff again.
  health.ForceOpen(0, 7000.0);
  EXPECT_DOUBLE_EQ(health.open_until(0), 7000.0 + 2000.0);
}

TEST(CircuitBreaker, OneDeathOpensOnlyThatReplica) {
  ReplicaHealth health(2, HealthOptions{});
  // One death opens a closed breaker at once, and only replica 0's.
  health.ForceOpen(0, 100.0);
  EXPECT_EQ(health.state(0, 100.0), BreakerState::kOpen);
  EXPECT_FALSE(health.AllowDispatch(0, 100.0));
  EXPECT_EQ(health.state(1, 100.0), BreakerState::kClosed);
  EXPECT_TRUE(health.AllowDispatch(1, 100.0));
}

// Randomized property trials: whatever the op sequence, the breaker's
// observable contract holds -- open refuses, closed admits, backoff is
// bounded by ReplicaHealth::kMaxBackoffUs, a half-open probe success always
// closes and resets the streak.
TEST(CircuitBreaker, RandomizedContractTrials) {
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(std::string("trial=") + std::to_string(trial));
    Rng rng(7000 + static_cast<uint64_t>(trial));
    HealthOptions options;
    options.probe_backoff_us = 500.0 + 3000.0 * rng.NextDouble();
    const int replicas = static_cast<int>(rng.UniformInt(1, 3));
    ReplicaHealth health(replicas, options);
    double now = 0.0;
    for (int op = 0; op < 50; ++op) {
      now += rng.NextDouble() * options.probe_backoff_us * 2.0;
      const int r = static_cast<int>(rng.UniformInt(0, replicas - 1));
      const double u = rng.NextDouble();
      const BreakerState before = health.state(r, now);
      if (u < 0.5) {
        if (before == BreakerState::kHalfOpen && health.AllowDispatch(r, now)) {
          health.OnProbeDispatched(r, now);
        }
        health.ObserveSuccess(r, now);
        if (before == BreakerState::kHalfOpen) {
          EXPECT_EQ(health.state(r, now), BreakerState::kClosed)
              << "a probe success must close the breaker";
          EXPECT_EQ(health.consecutive_opens(r), 0);
        }
      } else {
        health.ForceOpen(r, now);
        EXPECT_EQ(health.state(r, now), BreakerState::kOpen);
      }
      for (int q = 0; q < replicas; ++q) {
        const BreakerState s = health.state(q, now);
        if (s == BreakerState::kOpen) {
          EXPECT_FALSE(health.AllowDispatch(q, now));
          EXPECT_LE(health.open_until(q),
                    now + ReplicaHealth::kMaxBackoffUs);
        }
        if (s == BreakerState::kClosed) {
          EXPECT_TRUE(health.AllowDispatch(q, now));
        }
      }
    }
  }
}

// ---- transport integrity ---------------------------------------------------

// Heap-level always-detected trials: every row the injector corrupted
// throws CheckError at its first read -- detection count equals injection
// count, over 100 randomized trials, and the error names buffer/rank/row.
TEST(TransportIntegrity, InjectedCorruptionAlwaysDetected) {
  int64_t total_corrupted = 0;
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE(std::string("trial=") + std::to_string(trial));
    HeapIntegrityOptions integrity;
    integrity.checksum_rows = true;
    integrity.corrupt_rate = 0.5;
    integrity.corrupt_seed = 4000 + static_cast<uint64_t>(trial);
    SymmetricHeap heap(2, integrity);
    const auto buf = heap.Allocate("payload", Shape{16, 8});
    Rng rng(integrity.corrupt_seed);
    std::vector<float> row(8);
    for (int64_t i = 0; i < 16; ++i) {
      for (float& v : row) {
        v = static_cast<float>(rng.Normal());
      }
      heap.PutRow(buf, /*src_rank=*/0, /*dst_rank=*/1, i, row);
    }
    int64_t detected = 0;
    std::vector<float> got(8);
    for (int64_t i = 0; i < 16; ++i) {
      try {
        heap.CopyRow(buf, /*reader_rank=*/0, /*owner_rank=*/1, i, got);
      } catch (const CheckError& e) {
        ++detected;
        const std::string what = e.what();
        EXPECT_NE(what.find("transport integrity"), std::string::npos);
        EXPECT_NE(what.find("payload"), std::string::npos)
            << "the error must name the buffer";
        EXPECT_NE(what.find("@rank1"), std::string::npos)
            << "the error must name the rank";
        EXPECT_NE(what.find("row " + std::to_string(i)), std::string::npos)
            << "the error must name the row";
      }
    }
    EXPECT_EQ(detected, heap.rows_corrupted())
        << "every injected flip must be detected, and nothing else";
    total_corrupted += heap.rows_corrupted();
  }
  EXPECT_GT(total_corrupted, 0) << "rate 0.5 over 1600 rows cannot miss";
}

// Clean transport verifies and passes: checksums on, no injector, every
// read verified, zero corruption.
TEST(TransportIntegrity, CleanRowsVerifyAndPass) {
  HeapIntegrityOptions integrity;
  integrity.checksum_rows = true;
  SymmetricHeap heap(2, integrity);
  const auto buf = heap.Allocate("payload", Shape{4, 8});
  std::vector<float> row(8, 1.5f);
  std::vector<float> got(8);
  for (int64_t i = 0; i < 4; ++i) {
    heap.PutRow(buf, 0, 1, i, row);
    heap.CopyRow(buf, 0, 1, i, got);
    EXPECT_EQ(got, row);
  }
  EXPECT_EQ(heap.rows_corrupted(), 0);
  EXPECT_EQ(heap.rows_verified(), 4);
}

// Cluster-level: a kCorrupt fault flips a bit on the faulted replica's
// next iteration. The checksum catches it (a counted corruption + replica
// failure, never silent corruption), the fleet redispatches, and every
// served bit matches the no-fault run.
TEST(TransportIntegrity, CorruptFaultIsDetectedNeverServed) {
  const auto arrivals = LoadGenerator(BurstLoadOptions()).GenerateAll();
  const auto clean = CleanDigests(arrivals);

  ClusterOptions options =
      BaseClusterOptions(2, PlacementPolicy::kLeastLoaded);
  options.faults.events.push_back({0.0, 0, FaultKind::kCorrupt});
  const ClusterReport report =
      MoeCluster(options, H800Cluster(2)).Run(arrivals);

  EXPECT_EQ(report.corruptions_detected, 1);
  EXPECT_EQ(report.replica_failures, 1);
  EXPECT_EQ(static_cast<int64_t>(report.completed.size()), report.offered)
      << "the survivor absorbs the corrupted replica's work";
  for (const RequestRecord& rec : report.completed) {
    EXPECT_EQ(rec.output_digest, clean.at(rec.id))
        << "a corrupted payload leaked into request " << rec.id;
  }
}

// Detection holds across 20 randomized corruption trials: whichever
// replica and moment the corruption hits, it is detected 100% of the time.
TEST(TransportIntegrity, ClusterCorruptionDetectionTrials) {
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE(std::string("trial=") + std::to_string(trial));
    Rng rng(6100 + static_cast<uint64_t>(trial));
    LoadGenOptions load = BurstLoadOptions(12);
    load.seed = 600 + static_cast<uint64_t>(trial);
    const auto arrivals = LoadGenerator(load).GenerateAll();
    ClusterOptions options;
    options.server = BaseServeOptions(MicroModel(), /*ep=*/1, 1);
    options.replicas = 2;
    options.placement = PlacementPolicy::kLeastLoaded;
    const int victim = static_cast<int>(rng.UniformInt(0, 1));
    options.faults.events.push_back({0.0, victim, FaultKind::kCorrupt});
    const ClusterReport report =
        MoeCluster(options, H800Cluster(1)).Run(arrivals);
    EXPECT_EQ(report.corruptions_detected, 1)
        << "an injected corruption went undetected";
  }
}

// ---- sticky-pin regression -------------------------------------------------

// The fixed bug: a session pinned to a replica that died and later
// recovered must NOT be routed to the stale pin. The pin is re-validated
// against the accepting set on every dispatch; once re-homed, the session
// stays on its new replica even after the old one recovers (the recovered
// replica wins sessions back through re-homing, never by inheritance).
TEST(StickyRegression, PinRevalidatedAgainstAcceptingSet) {
  Dispatcher dispatcher(PlacementPolicy::kSticky, 2, /*seed=*/7);
  std::vector<int64_t> loads = {0, 100};
  std::vector<bool> accepting = {true, true};
  RequestSpec spec;
  spec.session = 42;

  // First sight: homes least-loaded onto replica 0 and pins.
  EXPECT_EQ(dispatcher.Pick(spec, loads, accepting, nullptr), 0);

  // Replica 0 dies (leaves the accepting set). The pin is stale: the
  // session must re-home to replica 1, NOT be routed to the dead pin.
  accepting[0] = false;
  DispatchDecision d;
  EXPECT_EQ(dispatcher.Pick(spec, loads, accepting, &d), 1);
  EXPECT_FALSE(d.sticky_hit);

  // Replica 0 recovers -- empty, so least-loaded would prefer it. The
  // session's pin moved to replica 1 and stays there (KV affinity).
  accepting[0] = true;
  loads = {0, 100};
  EXPECT_EQ(dispatcher.Pick(spec, loads, accepting, &d), 1);
  EXPECT_TRUE(d.sticky_hit);

  // A NEW session homes onto the recovered (least-loaded) replica: it wins
  // traffic back through re-homing.
  RequestSpec fresh;
  fresh.session = 43;
  EXPECT_EQ(dispatcher.Pick(fresh, loads, accepting, nullptr), 0);
}

// End-to-end: sticky fleet, pinned replica fails and recovers mid-run.
// Every dispatch in the log landed on a replica that was accepting at
// decision time -- the stale-pin dispatch the bug allowed cannot appear.
TEST(StickyRegression, NoDispatchToDeadPinAcrossFailAndRecover) {
  const auto arrivals = LoadGenerator(SpreadLoadOptions()).GenerateAll();
  double duration = 0.0;
  const auto clean = CleanDigests(arrivals, &duration);

  ClusterOptions options = BaseClusterOptions(2, PlacementPolicy::kSticky);
  options.record_dispatch_log = true;
  options.recovery_warmup_us = duration * 0.05;
  options.faults.events.push_back({duration * 0.25, 0, FaultKind::kFail});
  options.faults.events.push_back({duration * 0.45, 0, FaultKind::kRecover});
  const ClusterReport report =
      MoeCluster(options, H800Cluster(2)).Run(arrivals);

  EXPECT_EQ(report.replicas_recovered, 1);
  EXPECT_EQ(static_cast<int64_t>(report.completed.size()), report.offered);
  for (const DispatchDecision& d : report.dispatch_log) {
    if (d.replica < 0) {
      continue;
    }
    EXPECT_EQ((d.accepting_mask >> d.replica) & 1, 1u)
        << "request " << d.request_id
        << " dispatched to a non-accepting replica at t=" << d.time_us;
  }
  for (const RequestRecord& rec : report.completed) {
    EXPECT_EQ(rec.output_digest, clean.at(rec.id));
  }
}

// ---- options validation ----------------------------------------------------

TEST(RobustnessValidation, ServerRejectsNonPositiveSignalTimeout) {
  ServeOptions bad = BaseServeOptions(MicroModel(), 1, 1);
  bad.signal_wait_timeout_ms = 0;
  EXPECT_THROW(MoeServer(bad, H800Cluster(1)), CheckError);
  bad.signal_wait_timeout_ms = -5;
  EXPECT_THROW(MoeServer(bad, H800Cluster(1)), CheckError);
}

TEST(RobustnessValidation, ClusterRejectsBadRecoveryKnobs) {
  const auto make = [](auto&& mutate) {
    ClusterOptions o = BaseClusterOptions(2, PlacementPolicy::kRoundRobin);
    mutate(o);
    return o;
  };
  EXPECT_THROW(MoeCluster(make([](ClusterOptions& o) {
                 o.retry_budget = -1;
               }),
                          H800Cluster(2)),
               CheckError);
  EXPECT_THROW(MoeCluster(make([](ClusterOptions& o) {
                 o.retry_backoff_us = 0.0;
               }),
                          H800Cluster(2)),
               CheckError);
  EXPECT_THROW(MoeCluster(make([](ClusterOptions& o) {
                 o.recovery_warmup_us = -1.0;
               }),
                          H800Cluster(2)),
               CheckError);
  EXPECT_THROW(MoeCluster(make([](ClusterOptions& o) {
                 o.hedge_queue_wait_us = -1.0;
               }),
                          H800Cluster(2)),
               CheckError);
  // Health options are validated at construction, not first at Run.
  EXPECT_THROW(MoeCluster(make([](ClusterOptions& o) {
                 o.health.probe_backoff_us = 0.0;
               }),
                          H800Cluster(2)),
               CheckError);
}

TEST(RobustnessValidation, FaultPlanRejectsMalformedPlans) {
  FaultPlan plan;
  // Out-of-range replica.
  plan.events = {{100.0, 2, FaultKind::kFail}};
  EXPECT_THROW(ValidateFaultPlan(plan, 2), CheckError);
  // Negative time.
  plan.events = {{-1.0, 0, FaultKind::kFail}};
  EXPECT_THROW(ValidateFaultPlan(plan, 2), CheckError);
  // Unsorted times.
  plan.events = {{200.0, 0, FaultKind::kFail}, {100.0, 1, FaultKind::kDrain}};
  EXPECT_THROW(ValidateFaultPlan(plan, 2), CheckError);
  // kRecover without a prior fail/wedge/corrupt.
  plan.events = {{100.0, 0, FaultKind::kRecover}};
  EXPECT_THROW(ValidateFaultPlan(plan, 2), CheckError);
  // A drain does not count as down: recovering a drained replica is invalid.
  plan.events = {{100.0, 0, FaultKind::kDrain},
                 {200.0, 0, FaultKind::kRecover}};
  EXPECT_THROW(ValidateFaultPlan(plan, 2), CheckError);
  // Valid plans pass: fail -> recover -> fail -> recover, and every down
  // kind can be recovered from.
  plan.events = {{100.0, 0, FaultKind::kFail},
                 {200.0, 0, FaultKind::kRecover},
                 {300.0, 0, FaultKind::kCorrupt},
                 {400.0, 0, FaultKind::kRecover},
                 {500.0, 1, FaultKind::kWedge},
                 {600.0, 1, FaultKind::kRecover}};
  EXPECT_NO_THROW(ValidateFaultPlan(plan, 2));
}

// ---- chaos property suite --------------------------------------------------

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

// A random but VALID fault plan (sorted times, in-range replicas, kRecover
// only after a down): fail / corrupt / drain / recover. kWedge is excluded
// here because its fail-fast costs real wall-clock per wedge (covered by
// cluster_test and the plan-validation test above).
FaultPlan RandomPlan(Rng& rng, int replicas, double horizon) {
  FaultPlan plan;
  std::vector<int> downs(static_cast<size_t>(replicas), 0);
  const int n = static_cast<int>(rng.UniformInt(1, 4));
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    t += rng.NextDouble() * horizon / static_cast<double>(n);
    const int r = static_cast<int>(rng.UniformInt(0, replicas - 1));
    const double u = rng.NextDouble();
    FaultKind kind;
    if (downs[static_cast<size_t>(r)] > 0 && u < 0.5) {
      kind = FaultKind::kRecover;
      --downs[static_cast<size_t>(r)];
    } else if (u < 0.75) {
      kind = FaultKind::kFail;
      ++downs[static_cast<size_t>(r)];
    } else if (u < 0.9) {
      kind = FaultKind::kCorrupt;
      ++downs[static_cast<size_t>(r)];
    } else {
      kind = FaultKind::kDrain;
    }
    plan.events.push_back({t, r, kind});
  }
  return plan;
}

// 100 randomized fleets under random fault/recovery plans, random
// InFlightPolicy, random retry budgets, hedging on half the trials.
// Per trial:
//  * conservation -- offered == completed + shed + failed_in_flight +
//    retries_exhausted (the cluster also CHECKs this internally; asserting
//    here keeps the property visible in the suite);
//  * exactly-one-completion -- no request id completes twice, hedged or not;
//  * bits never change -- every completed request's digest equals the
//    no-fault run's over the same arrivals.
TEST(ChaosProperty, RandomFaultPlansConserveAndPreserveBits) {
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE(std::string("trial=") + std::to_string(trial));
    Rng rng(12000 + static_cast<uint64_t>(trial));
    const auto arrivals = RandomArrivals(rng, rng.UniformInt(4, 10));
    const int replicas = static_cast<int>(rng.UniformInt(2, 3));
    const PlacementPolicy policy =
        kAllPolicies[rng.UniformInt(0, 3)];

    ClusterOptions clean;
    clean.server = BaseServeOptions(MicroModel(), /*ep=*/1, 1);
    clean.replicas = replicas;
    clean.placement = policy;
    clean.placement_seed = 5000 + static_cast<uint64_t>(trial);
    const ClusterReport baseline =
        MoeCluster(clean, H800Cluster(1)).Run(arrivals);
    ASSERT_EQ(static_cast<int64_t>(baseline.completed.size()),
              baseline.offered);
    std::map<int64_t, uint64_t> clean_digest;
    for (const RequestRecord& rec : baseline.completed) {
      clean_digest[rec.id] = rec.output_digest;
    }

    ClusterOptions chaotic = clean;
    chaotic.faults = RandomPlan(rng, replicas, baseline.sim_duration_us);
    chaotic.in_flight = static_cast<InFlightPolicy>(rng.UniformInt(0, 2));
    chaotic.retry_budget = static_cast<int>(rng.UniformInt(0, 3));
    chaotic.recovery_warmup_us =
        rng.NextDouble() * baseline.sim_duration_us * 0.1;
    if (rng.NextDouble() < 0.5) {
      chaotic.hedge_queue_wait_us = baseline.sim_duration_us *
                                    (0.02 + 0.1 * rng.NextDouble());
    }
    const ClusterReport report =
        MoeCluster(chaotic, H800Cluster(1)).Run(arrivals);

    EXPECT_EQ(static_cast<int64_t>(report.completed.size()) + report.shed +
                  report.failed_in_flight + report.retries_exhausted,
              report.offered)
        << "conservation violated under a random fault plan";
    std::set<int64_t> ids;
    for (const RequestRecord& rec : report.completed) {
      EXPECT_TRUE(ids.insert(rec.id).second)
          << "request " << rec.id << " completed twice";
      EXPECT_EQ(rec.output_digest, clean_digest.at(rec.id))
          << "request " << rec.id << " served different bits under chaos";
    }
  }
}

}  // namespace
}  // namespace comet
