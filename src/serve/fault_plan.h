// Deterministic fault plane for the cluster: a schedule of replica faults
// (and recoveries) on the SIMULATED clock.
//
// Faults are data, not chance: a FaultPlan is part of the cluster config,
// so the same (seed, config, plan) reproduces the same failure interleaving
// bit-for-bit -- which is what lets the fault tests assert exact SLO
// accounting instead of "roughly N requests were affected". Kinds:
//  * kFail    -- the replica dies. If it is mid-iteration, the iteration
//    completes first (simulated work already in flight finishes; death is
//    observed at the next scheduling point, as a real health checker
//    would). Its in-flight requests are drained and re-dispatched, retried
//    with backoff, or counted as SLO violations, per InFlightPolicy.
//  * kDrain   -- graceful decommission: the replica stops accepting new
//    dispatches but keeps iterating until its queue and batcher are empty.
//  * kWedge   -- the replica's next iteration parks in the symmetric heap's
//    WaitUntilSignalGe fail-fast path (a signal no producer raises), so it
//    throws CheckError after ServeOptions::signal_wait_timeout_ms. The
//    cluster catches that and accounts the replica as failed: a wedged rank
//    surfaces as a counted replica failure, never a hang.
//  * kCorrupt -- the replica's next iteration runs with the symmetric
//    heap's link-corruption injector armed at rate 1 (and checksums forced
//    on): the first consumer of a corrupted row throws CheckError naming
//    buffer/rank/row, the cluster counts the replica as failed. Corruption
//    is always DETECTED, never silently served.
//  * kRecover -- a previously failed replica restarts: fresh executor,
//    symmetric heap, EP group and a COLD profile cache, then a configurable
//    warm-up (ClusterOptions::recovery_warmup_us) before it re-enters the
//    accepting set. Moot if the replica is alive at fire time.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace comet {

enum class FaultKind {
  kFail,
  kDrain,
  kWedge,
  kCorrupt,
  kRecover,
};

struct FaultEvent {
  // Simulated time at which the fault fires (applied at the first
  // scheduling point with now >= time_us).
  double time_us = 0.0;
  int replica = 0;
  FaultKind kind = FaultKind::kFail;
};

// What happens to a failed replica's in-flight (admitted, not completed)
// requests.
enum class InFlightPolicy {
  // Recovered specs go back through the dispatcher (ahead of new arrivals,
  // original order preserved) and are recomputed from scratch elsewhere.
  // Because request outputs depend only on (seed, weights) -- never on
  // batch composition -- a re-dispatched request's digest matches the
  // no-fault run exactly; only its latency pays for the failure.
  kRedispatch,
  // Lost: counted as failed_in_flight and charged to the SLO denominator
  // (like shed -- a latency failure the operator chose to take).
  kCountAsViolation,
  // Retried with a per-request budget and exponential backoff + seeded
  // jitter on the SIMULATED clock (ClusterOptions::retry_*): the k-th retry
  // waits retry_backoff_us * 2^k, scaled by a jitter drawn from the
  // cluster's dedicated retry stream. A request whose budget runs out is
  // counted as retries_exhausted (an SLO violation, like failed_in_flight).
  // Same digest guarantee as kRedispatch: retries change latency, not bits.
  kRetryBackoff,
};

// The full schedule. Events must be sorted by time_us (ties fire in vector
// order); MoeCluster validates at construction via ValidateFaultPlan.
struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
};

// Validates a plan against a fleet size: every event in range and at a
// non-negative time, events sorted by time_us, and every kRecover preceded
// by an unrecovered fail-class event (kFail / kWedge / kCorrupt) for the
// same replica -- recovering a replica that never went down is a config
// bug, surfaced loudly instead of silently skipped.
inline void ValidateFaultPlan(const FaultPlan& plan, int num_replicas) {
  std::vector<int> downs(static_cast<size_t>(num_replicas), 0);
  for (size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent& ev = plan.events[i];
    COMET_CHECK_GE(ev.replica, 0) << "fault event " << i;
    COMET_CHECK_LT(ev.replica, num_replicas)
        << "fault event " << i << " targets a replica outside the fleet";
    COMET_CHECK_GE(ev.time_us, 0.0) << "fault event " << i;
    if (i > 0) {
      COMET_CHECK_GE(ev.time_us, plan.events[i - 1].time_us)
          << "fault events must be sorted by time_us";
    }
    switch (ev.kind) {
      case FaultKind::kFail:
      case FaultKind::kWedge:
      case FaultKind::kCorrupt:
        ++downs[static_cast<size_t>(ev.replica)];
        break;
      case FaultKind::kRecover:
        COMET_CHECK_GT(downs[static_cast<size_t>(ev.replica)], 0)
            << "fault event " << i << ": kRecover for replica " << ev.replica
            << " without a prior fail/wedge/corrupt";
        --downs[static_cast<size_t>(ev.replica)];
        break;
      case FaultKind::kDrain:
        break;
    }
  }
}

}  // namespace comet
