// Per-replica health tracking: a circuit breaker that a death opens.
//
// When a replica dies (fail, wedge or corrupt fault) the cluster force-opens
// its breaker: the dispatcher stops sending the replica traffic even if it
// is nominally accepting again. After a deterministic backoff (doubling on
// each consecutive open, capped) the breaker goes HALF-OPEN and admits a
// bounded number of probe requests; a probe success closes the breaker and
// resets the backoff, and a death while half-open re-opens it with a longer
// wait. A completed request is the only other signal the breaker sees.
//
//        success                    death (ForceOpen)
//   +--> kClosed ------------------------------------+
//   |                                                v
//   |    probe success                       kOpen (no dispatch,
//   +--- kHalfOpen <------------------------  backoff doubling)
//          |      now >= open_until                  ^
//          +-----------------------------------------+
//                       death (ForceOpen)
//
// Everything runs on the SIMULATED clock and is pure state-machine -- no
// RNG, no wall time -- so the breaker's trajectory is bit-identical across
// host thread counts and is part of the cluster's determinism contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace comet {

struct HealthOptions {
  // Simulated-us wait before an open breaker goes half-open. Doubles on
  // each consecutive re-open, capped at ReplicaHealth::kMaxBackoffUs; a
  // successful probe resets the streak. In (0, kMaxBackoffUs].
  double probe_backoff_us = 2'000.0;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

class ReplicaHealth {
 public:
  static constexpr double kBackoffMultiplier = 2.0;
  static constexpr double kMaxBackoffUs = 1e8;
  // Probes allowed in flight while half-open.
  static constexpr int kHalfOpenProbes = 1;

  ReplicaHealth(int num_replicas, HealthOptions options);

  // A request completed on `r`. Closes a half-open breaker (probe success)
  // and resets the backoff streak.
  void ObserveSuccess(int r, double now_us);
  // Replica `r` died outright (fail/wedge/corrupt fault). Opens the breaker
  // in any state, with the streak's backoff, so a recovered replica
  // re-enters through the half-open probe path.
  void ForceOpen(int r, double now_us);

  // True when the dispatcher may send `r` a request at `now_us`: closed, or
  // half-open with probe capacity. Open breakers refuse.
  bool AllowDispatch(int r, double now_us) const;
  // The caller admitted a request to a half-open `r`: count it as a probe.
  // No-op unless half-open.
  void OnProbeDispatched(int r, double now_us);

  // Observable state at `now_us` (an open breaker whose backoff elapsed
  // reports half-open).
  BreakerState state(int r, double now_us) const;
  double open_until(int r) const { return reps_[Check(r)].open_until; }
  int consecutive_opens(int r) const { return reps_[Check(r)].streak; }
  int64_t total_opens() const { return total_opens_; }
  int64_t total_probes() const { return total_probes_; }

 private:
  struct Rep {
    bool open = false;          // open OR half-open (split by open_until)
    double open_until = 0.0;    // when open -> half-open
    int streak = 0;             // consecutive opens without a probe success
    int probes_in_flight = 0;   // while half-open
  };

  size_t Check(int r) const;
  bool HalfOpen(const Rep& rep, double now_us) const {
    return rep.open && now_us >= rep.open_until;
  }

  HealthOptions options_;
  std::vector<Rep> reps_;
  int64_t total_opens_ = 0;
  int64_t total_probes_ = 0;
};

}  // namespace comet
