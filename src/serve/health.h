// Per-replica health tracking: failure EWMA feeding a circuit breaker.
//
// The cluster observes one signal per replica per scheduling decision --
// success (a request completed there) or failure (the replica died, wedged,
// or served a corrupted payload) -- and folds it into an exponentially
// weighted moving average. When the failure EWMA crosses a threshold the
// breaker OPENS: the dispatcher stops sending the replica traffic even if it
// is nominally accepting. After a deterministic backoff (doubling on each
// consecutive re-open, capped) the breaker goes HALF-OPEN and admits a
// bounded number of probe requests; a probe success closes the breaker and
// resets the backoff, a probe failure re-opens it with a longer wait.
//
//        success               ewma >= kOpenThreshold
//   +--> kClosed ------------------------------------+
//   |                                                v
//   |    probe success                       kOpen (no dispatch,
//   +--- kHalfOpen <------------------------  backoff doubling)
//          |      now >= open_until                  ^
//          +-----------------------------------------+
//                       probe failure
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
  // EWMA smoothing: ewma <- (1 - alpha) * ewma + alpha * outcome, where
  // outcome is 1.0 for a failure, 0.0 for a success.
  static constexpr double kEwmaAlpha = 0.3;
  // Failure EWMA at or above this opens the breaker: with alpha 0.3, about
  // 2 consecutive failures from healthy.
  static constexpr double kOpenThreshold = 0.5;
  static constexpr double kBackoffMultiplier = 2.0;
  static constexpr double kMaxBackoffUs = 1e8;
  // Probes allowed in flight while half-open.
  static constexpr int kHalfOpenProbes = 1;

  ReplicaHealth(int num_replicas, HealthOptions options);

  // A request completed on `r`. Closes a half-open breaker (probe success),
  // resets the backoff streak, decays the failure EWMA.
  void ObserveSuccess(int r, double now_us);
  // Replica `r` failed a request (or a probe). Bumps the EWMA; opens the
  // breaker if the threshold is crossed or if `r` was half-open.
  void ObserveFailure(int r, double now_us);
  // Replica `r` died outright (fail/wedge/corrupt fault). Records a failure
  // AND forces the breaker open regardless of the EWMA, so a recovered
  // replica re-enters through the half-open probe path.
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
  double failure_ewma(int r) const { return reps_[Check(r)].ewma; }
  double open_until(int r) const { return reps_[Check(r)].open_until; }
  int consecutive_opens(int r) const { return reps_[Check(r)].streak; }
  int64_t total_opens() const { return total_opens_; }
  int64_t total_probes() const { return total_probes_; }

  const HealthOptions& options() const { return options_; }

 private:
  struct Rep {
    double ewma = 0.0;
    bool open = false;          // open OR half-open (split by open_until)
    double open_until = 0.0;    // when open -> half-open
    int streak = 0;             // consecutive opens without a probe success
    int probes_in_flight = 0;   // while half-open
  };

  size_t Check(int r) const;
  bool HalfOpen(const Rep& rep, double now_us) const {
    return rep.open && now_us >= rep.open_until;
  }
  void Open(Rep& rep, double now_us);

  HealthOptions options_;
  std::vector<Rep> reps_;
  int64_t total_opens_ = 0;
  int64_t total_probes_ = 0;
};

}  // namespace comet
