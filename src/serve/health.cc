#include "serve/health.h"

#include <algorithm>

#include "util/check.h"

namespace comet {

ReplicaHealth::ReplicaHealth(int num_replicas, HealthOptions options)
    : options_(options) {
  COMET_CHECK_GT(num_replicas, 0);
  COMET_CHECK_GT(options_.probe_backoff_us, 0.0)
      << "HealthOptions::probe_backoff_us";
  COMET_CHECK_LE(options_.probe_backoff_us, kMaxBackoffUs)
      << "HealthOptions::probe_backoff_us";
  reps_.resize(static_cast<size_t>(num_replicas));
}

size_t ReplicaHealth::Check(int r) const {
  COMET_CHECK_GE(r, 0) << "replica health";
  COMET_CHECK_LT(static_cast<size_t>(r), reps_.size()) << "replica health";
  return static_cast<size_t>(r);
}

void ReplicaHealth::ForceOpen(int r, double now_us) {
  Rep& rep = reps_[Check(r)];
  double backoff = options_.probe_backoff_us;
  for (int i = 0; i < rep.streak && backoff < kMaxBackoffUs; ++i) {
    backoff *= kBackoffMultiplier;
  }
  backoff = std::min(backoff, kMaxBackoffUs);
  rep.open = true;
  rep.open_until = now_us + backoff;
  rep.probes_in_flight = 0;
  ++rep.streak;
  ++total_opens_;
}

void ReplicaHealth::ObserveSuccess(int r, double now_us) {
  Rep& rep = reps_[Check(r)];
  if (rep.open && HalfOpen(rep, now_us)) {
    // Probe success: close and forgive the streak.
    rep.open = false;
    rep.open_until = 0.0;
    rep.streak = 0;
    rep.probes_in_flight = 0;
  }
}

bool ReplicaHealth::AllowDispatch(int r, double now_us) const {
  const Rep& rep = reps_[Check(r)];
  if (!rep.open) return true;
  if (!HalfOpen(rep, now_us)) return false;
  return rep.probes_in_flight < kHalfOpenProbes;
}

void ReplicaHealth::OnProbeDispatched(int r, double now_us) {
  Rep& rep = reps_[Check(r)];
  if (rep.open && HalfOpen(rep, now_us)) {
    ++rep.probes_in_flight;
    ++total_probes_;
  }
}

BreakerState ReplicaHealth::state(int r, double now_us) const {
  const Rep& rep = reps_[Check(r)];
  if (!rep.open) return BreakerState::kClosed;
  return HalfOpen(rep, now_us) ? BreakerState::kHalfOpen : BreakerState::kOpen;
}

}  // namespace comet
