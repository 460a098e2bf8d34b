#include "serve/cluster.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace comet {

MoeCluster::MoeCluster(ClusterOptions options, ClusterSpec replica_cluster)
    : options_(std::move(options)),
      replica_cluster_(replica_cluster),
      cluster_metrics_(obs::ClusterMetrics::Register(cluster_registry_)) {
  COMET_CHECK_GT(options_.replicas, 0);
  COMET_CHECK_LE(options_.replicas, 64) << "DispatchDecision::accepting_mask";
  COMET_CHECK_GE(options_.recovery_warmup_us, 0.0)
      << "ClusterOptions::recovery_warmup_us";
  COMET_CHECK_GE(options_.retry_budget, 0) << "ClusterOptions::retry_budget";
  COMET_CHECK_GT(options_.retry_backoff_us, 0.0)
      << "ClusterOptions::retry_backoff_us";
  COMET_CHECK_GE(options_.hedge_queue_wait_us, 0.0)
      << "ClusterOptions::hedge_queue_wait_us";
  ValidateFaultPlan(options_.faults, options_.replicas);
  // Validates HealthOptions at construction rather than first at Run.
  ReplicaHealth probe(options_.replicas, options_.health);
  (void)probe;
  replicas_.reserve(static_cast<size_t>(options_.replicas));
  for (int r = 0; r < options_.replicas; ++r) {
    replicas_.push_back(
        std::make_unique<MoeServer>(options_.server, replica_cluster_));
  }
  archived_spans_.resize(static_cast<size_t>(options_.replicas));
}

MoeCluster::~MoeCluster() = default;

namespace {

// Every arrival gets exactly one Track; at loop exit each is terminal --
// done (completed somewhere, exactly once) or lost (counted in exactly
// one of shed / failed_in_flight / retries_exhausted). That partition IS
// the conservation law the chaos suite asserts.
struct Track {
  RequestSpec spec;
  int attempts = 0;             // dispatch attempts (first + retries)
  bool hedged = false;          // one-shot hedge consumed
  int hedge_replica = -1;       // where the hedge copy went
  double dispatched_us = -1.0;  // last successful primary admission
  std::vector<int> copies;      // replicas currently holding a copy
  // Replica whose copy had also completed when another copy won: its
  // record stays there, and harvest skips it.
  int completed_loser = -1;
  bool done = false;
  bool lost = false;
};

// One replica slot. `completed`, `iterations` and `breaker_seen` span every
// incarnation of the slot; the rest describe the live one.
struct Slot {
  bool alive = true;
  bool accepting = true;
  bool busy = false;
  bool fail_pending = false;  // kFail landed mid-iteration: die at its end
  bool wedge_armed = false;
  bool warming = false;
  double busy_until = 0.0;
  double warm_until = 0.0;
  // Harvest cursors: records of the incarnation's View() observed so far,
  // and the itl samples those records contributed.
  size_t harvested = 0;
  size_t itls_harvested = 0;
  int64_t completed = 0;   // winning completions harvested here
  int64_t iterations = 0;  // iterations of replaced incarnations
  BreakerState breaker_seen = BreakerState::kClosed;  // last traced state
};

// kRetryBackoff jitter: the k-th retry waits
// retry_backoff_us * 2^(k-1) * (1 + kRetryJitterFrac * U), U drawn per retry
// from the run's own retry stream seeded with kRetrySeed.
constexpr double kRetryJitterFrac = 0.5;
constexpr uint64_t kRetrySeed = 11;

// Trace kinds of fault instants, indexed by FaultKind (kRecover records a
// kReplicaRecover of its own), and of breaker transitions, indexed by
// BreakerState.
constexpr obs::SpanKind kFaultSpan[] = {
    obs::SpanKind::kFaultFail, obs::SpanKind::kFaultDrain,
    obs::SpanKind::kFaultWedge, obs::SpanKind::kFaultCorrupt};
constexpr obs::SpanKind kBreakerSpan[] = {obs::SpanKind::kBreakerClosed,
                                          obs::SpanKind::kBreakerOpen,
                                          obs::SpanKind::kBreakerHalfOpen};

// The state of one MoeCluster::Run. Loop() runs the phases of one pass --
// FireFaults, RetireIterations, Dispatch, StepReplicas,
// RecordBreakerTransitions -- then jumps the clock to NextEventTime();
// Finish() checks conservation and assembles the report. The run is the
// only owner of its accounting: Harvest records each winning completion
// (record, latency samples, per-slot count) exactly once.
class ClusterRun {
 public:
  ClusterRun(
      const ClusterOptions& options, const ClusterSpec& replica_cluster,
      std::vector<std::unique_ptr<MoeServer>>& replicas, obs::SpanRing& events,
      std::vector<std::vector<obs::SpanRecord>>& archived_spans,
      const std::vector<RequestSpec>& arrivals)
      : options_(options),
        replica_cluster_(replica_cluster),
        replicas_(replicas),
        events_(events),
        archived_spans_(archived_spans),
        arrivals_(arrivals),
        num_replicas_(static_cast<int>(replicas.size())),
        tel_(options.server.telemetry.enabled),
        dispatcher_(options.placement, num_replicas_, options.placement_seed),
        health_(num_replicas_, options.health),
        retry_rng_(kRetrySeed),
        slots_(replicas.size()),
        loads_(replicas.size()),
        eligible_(replicas.size()) {
    for (size_t i = 1; i < arrivals.size(); ++i) {
      COMET_CHECK_GE(arrivals[i].arrival_us, arrivals[i - 1].arrival_us)
          << "arrivals must be sorted by arrival_us";
    }
    report_.offered = static_cast<int64_t>(arrivals.size());
  }

  void Loop() {
    while (true) {
      FireFaults();
      RetireIterations();
      Dispatch();
      StepReplicas();
      RecordBreakerTransitions();
      if (!backlog_.empty()) {
        // A replica died after this pass's dispatch phase: loop again at the
        // same time so Dispatch re-dispatches (or accounts) the recovered
        // requests. Dispatch always empties the backlog, so this cannot spin.
        continue;
      }
      const double next = NextEventTime();
      if (next == std::numeric_limits<double>::infinity()) {
        return;
      }
      now_ = std::max(now_, next);
    }
  }

  ClusterReport Finish(const obs::ClusterMetrics& metrics) {
    // Conservation: every tracked request ended exactly one way.
    for (const auto& [id, t] : track_) {
      COMET_CHECK(t.done != t.lost)
          << "request " << id << " ended " << (t.done ? "both" : "neither")
          << " completed and lost";
    }
    COMET_CHECK(pending_.empty() && backlog_.empty());
    for (int r = 0; r < num_replicas_; ++r) {
      FoldCounters(r);
      report_.per_replica_completed.push_back(slot(r).completed);
      report_.per_replica_iterations.push_back(slot(r).iterations);
    }
    report_.sim_duration_us = now_;
    if (now_ > 0.0) {
      report_.throughput_tokens_per_s =
          static_cast<double>(report_.batched_tokens) / (now_ / 1e6);
    }
    report_.breaker_opens = health_.total_opens();
    report_.probes = health_.total_probes();
    const int64_t lost =
        report_.shed + report_.failed_in_flight + report_.retries_exhausted;
    COMET_CHECK_EQ(report_.offered,
                   static_cast<int64_t>(report_.completed.size()) + lost)
        << "cluster accounting is not conservative";
    if (tel_) {
      PublishMetrics(metrics);
    }
    FinishReport(samples_, options_.server.slo, lost, &report_);
    return std::move(report_);
  }

 private:
  MoeServer& replica(int r) { return *replicas_[static_cast<size_t>(r)]; }
  Slot& slot(int r) { return slots_[static_cast<size_t>(r)]; }
  // Cluster trace instant at `now_` (telemetry on only).
  void Event(obs::SpanKind kind, int64_t id, double value, int replica = -1) {
    if (tel_) {
      events_.Record(kind, now_, now_, static_cast<uint64_t>(id), value,
                     replica);
    }
  }

  // A. Fires due faults. kFail on a busy replica defers death to the end of
  // the in-flight iteration (RetireIterations) but stops dispatches
  // immediately. Then recovered replicas whose warm-up has elapsed re-enter
  // the accepting set (their breaker may still gate them through half-open
  // probes).
  void FireFaults() {
    const std::vector<FaultEvent>& faults = options_.faults.events;
    while (next_fault_ < faults.size() && faults[next_fault_].time_us <= now_) {
      const FaultEvent& ev = faults[next_fault_++];
      const int r = ev.replica;
      Slot& s = slot(r);
      if (ev.kind == FaultKind::kRecover) {
        if (!s.alive) {
          Recover(r);
        }  // else it never actually went down; the recovery is moot
        continue;
      }
      if (!s.alive) {
        continue;  // already dead; the fault is moot
      }
      Event(kFaultSpan[static_cast<int>(ev.kind)], r, 0.0, r);
      switch (ev.kind) {
        case FaultKind::kFail:
          s.accepting = false;
          s.warming = false;
          if (s.busy) {
            s.fail_pending = true;
          } else {
            Die(r, /*corrupted=*/false);
          }
          break;
        case FaultKind::kDrain:
          if (s.accepting) {
            s.accepting = false;
            ++report_.replicas_drained;
            dispatcher_.ForgetReplica(r);
          }
          break;
        case FaultKind::kWedge:
          s.wedge_armed = true;
          break;
        case FaultKind::kCorrupt:
          replica(r).CorruptNextIteration();
          break;
        case FaultKind::kRecover:
          break;  // handled above
      }
    }
    for (Slot& warm : slots_) {
      if (warm.warming && warm.warm_until <= now_) {
        warm.warming = false;
        warm.accepting = true;
      }
    }
  }

  // kRecover rebuilds a DEAD replica from scratch: fresh executor, heap, EP
  // group, cold profile memo; it starts accepting only after the configured
  // warm-up. Harvest already accounted every completion of the dead
  // incarnation, so only its per-incarnation counters carry over.
  void Recover(int r) {
    FoldCounters(r);
    auto fresh = std::make_unique<MoeServer>(options_.server, replica_cluster_);
    fresh->BeginRun();
    if (tel_) {
      // The dead incarnation's telemetry outlives it: spans move to the slot
      // archive, counter/histogram totals merge into the fresh registry
      // (gauges start from the fresh incarnation's truth).
      const obs::Telemetry& dead = replica(r).telemetry();
      dead.spans().AppendTo(&archived_spans_[static_cast<size_t>(r)]);
      fresh->telemetry().registry().MergeFrom(dead.registry());
      Event(obs::SpanKind::kReplicaRecover, r, 0.0, r);
    }
    replicas_[static_cast<size_t>(r)] = std::move(fresh);
    Slot& s = slot(r);
    s.harvested = 0;
    s.itls_harvested = 0;
    s.busy = false;
    s.fail_pending = false;
    s.wedge_armed = false;
    s.alive = true;
    s.warming = true;
    s.warm_until = now_ + options_.recovery_warmup_us;
    ++report_.replicas_recovered;
  }

  // B. Retires iterations whose simulated end has been reached: harvests
  // their completions, then executes any deferred death -- the in-flight
  // iteration stands.
  void RetireIterations() {
    for (int r = 0; r < num_replicas_; ++r) {
      Slot& s = slot(r);
      if (!s.busy || s.busy_until > now_) {
        continue;
      }
      s.busy = false;
      Harvest(r);
      if (s.fail_pending) {
        s.fail_pending = false;
        Die(r, /*corrupted=*/false);
      }
    }
  }

  // Observes replica r's newly completed requests. The FIRST observed
  // completion of a request wins (observation order is deterministic:
  // retirement order within a replica, replica index order across them) and
  // is accounted here, once: its record, its latency samples, the slot's
  // completion count. Every other copy is cancelled wherever it is and its
  // executed tokens become wasted_tokens.
  void Harvest(int r) {
    const RunView view = replica(r).View();
    Slot& s = slot(r);
    while (s.harvested < view.completed.size()) {
      const RequestRecord& rec = view.completed[s.harvested];
      const std::span<const double> itls = view.itls.subspan(
          s.itls_harvested,
          static_cast<size_t>(view.itl_counts[s.harvested]));
      ++s.harvested;
      s.itls_harvested += itls.size();
      Track& t = track_.at(rec.id);
      if (t.completed_loser == r) {
        t.completed_loser = -1;
        continue;  // this copy lost to one harvested earlier
      }
      COMET_CHECK(!t.done) << "request " << rec.id << " completed twice";
      COMET_CHECK(!t.lost) << "request " << rec.id << " completed after loss";
      t.done = true;
      if (t.hedge_replica == r) {
        ++report_.hedge_wins;
        Event(obs::SpanKind::kHedgeWin, rec.id, 0.0, r);
      }
      for (const int other : t.copies) {
        if (other == r) {
          continue;
        }
        const MoeServer::CancelResult cancel =
            replica(other).CancelRequest(rec.id);
        if (cancel.found) {
          report_.wasted_tokens += cancel.executed_tokens;
        }
        if (cancel.was_completed) {
          t.completed_loser = other;
        }
      }
      t.copies.assign(1, r);
      health_.ObserveSuccess(r, now_);
      RequestRecord& won = report_.completed.emplace_back(rec);
      // Recovery-plane annotations (not digested: retries and hedges change
      // latency, never bits). The track is terminal, so both are final.
      won.retries = t.attempts > 0 ? t.attempts - 1 : 0;
      won.hedged = t.hedged;
      samples_.queue_waits.push_back(rec.queue_wait_us);
      samples_.ttfts.push_back(rec.ttft_us);
      samples_.itls.insert(samples_.itls.end(), itls.begin(), itls.end());
      samples_.e2es.push_back(rec.e2e_us);
      ++s.completed;
    }
  }

  // C. Dispatches, oldest obligations first: due backoff retries, then
  // kRedispatch recoveries, then arrivals up to now, then hedges.
  void Dispatch() {
    while (!pending_.empty() && std::get<0>(*pending_.begin()) <= now_) {
      const int64_t id = std::get<2>(*pending_.begin());
      pending_.erase(pending_.begin());
      Track& t = track_.at(id);
      COMET_CHECK(!t.done && !t.lost);
      ++t.attempts;
      ++report_.retries;
      Event(obs::SpanKind::kRetry, id, static_cast<double>(t.attempts - 1));
      DispatchPrimary(t, /*redispatch=*/true, /*retry=*/true);
    }
    while (!backlog_.empty()) {
      Track& t = track_.at(backlog_.front());
      backlog_.pop_front();
      ++t.attempts;
      DispatchPrimary(t, /*redispatch=*/true, /*retry=*/false);
    }
    while (next_arrival_ < arrivals_.size() &&
           arrivals_[next_arrival_].arrival_us <= now_) {
      Arrive(arrivals_[next_arrival_++]);
    }
    if (options_.hedge_queue_wait_us > 0.0) {
      DispatchHedges();
    }
  }

  void Arrive(const RequestSpec& spec) {
    Track& t = track_[spec.id];
    t.spec = spec;
    t.attempts = 1;
    DispatchPrimary(t, /*redispatch=*/false, /*retry=*/false);
  }

  // One PRIMARY copy through the placement policy (arrival, kRedispatch
  // recovery, or backoff retry). A miss or queue refusal is terminal for
  // arrivals/redispatches (shed / failed_in_flight) but consumes-and-
  // reschedules for backoff retries, so a retried request keeps retrying
  // until it lands or its budget runs out. Every admission arms a hedge
  // deadline when hedging is on.
  void DispatchPrimary(Track& t, bool redispatch, bool retry) {
    DispatchDecision decision;
    RefreshPlacementView();
    const int pick = dispatcher_.Pick(t.spec, loads_, eligible_, &decision);
    decision.time_us = now_;
    decision.redispatch = redispatch;
    decision.retry = retry;
    bool admitted = false;
    if (pick >= 0) {
      ++report_.dispatched;
      if (redispatch) {
        ++report_.redispatched;
      }
      const bool probe = health_.state(pick, now_) == BreakerState::kHalfOpen;
      admitted = OfferTo(pick, t);
      if (admitted) {
        t.dispatched_us = now_;
        if (options_.hedge_queue_wait_us > 0.0) {
          hedge_due_.emplace(t.dispatched_us + options_.hedge_queue_wait_us,
                             t.spec.id);
        }
        if (probe) {
          health_.OnProbeDispatched(pick, now_);
          decision.probe = true;
        }
        Event(
            redispatch ? obs::SpanKind::kRedispatch : obs::SpanKind::kDispatch,
            t.spec.id, static_cast<double>(t.attempts), pick);
      }
    }
    if (!admitted) {
      if (retry) {
        ScheduleRetry(t);
      } else if (pick < 0 && redispatch) {
        ++report_.failed_in_flight;
        t.lost = true;
      } else {
        ++report_.shed;
        t.lost = true;
      }
    }
    if (options_.record_dispatch_log) {
      report_.dispatch_log.push_back(decision);
    }
  }

  // Offers one copy of `t` to replica `pick`'s admission queue.
  bool OfferTo(int pick, Track& t) {
    if (!replica(pick).Offer(t.spec)) {
      return false;
    }
    t.copies.push_back(pick);
    return true;
  }

  // Schedules the next backoff retry for a track whose last copy failed, or
  // exhausts its budget. Deterministic: the jitter draw comes from the
  // dedicated retry stream, consumed in the (deterministic) event order.
  void ScheduleRetry(Track& t) {
    if (t.attempts - 1 >= options_.retry_budget) {
      ++report_.retries_exhausted;
      t.lost = true;
      return;
    }
    const double jitter = 1.0 + kRetryJitterFrac * retry_rng_.NextDouble();
    const double delay = options_.retry_backoff_us *
                         std::pow(2.0, static_cast<double>(t.attempts - 1)) *
                         jitter;
    pending_.emplace(now_ + delay, pending_seq_++, t.spec.id);
  }

  // An entry is stale once its request no longer waits on a hedge -- done,
  // lost, already hedged, or holding other than exactly one copy -- or was
  // re-admitted since (a newer dispatched_us). The deadline MUST be compared
  // as dispatched_us + wait -- the expression it was armed with, and the
  // one NextEventTime lands the clock on -- never as a now - dispatched_us
  // difference: the two can disagree by one ulp, and a deadline the clock
  // can land on but never satisfy livelocks the loop.
  bool HedgeStale(double deadline, int64_t id) const {
    const Track& t = track_.at(id);
    return t.done || t.lost || t.hedged || t.copies.size() != 1 ||
           t.dispatched_us + options_.hedge_queue_wait_us != deadline;
  }

  // Hedging: a request still queue-waiting hedge_queue_wait_us after its
  // admission gets ONE speculative copy on the least-loaded other eligible
  // replica (chosen directly, NOT through the dispatcher, so hedging never
  // perturbs the rr cursor / p2c stream and placement decisions are
  // identical with hedging on or off). Due requests hedge in ascending id.
  void DispatchHedges() {
    hedges_now_.clear();
    while (!hedge_due_.empty() && hedge_due_.begin()->first <= now_) {
      const auto [deadline, id] = *hedge_due_.begin();
      hedge_due_.erase(hedge_due_.begin());
      if (!HedgeStale(deadline, id)) {
        hedges_now_.push_back(id);
      }
    }
    std::sort(hedges_now_.begin(), hedges_now_.end());
    for (const int64_t id : hedges_now_) {
      Hedge(track_.at(id));
    }
  }

  // One-shot: the deadline consumes the hedge whether or not a copy could be
  // placed.
  void Hedge(Track& t) {
    t.hedged = true;
    const int primary = t.copies[0];
    if (replica(primary).RequestStarted(t.spec.id)) {
      return;  // already executing: a second copy buys nothing
    }
    RefreshPlacementView();
    int pick = -1;
    for (int r = 0; r < num_replicas_; ++r) {
      const size_t i = static_cast<size_t>(r);
      if (r == primary || !eligible_[i]) {
        continue;
      }
      if (pick < 0 || loads_[i] < loads_[static_cast<size_t>(pick)]) {
        pick = r;
      }
    }
    if (pick < 0 || !OfferTo(pick, t)) {
      return;  // nowhere to hedge to
    }
    t.hedge_replica = pick;
    ++report_.hedged;
    ++report_.dispatched;
    Event(obs::SpanKind::kHedge, t.spec.id, 0.0, pick);
    if (options_.record_dispatch_log) {
      DispatchDecision d;
      d.request_id = t.spec.id;
      d.session = t.spec.session;
      d.time_us = now_;
      d.replica = pick;
      d.hedge = true;
      for (int r = 0; r < num_replicas_; ++r) {
        if (eligible_[static_cast<size_t>(r)]) {
          d.accepting_mask |= uint64_t{1} << r;
        }
      }
      report_.dispatch_log.push_back(d);
    }
  }

  // D. Starts one iteration on every alive idle replica with work, in
  // replica-index order (drained replicas keep stepping until empty; a
  // wedge-armed replica is stepped so the wedge can fire).
  void StepReplicas() {
    for (int r = 0; r < num_replicas_; ++r) {
      Slot& s = slot(r);
      if (!s.alive || s.busy) {
        continue;
      }
      MoeServer& server = replica(r);
      if (!server.HasWork() && !s.wedge_armed) {
        continue;
      }
      if (s.wedge_armed) {
        server.WedgeNextIteration();
      }
      try {
        double end = 0.0;
        if (server.StepIteration(now_, &end)) {
          s.busy = true;
          s.busy_until = end;
        }
      } catch (const CheckError& e) {
        // The wedged / corrupted (or internally failed) iteration fail-fasted:
        // the replica is dead, not hung, and a transport-integrity CheckError
        // means an injected bit-flip was DETECTED before anything consumed it.
        const bool corrupted = std::string(e.what()).find(
                                   "transport integrity") != std::string::npos;
        s.wedge_armed = false;
        s.fail_pending = false;
        Die(r, corrupted);
      }
    }
  }

  // Replica death: account it, open its breaker, drain its in-flight copies.
  // A drained request that still has a copy elsewhere (hedge) just loses this
  // one; losing the LAST copy goes through the InFlightPolicy.
  void Die(int r, bool corrupted) {
    Slot& s = slot(r);
    s.alive = false;
    s.accepting = false;
    s.warming = false;
    ++report_.replica_failures;
    Event(obs::SpanKind::kReplicaDeath, r, corrupted ? 1.0 : 0.0, r);
    if (corrupted) {
      ++report_.corruptions_detected;
    }
    dispatcher_.ForgetReplica(r);
    health_.ForceOpen(r, now_);
    for (const RequestSpec& spec : replica(r).DrainInFlight()) {
      Track& t = track_.at(spec.id);
      COMET_CHECK(!t.done && !t.lost);
      std::erase(t.copies, r);
      if (!t.copies.empty()) {
        continue;  // the hedge (or primary) copy lives on elsewhere
      }
      switch (options_.in_flight) {
        case InFlightPolicy::kRedispatch:
          backlog_.push_back(spec.id);
          break;
        case InFlightPolicy::kCountAsViolation:
          ++report_.failed_in_flight;
          t.lost = true;
          break;
        case InFlightPolicy::kRetryBackoff:
          ScheduleRetry(t);
          break;
      }
    }
  }

  // Breaker transitions as trace instants: poll each replica's breaker state
  // once per loop pass and record changes. Polling never mutates the breaker
  // (state() is a pure read at `now`), so telemetry cannot perturb the
  // trajectory.
  void RecordBreakerTransitions() {
    if (!tel_) {
      return;
    }
    for (int r = 0; r < num_replicas_; ++r) {
      const BreakerState state = health_.state(r, now_);
      if (state != slot(r).breaker_seen) {
        slot(r).breaker_seen = state;
        Event(kBreakerSpan[static_cast<int>(state)], r, 0.0, r);
      }
    }
  }

  // E. The next event time: iteration end, warm-up end, arrival, fault, retry
  // due time or hedge deadline; infinity when none remain.
  double NextEventTime() {
    double next = std::numeric_limits<double>::infinity();
    for (const Slot& s : slots_) {
      if (s.busy) {
        next = std::min(next, s.busy_until);
      }
      if (s.warming) {
        next = std::min(next, s.warm_until);
      }
    }
    if (next_arrival_ < arrivals_.size()) {
      next = std::min(next, arrivals_[next_arrival_].arrival_us);
    }
    if (next_fault_ < options_.faults.events.size()) {
      next = std::min(next, options_.faults.events[next_fault_].time_us);
    }
    if (!pending_.empty()) {
      next = std::min(next, std::get<0>(*pending_.begin()));
    }
    while (!hedge_due_.empty() &&
           HedgeStale(hedge_due_.begin()->first, hedge_due_.begin()->second)) {
      hedge_due_.erase(hedge_due_.begin());
    }
    if (!hedge_due_.empty()) {
      next = std::min(next, hedge_due_.begin()->first);
    }
    return next;
  }

  void RefreshPlacementView() {
    for (int r = 0; r < num_replicas_; ++r) {
      const size_t i = static_cast<size_t>(r);
      loads_[i] = replica(r).LoadTokens();
      eligible_[i] = slot(r).accepting && health_.AllowDispatch(r, now_);
    }
  }

  // Adds the per-incarnation counters of replica r's current server to the
  // report and the slot (at a kRecover rebuild, and once more at Finish).
  void FoldCounters(int r) {
    const RunView view = replica(r).View();
    COMET_CHECK_EQ(slot(r).harvested, view.completed.size())
        << "replica " << r << " has unharvested completions";
    report_.iterations += view.iterations;
    report_.batched_tokens += view.batched_tokens;
    report_.padding_tokens += view.padding_tokens;
    report_.promotions += view.promotions;
    report_.retirements += view.retirements;
    report_.replicated_rows += view.replicated_rows;
    slot(r).iterations += view.iterations;
  }

  // Dispatcher metrics, set once from the report's (already-exact) totals: the
  // dispatcher is single-threaded, so there is nothing to sample mid-run that
  // the final values would not capture.
  void PublishMetrics(const obs::ClusterMetrics& metrics) const {
    const auto set = [](obs::Counter* c, int64_t v) {
      c->Reset();
      c->Add(static_cast<uint64_t>(v));
    };
    set(metrics.dispatches, report_.dispatched);
    set(metrics.redispatches, report_.redispatched);
    set(metrics.retries, report_.retries);
    set(metrics.hedges, report_.hedged);
    set(metrics.hedge_wins, report_.hedge_wins);
    set(metrics.sheds, report_.shed);
    set(metrics.wasted_tokens, report_.wasted_tokens);
    set(metrics.faults_injected, static_cast<int64_t>(next_fault_));
    set(metrics.replica_failures, report_.replica_failures);
    set(metrics.replicas_recovered, report_.replicas_recovered);
    set(metrics.breaker_opens, report_.breaker_opens);
    set(metrics.breaker_probes, report_.probes);
  }

  const ClusterOptions& options_;
  const ClusterSpec& replica_cluster_;
  std::vector<std::unique_ptr<MoeServer>>& replicas_;
  obs::SpanRing& events_;
  std::vector<std::vector<obs::SpanRecord>>& archived_spans_;
  const std::vector<RequestSpec>& arrivals_;
  const int num_replicas_;
  const bool tel_;

  Dispatcher dispatcher_;
  ReplicaHealth health_;
  Rng retry_rng_;
  std::vector<Slot> slots_;
  // What every placement decision sees, refreshed in place per decision:
  // each replica's load, and whether it is accepting AND allowed by its
  // circuit breaker.
  std::vector<int64_t> loads_;
  std::vector<bool> eligible_;

  std::map<int64_t, Track> track_;
  // Due-time-ordered backoff retries; seq breaks ties deterministically.
  std::set<std::tuple<double, int64_t, int64_t>> pending_;  // (ready, seq, id)
  int64_t pending_seq_ = 0;
  std::deque<int64_t> backlog_;  // kRedispatch: re-dispatch now, in order
  // Hedge deadlines, one per primary admission while hedging is on. Stale
  // entries (see HedgeStale) are dropped lazily.
  std::set<std::pair<double, int64_t>> hedge_due_;  // (deadline, id)
  std::vector<int64_t> hedges_now_;                 // DispatchHedges scratch

  ClusterReport report_;
  LatencySamples samples_;
  double now_ = 0.0;
  size_t next_arrival_ = 0;
  size_t next_fault_ = 0;
};

}  // namespace

ClusterReport MoeCluster::Run(const std::vector<RequestSpec>& arrivals) {
  for (auto& server : replicas_) {
    server->BeginRun();
  }
  cluster_registry_.ResetValues();
  if (options_.server.telemetry.enabled &&
      cluster_events_.capacity() != obs::kSpanCapacity) {
    cluster_events_.Reserve(obs::kSpanCapacity);
  } else {
    cluster_events_.Clear();
  }
  for (auto& archive : archived_spans_) {
    archive.clear();
  }
  ClusterRun run(options_, replica_cluster_, replicas_, cluster_events_,
                 archived_spans_, arrivals);
  run.Loop();
  return run.Finish(cluster_metrics_);
}

ClusterReport MoeCluster::Run(LoadGenerator& loadgen) {
  const std::vector<RequestSpec> arrivals = loadgen.GenerateAll();
  return Run(arrivals);
}

std::vector<obs::ReplicaTelemetry> MoeCluster::TelemetryViews() const {
  std::vector<obs::ReplicaTelemetry> views;
  views.reserve(replicas_.size() + 1);
  obs::ReplicaTelemetry cluster_view;
  cluster_view.name = "cluster";
  cluster_view.replica = -1;
  cluster_view.live = &cluster_events_;
  cluster_view.registry = &cluster_registry_;
  views.push_back(cluster_view);
  for (int r = 0; r < num_replicas(); ++r) {
    obs::ReplicaTelemetry view = replicas_[static_cast<size_t>(r)]->TelemetryView();
    view.name = "replica " + std::to_string(r);
    view.replica = r;
    view.archived = &archived_spans_[static_cast<size_t>(r)];
    views.push_back(view);
  }
  return views;
}

std::string MoeCluster::ExportChromeTrace() const {
  const std::vector<obs::ReplicaTelemetry> views = TelemetryViews();
  return obs::ToChromeTraceJson(views);
}

std::string MoeCluster::ExportPrometheusText() const {
  const std::vector<obs::ReplicaTelemetry> views = TelemetryViews();
  return obs::ToPrometheusText(views);
}

std::string MoeCluster::ExportTelemetryJsonl() const {
  const std::vector<obs::ReplicaTelemetry> views = TelemetryViews();
  return obs::ToJsonl(views);
}

}  // namespace comet
