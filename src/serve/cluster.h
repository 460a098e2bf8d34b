// Cluster-scale serving: N MoeServer replicas behind one global dispatcher,
// on one global simulated clock -- now with a full recovery plane.
//
// Each replica is a full serving plane of its own -- executor, symmetric
// heap, EP group, admission queue, continuous batcher -- constructed from
// the same ServeOptions (same seed => same weights: replicas of one model).
// The cluster advances a single event loop; at every scheduling point it
//  A. fires due FaultPlan events (fail / drain / wedge / corrupt /
//     recover); a kRecover replica is rebuilt from scratch (fresh executor,
//     heap, EP group, COLD profile cache) and re-enters the accepting set
//     after ClusterOptions::recovery_warmup_us;
//  B. retires replica iterations whose simulated end time has been reached
//     (a replica that was failed mid-iteration dies here: the in-flight
//     iteration stands, then its remaining requests are drained). Newly
//     completed requests are observed here; under hedging, the FIRST
//     observed completion of a request wins and every other copy is
//     cancelled wherever it is (queued, live, or completed-unobserved),
//     with its executed tokens charged to wasted_tokens;
//  C. dispatches work: due backoff retries and recovered requests first
//     (admission order preserved), then arrivals with arrival_us <= now,
//     each through the placement policy to exactly one accepting replica
//     (none accepting => counted shed / failed_in_flight /
//     retries_exhausted, never silently dropped); then hedges: a request
//     still queue-waiting after hedge_queue_wait_us gets one speculative
//     second copy on the least-loaded other eligible replica;
//  D. starts one iteration on every alive idle replica with work, in
//     replica-index order;
//  E. advances the clock to the next event (iteration end, arrival, fault,
//     retry due time, warm-up end, breaker probe time, hedge deadline) --
//     or terminates when none remain.
//
// Health-aware placement: a per-replica failure EWMA feeds a circuit
// breaker (serve/health.h). A dead/wedged/corrupted replica force-opens its
// breaker; a flapping one opens on the EWMA threshold. Every placement
// policy consults the breaker through the accepting set it is handed, and
// an open breaker re-admits traffic through bounded half-open probes with
// deterministic exponential backoff.
//
// Determinism: the loop is single-threaded and every step is a pure
// function of (arrivals, options) -- replica numerics are bit-identical at
// any executor thread count, iteration durations are simulated, p2c
// placement and retry jitter draw from their own seeded streams, breaker
// trajectories are RNG-free. Same seed + config + fault plan =>
// bit-identical per-request digests, identical percentiles, identical
// dispatch/fault/retry/hedge interleavings, at COMET_THREADS=1 or 8 -- and
// because request outputs depend only on (request seed, weights), a
// retried or hedged request's digest equals the no-fault run's: faults
// change latency, never bits. A 1-replica cluster drives exactly the hooks
// the single-server Serve loop drives, in the same order: its report
// matches MoeServer::Serve bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/gpu_spec.h"
#include "obs/exporters.h"
#include "obs/telemetry.h"
#include "serve/fault_plan.h"
#include "serve/health.h"
#include "serve/placement.h"
#include "serve/server.h"

namespace comet {

struct ClusterOptions {
  // Per-replica serving config (model, parallel, dtype, budgets, SLO).
  ServeOptions server;
  int replicas = 1;
  PlacementPolicy placement = PlacementPolicy::kRoundRobin;
  // Seed of the dispatcher's own random stream (kPowerOfTwo sampling);
  // independent of the load and weight seeds.
  uint64_t placement_seed = 1;
  FaultPlan faults;
  InFlightPolicy in_flight = InFlightPolicy::kRedispatch;

  // ---- recovery plane ------------------------------------------------------
  // Simulated warm-up a kRecover replica pays before re-entering the
  // accepting set (cold caches, reloaded weights). >= 0.
  double recovery_warmup_us = 0.0;
  // kRetryBackoff: retries allowed per request beyond its first dispatch
  // (>= 0; 0 = a failed in-flight request is immediately retries_exhausted).
  int retry_budget = 2;
  // Backoff before the k-th retry (k = 1, 2, ...):
  //   retry_backoff_us * 2^(k-1) * (1 + 0.5 * U)
  // with U drawn per retry from a dedicated retry stream of fixed seed --
  // seeded jitter on the SIMULATED clock, deterministic at any thread
  // count. retry_backoff_us > 0.
  double retry_backoff_us = 500.0;
  // Hedged dispatch: when > 0, a request that has waited this long without
  // starting execution gets ONE speculative second copy on the least-loaded
  // other eligible replica; first completion wins, the loser is cancelled
  // and its executed tokens counted as wasted_tokens. 0 disables.
  double hedge_queue_wait_us = 0.0;
  // Health-aware placement (circuit breaker; see serve/health.h).
  HealthOptions health;

  // Record a DispatchDecision per dispatch (and per dispatch-level shed)
  // for the property tests.
  bool record_dispatch_log = false;
};

struct ClusterReport {
  // Completed requests from every replica, merged, in request-id order.
  std::vector<RequestRecord> completed;
  int64_t offered = 0;      // arrivals presented to the cluster
  int64_t dispatched = 0;   // handed to some replica (incl. re-dispatches)
  // Requests that never completed, partitioned exactly:
  // offered == completed + shed + failed_in_flight + retries_exhausted.
  int64_t shed = 0;
  int64_t failed_in_flight = 0;
  int64_t retries_exhausted = 0;
  int64_t redispatched = 0;
  // kRetryBackoff re-dispatch attempts actually made (sum of per-request
  // retry counts).
  int64_t retries = 0;
  // Requests that received a speculative second copy / that completed on
  // the hedge copy rather than the primary.
  int64_t hedged = 0;
  int64_t hedge_wins = 0;
  // Tokens executed on copies that lost (hedging losers, and completed
  // work discarded when a replica died mid-request is NOT counted here --
  // that work is retried or lost per InFlightPolicy).
  int64_t wasted_tokens = 0;
  int64_t iterations = 0;
  int64_t batched_tokens = 0;
  int64_t padding_tokens = 0;
  // Adaptation plane, summed over replicas (see ServeReport): hot-expert
  // replicas promoted/retired, and rows served from replica slices.
  int64_t promotions = 0;
  int64_t retirements = 0;
  int64_t replicated_rows = 0;
  int64_t replica_failures = 0;
  int64_t replicas_drained = 0;
  int64_t replicas_recovered = 0;
  // Replica failures whose root cause was a detected transport-integrity
  // violation (checksum mismatch out of the symmetric heap).
  int64_t corruptions_detected = 0;
  // Circuit-breaker transitions: closed->open openings, and half-open
  // probe dispatches.
  int64_t breaker_opens = 0;
  int64_t probes = 0;
  std::vector<int64_t> per_replica_completed;
  std::vector<int64_t> per_replica_iterations;
  double sim_duration_us = 0.0;
  double throughput_tokens_per_s = 0.0;

  LatencySummary queue_wait_us;
  LatencySummary ttft_us;
  LatencySummary itl_us;
  LatencySummary e2e_us;

  // met / (completed + shed + failed_in_flight + retries_exhausted); 1.0
  // when no SLO is configured. Lost and shed requests are violations by
  // definition.
  double slo_attainment = 1.0;
  int64_t slo_violations = 0;

  // FNV-1a over per-request output digests in id order -- same formula as
  // ServeReport, so cluster-vs-single digests are directly comparable.
  uint64_t combined_digest = 0;

  // Populated when ClusterOptions::record_dispatch_log.
  std::vector<DispatchDecision> dispatch_log;
};

class MoeCluster {
 public:
  // `replica_cluster` is the hardware spec of ONE replica's EP group; every
  // replica gets a copy (a homogeneous fleet).
  MoeCluster(ClusterOptions options, ClusterSpec replica_cluster);
  ~MoeCluster();

  // Runs the fleet over `arrivals` (sorted by arrival_us) to completion.
  // Reusable: each call is an independent run.
  ClusterReport Run(const std::vector<RequestSpec>& arrivals);
  ClusterReport Run(LoadGenerator& loadgen);

  const ClusterOptions& options() const { return options_; }
  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  const MoeServer& replica(int r) const { return *replicas_.at(r); }

  // Telemetry views over the whole fleet, cluster-level source first, then
  // one per replica slot (archived spans from replaced incarnations
  // included). Valid after Run; the Export methods render them (see
  // obs/exporters.h for the formats).
  std::vector<obs::ReplicaTelemetry> TelemetryViews() const;
  std::string ExportChromeTrace() const;
  std::string ExportPrometheusText() const;
  std::string ExportTelemetryJsonl() const;

 private:
  ClusterOptions options_;
  // Kept so kRecover can rebuild a replica from scratch mid-run.
  ClusterSpec replica_cluster_;
  std::vector<std::unique_ptr<MoeServer>> replicas_;
  // Cluster-level telemetry: the dispatcher's own registry + event ring
  // (fault/dispatch/retry/hedge/breaker instants, each record carrying its
  // replica for trace attribution), plus per-slot span archives carried
  // over from kRecover-replaced incarnations.
  obs::MetricsRegistry cluster_registry_;
  obs::ClusterMetrics cluster_metrics_;
  obs::SpanRing cluster_events_;
  std::vector<std::vector<obs::SpanRecord>> archived_spans_;
};

}  // namespace comet
