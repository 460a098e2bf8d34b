#include "obs/telemetry.h"

namespace comet::obs {

ServerMetrics ServerMetrics::Register(MetricsRegistry& r) {
  ServerMetrics m;
  m.iterations = r.RegisterCounter("comet_serve_iterations_total",
                                   "Serving iterations executed");
  m.batched_tokens = r.RegisterCounter(
      "comet_serve_batched_tokens_total",
      "Tokens actually batched (excludes EP padding)");
  m.padding_tokens = r.RegisterCounter("comet_serve_padding_tokens_total",
                                       "EP padding rows added to batches");
  m.requests_offered = r.RegisterCounter(
      "comet_serve_requests_offered_total",
      "Requests offered to the admission queue");
  m.requests_shed = r.RegisterCounter("comet_serve_requests_shed_total",
                                      "Requests shed by admission control");
  m.requests_completed = r.RegisterCounter(
      "comet_serve_requests_completed_total", "Requests retired complete");
  m.queue_depth = r.RegisterGauge("comet_serve_queue_depth",
                                  "Admission queue depth (requests)");
  m.queue_tokens = r.RegisterGauge("comet_serve_queue_tokens",
                                   "Admission queue depth (tokens)");
  m.batcher_live = r.RegisterGauge("comet_serve_batcher_live_requests",
                                   "Requests live in the continuous batcher");
  m.batch_fill = r.RegisterGauge(
      "comet_serve_batch_fill_fraction",
      "Packed tokens / token budget of the last iteration");
  m.batch_tokens_hist = r.RegisterHistogram(
      "comet_serve_batch_tokens", "Tokens packed per iteration");
  m.iteration_us = r.RegisterHistogram(
      "comet_serve_iteration_us", "Iteration duration, simulated us");
  m.queue_wait_us = r.RegisterHistogram(
      "comet_serve_queue_wait_us", "Queue wait at retirement, simulated us");
  m.ttft_us = r.RegisterHistogram("comet_serve_ttft_us",
                                  "Time to first token, simulated us");
  m.itl_us = r.RegisterHistogram("comet_serve_itl_us",
                                 "Inter-token latency, simulated us");
  m.e2e_us = r.RegisterHistogram("comet_serve_e2e_us",
                                 "End-to-end latency, simulated us");
  m.profile_hits = r.RegisterCounter(
      "comet_executor_profile_memo_hits_total",
      "Division-point profile memo hits (batch shape already tuned)");
  m.profile_misses = r.RegisterCounter(
      "comet_executor_profile_memo_misses_total",
      "Division-point profile memo misses (candidate sweep ran)");
  m.heap_traffic_bytes = r.RegisterCounter(
      "comet_heap_traffic_bytes_total", "Symmetric-heap bytes transferred");
  m.heap_rows_verified = r.RegisterCounter(
      "comet_heap_rows_verified_total",
      "Symmetric-heap rows checksum-verified on consumption");
  m.heap_rows_corrupted = r.RegisterCounter(
      "comet_heap_rows_corrupted_total",
      "Symmetric-heap rows with detected checksum mismatches");
  m.promotions = r.RegisterCounter("comet_adapt_promotions_total",
                                   "Hot-expert replicas promoted");
  m.retirements = r.RegisterCounter("comet_adapt_retirements_total",
                                    "Hot-expert replicas retired");
  m.replicated_rows = r.RegisterCounter(
      "comet_adapt_replicated_rows_total",
      "(token, expert) rows served from replica slices");
  m.active_replicas = r.RegisterGauge("comet_adapt_active_replicas",
                                      "Replica slots currently active");
  return m;
}

ClusterMetrics ClusterMetrics::Register(MetricsRegistry& r) {
  ClusterMetrics m;
  m.dispatches = r.RegisterCounter("comet_cluster_dispatches_total",
                                   "Requests handed to a replica");
  m.redispatches = r.RegisterCounter(
      "comet_cluster_redispatches_total",
      "Re-dispatches of requests recovered from dead replicas");
  m.retries = r.RegisterCounter("comet_cluster_retries_total",
                                "Backoff retry attempts made");
  m.hedges = r.RegisterCounter("comet_cluster_hedges_total",
                               "Speculative hedge copies placed");
  m.hedge_wins = r.RegisterCounter(
      "comet_cluster_hedge_wins_total",
      "Requests completed by the hedge copy rather than the primary");
  m.sheds = r.RegisterCounter("comet_cluster_sheds_total",
                              "Requests shed at the cluster dispatch level");
  m.wasted_tokens = r.RegisterCounter(
      "comet_cluster_wasted_tokens_total",
      "Tokens executed on cancelled losing copies");
  m.faults_injected = r.RegisterCounter("comet_cluster_faults_injected_total",
                                        "Fault-plan events fired");
  m.replica_failures = r.RegisterCounter("comet_cluster_replica_failures_total",
                                         "Replica deaths observed");
  m.replicas_recovered = r.RegisterCounter(
      "comet_cluster_replicas_recovered_total", "Replicas rebuilt (kRecover)");
  m.breaker_opens = r.RegisterCounter("comet_cluster_breaker_opens_total",
                                      "Circuit-breaker closed->open openings");
  m.breaker_probes = r.RegisterCounter(
      "comet_cluster_breaker_probes_total", "Half-open probe dispatches");
  return m;
}

Telemetry::Telemetry(const TelemetryOptions& options)
    : options_(options), metrics_(ServerMetrics::Register(registry_)) {}

void Telemetry::BeginRun() {
  registry_.ResetValues();
  if (options_.enabled && spans_.capacity() != kSpanCapacity) {
    spans_.Reserve(kSpanCapacity);
  } else {
    spans_.Clear();
  }
}

}  // namespace comet::obs
