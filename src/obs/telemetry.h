// The per-replica telemetry bundle the serving plane owns: one metrics
// registry plus one span ring, with the registered handle set for each
// instrument point (docs/ARCHITECTURE.md, "The telemetry plane").
//
// Registration happens at construction (allocates, once); BeginRun resets
// values and reserves the span ring; everything the serving loop touches per
// iteration afterwards is allocation-free. Telemetry is OFF by default and,
// on or off, never changes a served bit: instrumentation only READS the
// serving state -- no RNG draws, no clock reads, no control-flow influence
// (obs_test pins digest equality ON vs OFF).
#pragma once

#include <cstdint>

#include "obs/metrics.h"
#include "obs/spans.h"

namespace comet::obs {

// Span-ring capacity, records per replica; overwrite-oldest (with a drop
// counter) beyond it. Reserved at BeginRun.
inline constexpr int64_t kSpanCapacity = 1 << 15;

struct TelemetryOptions {
  bool enabled = false;
};

// Handles for every server-side instrument point, registered once per
// registry in a fixed order (the order IS the Prometheus snapshot order,
// and MergeFrom relies on two server registries having identical schemas).
struct ServerMetrics {
  // Serving loop.
  Counter* iterations = nullptr;
  Counter* batched_tokens = nullptr;
  Counter* padding_tokens = nullptr;
  Counter* requests_offered = nullptr;
  Counter* requests_shed = nullptr;
  Counter* requests_completed = nullptr;
  // Admission queue / continuous batcher.
  Gauge* queue_depth = nullptr;
  Gauge* queue_tokens = nullptr;
  Gauge* batcher_live = nullptr;
  Gauge* batch_fill = nullptr;  // packed/budget of the last iteration
  HistogramMetric* batch_tokens_hist = nullptr;
  HistogramMetric* iteration_us = nullptr;
  // Request latency distributions (simulated us, observed at retirement).
  HistogramMetric* queue_wait_us = nullptr;
  HistogramMetric* ttft_us = nullptr;
  HistogramMetric* itl_us = nullptr;
  HistogramMetric* e2e_us = nullptr;
  // Executor profile cache (division-point memo).
  Counter* profile_hits = nullptr;
  Counter* profile_misses = nullptr;
  // Symmetric heap transport.
  Counter* heap_traffic_bytes = nullptr;
  Counter* heap_rows_verified = nullptr;
  Counter* heap_rows_corrupted = nullptr;
  // Adaptation plane.
  Counter* promotions = nullptr;
  Counter* retirements = nullptr;
  Counter* replicated_rows = nullptr;
  Gauge* active_replicas = nullptr;

  static ServerMetrics Register(MetricsRegistry& registry);
};

// Handles for the cluster dispatcher's instrument points (one registry per
// MoeCluster, rendered unlabeled next to the per-replica sections).
struct ClusterMetrics {
  Counter* dispatches = nullptr;
  Counter* redispatches = nullptr;
  Counter* retries = nullptr;
  Counter* hedges = nullptr;
  Counter* hedge_wins = nullptr;
  Counter* sheds = nullptr;
  Counter* wasted_tokens = nullptr;
  Counter* faults_injected = nullptr;
  Counter* replica_failures = nullptr;
  Counter* replicas_recovered = nullptr;
  Counter* breaker_opens = nullptr;
  Counter* breaker_probes = nullptr;

  static ClusterMetrics Register(MetricsRegistry& registry);
};

// One replica's telemetry plane: registry + handles + span ring.
class Telemetry {
 public:
  explicit Telemetry(const TelemetryOptions& options);

  bool enabled() const { return options_.enabled; }

  // Resets metric values and clears + reserves the span ring. Allocates
  // (ring reservation); call outside counting windows, before the loop.
  void BeginRun();

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }
  SpanRing& spans() { return spans_; }
  const SpanRing& spans() const { return spans_; }
  ServerMetrics& metrics() { return metrics_; }
  const ServerMetrics& metrics() const { return metrics_; }

 private:
  TelemetryOptions options_;
  MetricsRegistry registry_;
  ServerMetrics metrics_;
  SpanRing spans_;
};

}  // namespace comet::obs
