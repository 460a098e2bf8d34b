// The MoE serving runtime: queue -> continuous batcher -> CometExecutor,
// on a simulated clock, with per-request latency and SLO accounting.
//
// Dataflow per iteration:
//  1. arrivals with arrival_us <= now enter the bounded AdmissionQueue
//     (full queue => the shed policy fires);
//  2. the queue drains into the ContinuousBatcher while it has room
//     (BatcherOptions::max_active is the backpressure that lets the queue
//     fill under overload);
//  3. the batcher packs up to token_budget tokens (decode steps first, then
//     chunked prefill, FIFO within each class);
//  4. the packed tokens become one MoeWorkload -- rows gathered from the
//     per-request prompt tensors / decode feedback rows, padded to a
//     multiple of EP, routed content-based through a softmax top-k gate --
//     and run through CometExecutor::RunBatchInto (functional plane: real
//     numerics at compute_dtype across the EP ranks; timing plane: the
//     simulated iteration duration);
//  5. the clock advances by host_overhead_us + the simulated duration;
//     every packed request digests its output rows, the last row feeds the
//     request's next decode step, and finished requests are retired with
//     queue-wait / TTFT / ITL / end-to-end times.
//
// Determinism: arrivals, packing and routing are pure functions of seeds
// and config; the executor's outputs are bit-identical at any thread count
// and the timing plane is simulated -- so the SAME seed + config produce
// bit-identical per-request output digests AND identical latency
// percentiles whether the host runs 1 thread or 8 (serve_test pins this
// across EP {1,4} x dtype {f32,bf16}).
//
// Allocation: the executor's PrepareServing workspaces plus run-level
// reservations (a FixedPool of LiveRequests, a persistent MoeWorkload and
// LayerExecution, ring-buffered admission, PackInto/CompleteInto) make the
// steady-state StepIteration perform zero heap allocations once warm --
// alloc_test pins this with an interposed operator-new counter (see
// docs/ARCHITECTURE.md, "The allocation plane").
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/comet_executor.h"
#include "moe/router.h"
#include "obs/exporters.h"
#include "obs/telemetry.h"
#include "serve/adaptation.h"
#include "serve/admission_queue.h"
#include "serve/batcher.h"
#include "serve/loadgen.h"
#include "serve/request.h"
#include "util/stats.h"

namespace comet {

// Where per-iteration routing decisions come from.
enum class ServeRoutingMode {
  // Content-based softmax top-k gate over the real token rows (default).
  kGate,
  // Seeded load-controlled SyntheticRouter (Rng::LoadVectorWithStd at
  // ServeOptions::synthetic_load_std): benches dial in the paper's Figure 14
  // skew regimes -- and, with drift_period_us, a hot spot that walks across
  // experts -- while the data plane still executes real numerics on the real
  // batch rows. Deterministic: one seeded stream per run, with the drift
  // shift applied AFTER sampling so rng consumption is phase-independent.
  kSynthetic,
};

// Latency SLO targets, simulated us; 0 disables that clause. A completed
// request meets the SLO iff ttft_us <= slo.ttft_us (when set) and its mean
// inter-token latency <= slo.itl_us (when set). Shed requests always count
// as violations -- shedding is a latency failure the operator chose, not a
// free pass.
struct SloTargets {
  double ttft_us = 0.0;
  double itl_us = 0.0;

  bool Configured() const { return ttft_us > 0.0 || itl_us > 0.0; }
};

struct ServeOptions {
  ModelConfig model;
  ParallelConfig parallel;
  // Weights / gate seed (independent of the load generator's seed).
  uint64_t seed = 1;
  // Storage/compute dtype of the serving data plane (workload tensors and
  // CometOptions::compute_dtype).
  DType dtype = DType::kF32;
  // Worker threads for the executor (0 = global default, 1 = serial).
  int num_threads = 0;
  // Fail-fast bound for a wedged rank (CometOptions::signal_wait_timeout_ms):
  // serving default is 10 s, not the executor's 60 s. Must be > 0 (validated
  // at construction -- a non-positive bound would make every signal wait
  // fail instantly or hang forever).
  int64_t signal_wait_timeout_ms = 10'000;
  // Per-row checksums on every symmetric-heap transfer of the data plane
  // (CometOptions::verify_transport): a corrupted payload throws CheckError
  // naming buffer/rank/row at its first consumer instead of being served.
  // ON by default in serving -- production never serves silent corruption;
  // benches that want the last few percent can turn it off.
  bool verify_transport = true;
  // Per-iteration token capacity of the batcher.
  int64_t token_budget = 64;
  // Max requests live in the batcher (0 = unbounded; see BatcherOptions).
  int64_t max_active = 32;
  // Bounded admission queue.
  int64_t queue_capacity = 256;
  // Host-side cost added to every iteration on the simulated clock (kernel
  // launches amortized by COMET's fusion are priced inside the executor;
  // this is the serving loop's own scheduling overhead).
  double host_overhead_us = 20.0;
  // Decomposition granularity of the serving executor (CometOptions::tile_m):
  // rows per fused-pipeline chunk. Finer granularity makes per-rank time
  // track per-rank ROWS (more chunks, more compute/comm overlap, more
  // per-chunk overhead) -- the regime where load balancing moves the tail;
  // the 128 default matches the executor and keeps historical runs
  // bit-identical. Served bits never depend on this (tiles partition the
  // output; every element is a full-k accumulation either way). Must be > 0.
  int64_t granularity = 128;
  SloTargets slo;
  // Routing source (see ServeRoutingMode). The synthetic knobs below are
  // only meaningful -- and only accepted -- in kSynthetic mode.
  ServeRoutingMode routing = ServeRoutingMode::kGate;
  // Target per-expert load-fraction std of the synthetic router (Figure 14;
  // 0 = uniform in expectation). Requires routing == kSynthetic.
  double synthetic_load_std = 0.0;
  // When > 0 (kSynthetic only), the synthetic hot spot rotates one expert
  // every drift_period_us of simulated time -- the drifting-skew regime the
  // adaptation loop must chase.
  double drift_period_us = 0.0;
  // Online adaptation: hot-expert replication and live re-tuning (see
  // serve/adaptation.h). Disabled by default; disabled serves byte-identical
  // bits to a server without the adaptation plane.
  AdaptationOptions adaptation;
  // Telemetry plane (see obs/telemetry.h). OFF by default; on or off, the
  // served bits are byte-identical -- instrumentation only reads the
  // serving state (obs_test pins digest equality ON vs OFF).
  obs::TelemetryOptions telemetry;
};

struct ServeReport {
  // Completed requests, in request-id order.
  std::vector<RequestRecord> completed;
  int64_t offered = 0;
  int64_t shed = 0;
  int64_t iterations = 0;
  // Tokens actually batched (excludes EP padding) / padding rows added.
  int64_t batched_tokens = 0;
  int64_t padding_tokens = 0;
  // Simulated end-to-end duration (last iteration completion).
  double sim_duration_us = 0.0;
  // batched_tokens per simulated second.
  double throughput_tokens_per_s = 0.0;

  // Nearest-rank percentile summaries over completed requests (simulated
  // us): deterministic for a deterministic run.
  LatencySummary queue_wait_us;
  LatencySummary ttft_us;
  LatencySummary itl_us;  // over every inter-token gap of every request
  LatencySummary e2e_us;

  // SLO accounting: met / (completed + shed); 1.0 when no SLO configured.
  double slo_attainment = 1.0;
  int64_t slo_violations = 0;

  // FNV-1a over per-request output digests in id order: one value that
  // changes if any request's output changed anywhere.
  uint64_t combined_digest = 0;

  // Adaptation plane: replicas promoted/retired this run, and total
  // (token, expert) rows served from replica slices. All zero when
  // adaptation is disabled.
  int64_t promotions = 0;
  int64_t retirements = 0;
  int64_t replicated_rows = 0;
};

// The latency samples of one run. Order is free: SummarizeLatency sorts
// before it sums, so sample order never reaches a summary's bits.
struct LatencySamples {
  std::vector<double> queue_waits, ttfts, itls, e2es;
};

// The report tail MoeServer::BuildReport and MoeCluster::Run share: sorts
// report->completed by id, summarizes `samples`, digests the outputs in id
// order and scores the SLO over the completed requests plus `lost` ones
// (shed or failed: violations by definition).
template <typename Report>
void FinishReport(const LatencySamples& samples, const SloTargets& slo,
                  int64_t lost, Report* report) {
  std::vector<RequestRecord>& completed = report->completed;
  std::sort(completed.begin(), completed.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.id < b.id;
            });
  report->queue_wait_us = SummarizeLatency(samples.queue_waits);
  report->ttft_us = SummarizeLatency(samples.ttfts);
  report->itl_us = SummarizeLatency(samples.itls);
  report->e2e_us = SummarizeLatency(samples.e2es);
  uint64_t combined = Fnv1aInit();
  int64_t met = 0;
  for (const RequestRecord& rec : completed) {
    combined =
        Fnv1aAdd(combined, &rec.output_digest, sizeof(rec.output_digest));
    const bool ttft_ok = slo.ttft_us <= 0.0 || rec.ttft_us <= slo.ttft_us;
    const bool itl_ok = slo.itl_us <= 0.0 || rec.mean_itl_us <= slo.itl_us;
    if (ttft_ok && itl_ok) {
      ++met;
    }
  }
  report->combined_digest = combined;
  if (slo.Configured()) {
    const int64_t denom = static_cast<int64_t>(completed.size()) + lost;
    report->slo_violations = denom - met;
    report->slo_attainment =
        denom > 0 ? static_cast<double>(met) / static_cast<double>(denom)
                  : 1.0;
  }
}

// Read-only view of the accumulated state of the current run, for the
// cluster dispatcher's aggregation (the single-server Serve wraps the same
// state into a ServeReport via BuildReport).
struct RunView {
  // Retirement order. Under hedging this includes completed losers the
  // cluster cancelled; it skips them at harvest.
  std::span<const RequestRecord> completed;
  std::span<const double> itls;  // every inter-token gap of every request
  // itl_counts[i] = the samples completed[i] contributed to itls, in order.
  std::span<const int64_t> itl_counts;
  int64_t iterations = 0;
  int64_t batched_tokens = 0;
  int64_t padding_tokens = 0;
  int64_t promotions = 0;
  int64_t retirements = 0;
  int64_t replicated_rows = 0;
};

class MoeServer {
 public:
  MoeServer(ServeOptions options, ClusterSpec cluster);
  ~MoeServer();  // out-of-line: RunState is incomplete here

  // Serves `arrivals` (must be sorted by arrival_us, as LoadGenerator
  // emits them) to completion and reports. Reusable: each call is an
  // independent serving run over the same weights. Implemented on the
  // dispatcher hooks below: BeginRun + {Offer, StepIteration} + BuildReport.
  ServeReport Serve(const std::vector<RequestSpec>& arrivals);
  ServeReport Serve(LoadGenerator& loadgen);

  // ---- dispatcher hooks (cluster plane) ------------------------------------
  // MoeCluster drives N replicas through these on one global simulated
  // clock; the single-server Serve loop drives exactly the same hooks, so
  // a 1-replica cluster is the single-server plane, bit for bit.

  // Optional run-level bounds for BeginRun. Every field is a reservation
  // hint: zero means "unknown" (the run still works, the corresponding
  // containers just grow amortized instead of never reallocating). With all
  // bounds covering the offered load, the steady-state StepIteration --
  // admission, packing, execution, harvesting AND retirement -- performs
  // zero heap allocations once warm.
  struct RunBounds {
    int64_t expected_requests = 0;  // >= requests offered this run
    int64_t expected_tokens = 0;    // >= sum of their TotalTokens()
    int64_t max_prompt_tokens = 0;  // >= longest prompt offered
    int64_t max_decode_tokens = 0;  // >= longest decode offered
  };

  // Resets all per-run state (queue, batcher, live requests, accounting),
  // reserving per-run containers at `bounds` (the iteration workspaces are
  // bounded by token_budget/max_active and reserved regardless). The
  // single-server Serve derives exact bounds from its arrival vector; the
  // cluster plane calls this with defaults.
  void BeginRun(RunBounds bounds);
  void BeginRun() { BeginRun(RunBounds()); }
  // Offers one request to the bounded admission queue. Counts it as offered,
  // and as shed when the queue rejects it; returns whether it was admitted.
  // Requires BeginRun.
  bool Offer(const RequestSpec& spec);
  // True when the replica could pack a non-empty iteration (queued or live
  // in-flight work).
  bool HasWork() const;
  // Remaining admitted-but-unexecuted tokens (admission queue + batcher):
  // the load signal placement policies balance on.
  int64_t LoadTokens() const;
  // Drains the queue into the batcher, packs one iteration starting at
  // simulated time `now`, executes it (real numerics + simulated duration),
  // harvests outputs and retires finished requests. Returns false (and
  // leaves *end_us untouched) when there is nothing to pack. A wedged rank
  // (WedgeNextIteration) or a dead producer surfaces as CheckError after
  // ServeOptions::signal_wait_timeout_ms instead of hanging.
  bool StepIteration(double now, double* end_us);
  // Fault injection: the next StepIteration parks in the symmetric heap's
  // WaitUntilSignalGe fail-fast path on a signal no producer will ever
  // raise, so it throws CheckError after signal_wait_timeout_ms -- a wedged
  // rank, observed exactly as production would observe it.
  void WedgeNextIteration();
  // Fault injection: the next StepIteration runs with the symmetric heap's
  // link-corruption injector armed at rate 1 (and checksums forced on even
  // if verify_transport is off), so the iteration throws CheckError naming
  // the corrupted buffer/rank/row -- corrupted transport is always DETECTED,
  // never silently served. One-shot: the injector disarms afterwards.
  void CorruptNextIteration();

  // Outcome of CancelRequest: whether the request was found on this replica,
  // how many of its tokens had already been executed here (wasted work), and
  // whether it had already completed (the cluster decided another copy
  // won).
  struct CancelResult {
    bool found = false;
    int64_t executed_tokens = 0;
    bool was_completed = false;
  };
  // Withdraws request `id` from this replica, wherever it is: still queued,
  // or live in the batcher (possibly mid-prefill/decode). A request that
  // already completed here but was not yet observed by the cluster keeps
  // its record; the cluster skips it at harvest. Hedged-dispatch loser
  // cancellation. Safe no-op (found == false) when the replica never saw
  // the request.
  CancelResult CancelRequest(int64_t id);
  // True when request `id` has entered at least one batch here (or already
  // completed). The cluster's hedging uses this: a request that started
  // executing is past queue-wait, so hedging it buys nothing.
  bool RequestStarted(int64_t id) const;
  // Removes and returns every in-flight request (batcher live requests in
  // admission order, then queued requests in FIFO order) -- the cluster
  // calls this on replica failure to re-dispatch or account them. Specs
  // keep their original arrival_us. Completed-request records stay.
  std::vector<RequestSpec> DrainInFlight();
  // Accumulated state of the current run.
  RunView View() const;
  // Wraps the current run state into a report; `sim_duration_us` is the
  // run's end time on the simulated clock.
  ServeReport BuildReport(double sim_duration_us) const;

  const ClusterSpec& cluster() const { return cluster_; }
  // Executor diagnostics (e.g. profile_memo_misses after a run).
  const CometExecutor& executor() const { return executor_; }

  // ---- telemetry plane (obs/) ----------------------------------------------
  // The per-replica telemetry bundle: registry + span ring, reset by
  // BeginRun. Recording only happens when ServeOptions::telemetry.enabled.
  obs::Telemetry& telemetry() { return telemetry_; }
  const obs::Telemetry& telemetry() const { return telemetry_; }
  // View over this server's telemetry for the exporters (one replica
  // process; the cluster plane builds its own multi-replica list).
  obs::ReplicaTelemetry TelemetryView() const;
  // Renders this server's telemetry (see obs/exporters.h for formats).
  std::string ExportChromeTrace() const;
  std::string ExportPrometheusText() const;
  std::string ExportTelemetryJsonl() const;

 private:
  struct LiveRequest;
  struct RunState;

  // Rebuilds `run`'s persistent MoeWorkload in place for one packed
  // iteration (gather -> route -> adaptation step -> route plan ->
  // per-group inputs), filling `run.rows` with the per-entry global row
  // offsets (entry e's tokens are rows [rows[e], rows[e] +
  // entries[e].num_tokens)). `now` is the iteration's simulated start time
  // (the synthetic router's drift phase). With adaptation on, this is where
  // the loop closes: the routing's expert loads feed the HotExpertTracker
  // and its promote/retire decisions are applied to the executor before the
  // plan is rebuilt with the current replica set. Allocation-free once the
  // run's workspaces are warm EXCEPT on change iterations (a promote/retire
  // copies weights and flushes cached profiles).
  void BuildBatchWorkloadInto(const BatchPlan& plan,
                              const std::vector<LiveRequest*>& live,
                              double now, RunState& run, int64_t* padding);

  // Publishes one iteration's metrics and spans ([now, end], `packed`
  // non-padding tokens). Called at the end of StepIteration, only when
  // telemetry is enabled; allocation-free.
  void RecordIterationTelemetry(RunState& run, double now, double end,
                                int64_t packed, int64_t padding);

  ServeOptions options_;
  ClusterSpec cluster_;
  std::shared_ptr<const ExpertWeights> weights_;
  std::shared_ptr<const ShardedExpertWeights> sharded_weights_;
  GateNetwork gate_;
  CometExecutor executor_;
  obs::Telemetry telemetry_;
  std::unique_ptr<RunState> run_;
};

}  // namespace comet
