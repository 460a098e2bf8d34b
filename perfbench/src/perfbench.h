// The repository benchmark: one driver for the four workloads that cover the
// host time a user of this repository waits on.
//
//   serve_decode   MoeServer, tiny model, decode-heavy Poisson load
//   serve_prefill  MoeServer, wider model, long bimodal prompts
//   fleet_skew     MoeCluster of 4 replicas under expert skew, one failure
//   paper_sweep    timing plane only: RunModel for the five systems plus the
//                  fine-tile fused-kernel simulations
//
// Every layer is measured from outside, by timing calls into the public
// functions of serve/, core/, moe/, comm/, runtime/ and baselines/. An
// untraced run gives the end-to-end metrics; a traced run (spans around the
// Offer/StepIteration/Run/RunModel calls plus a replay of every batch shape
// through the lower layers) gives the per-layer metrics. See README.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hw/gpu_spec.h"
#include "serve/server.h"

namespace perfbench {

// ---- command line ----------------------------------------------------------

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where the traced run's span file and the per-run result record go
  // (relative to the working directory, i.e. the checkout root).
  std::string out_dir = ".bench_out";
  // Source identity recorded in the manifest (git sha or a source digest).
  std::string source_id = "unknown";
};

// ---- results ---------------------------------------------------------------

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

// The metric catalogue. BENCHMARK.json names exactly these, with the same
// units; tests/test_metric_names.py pins the two together.
std::span<const MetricDef> EndToEndMetrics();
std::span<const MetricDef> PerLayerMetrics();

// Outcome of one workload run: operations attempted and failed (shed, lost
// or retries-exhausted requests, oracle mismatches, thrown CheckErrors),
// and every measured metric by name.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;

  void Set(std::string_view name, double value) {
    metrics[std::string(name)] = value;
  }
  // Adds one oracle verdict.
  void Check(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
};

// The benchmark's last stdout line: {"correct", "attempted", "failed",
// "metrics"}. With trace=false the metrics are exactly EndToEndMetrics()
// (each must have been measured); with trace=true exactly PerLayerMetrics(),
// where a layer the workload never calls reads 0.
std::string ResultLine(const RunResult& result, bool trace);

// ---- measurement helpers ---------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Nearest-rank quantile (q in [0, 1]) of `values`; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(std::span<const double> values);

// Peak resident set size of this process, MiB.
double PeakRssMiB();

// One measured run of a workload (a serving run, a fleet run, a sweep pass):
// its host time, the tokens it pushed through layer evaluations, and the
// host time of each layer evaluation it made.
struct RunSample {
  double host_s = 0.0;
  double tokens = 0.0;
  double layer_evals = 0.0;
  std::vector<double> eval_us;
};

// Layer evaluations a serving process steps, over all its runs, before it
// stops measuring (it goes on for up to twice --seconds): enough repeats of
// every iteration for PerEvaluationUs even when one run is seconds long.
inline constexpr int64_t kMinMeasuredSteps = 1000;

// Every run of a workload repeats the same work, and noise on a shared host
// (a preempted iteration, a slow stretch of a second or more) only ever adds
// time to it, never removes any. So each piece of a run's work is timed by
// its minimum over the runs of the process.

// Host time of each layer evaluation of a run, denoised across the runs:
// entry k is the minimum of eval_us[k] over all `runs`. Every run must have
// made the same number of evaluations.
std::vector<double> PerEvaluationUs(std::span<const RunSample> runs);

// Host seconds of one run, denoised the same way: the sum of
// PerEvaluationUs plus the minimum over the runs of the time spent outside
// the evaluations (offering requests, building executors, bookkeeping).
double DenoisedRunSeconds(std::span<const RunSample> runs);

// Sets the throughput end-to-end metrics: host_tokens_per_s and
// layer_sims_per_s are a run's tokens and layer evaluations (the same in
// every run) over DenoisedRunSeconds; iter_host_us_p50/p99 are nearest-rank
// percentiles of PerEvaluationUs.
void SetThroughputMetrics(std::span<const RunSample> runs, RunResult* result);

// setup_s: host seconds per call of `build`, which makes (and returns)
// everything a run needs before its first measured call. One build takes
// milliseconds, too short to time alone against timer and scheduler noise,
// so a sample is the mean over back-to-back builds worth at least
// kSetupSampleSeconds, and the result is the fastest of kSetupSamples
// samples (noise only slows a sample down). Each build is torn down outside
// the timer.
inline constexpr int kSetupSamples = 10;
inline constexpr double kSetupSampleSeconds = 0.1;

template <typename Build>
double SetupSeconds(Build&& build) {
  std::vector<double> samples;
  for (int s = 0; s < kSetupSamples; ++s) {
    double built_s = 0.0;
    int64_t builds = 0;
    const Clock::time_point sample_start = Clock::now();
    while (builds == 0 || SecondsSince(sample_start) < kSetupSampleSeconds) {
      const Clock::time_point t0 = Clock::now();
      const auto made = build();
      built_s += SecondsSince(t0);
      ++builds;
    }
    samples.push_back(built_s / static_cast<double>(builds));
  }
  return Quantile(std::move(samples), 0.0);
}

// ---- tracing ---------------------------------------------------------------

// One span: a timed call into a layer. `parent` indexes the enclosing span
// (-1 at the root); `id` is the iteration, request or configuration number.
struct Span {
  std::string_view name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t id = 0;

  double DurationUs() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

// In-memory span store for the traced run. Disabled recorders keep nothing
// (Begin returns -1, End ignores it), so the untraced run pays one branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled, size_t reserve = 0);

  bool enabled() const { return enabled_; }
  int32_t Begin(std::string_view name, int32_t parent, int64_t id);
  void End(int32_t span);
  // Records an already-timed interval.
  int32_t Add(std::string_view name, Clock::time_point start,
              Clock::time_point end, int32_t parent, int64_t id);

  const std::vector<Span>& spans() const { return spans_; }
  // Count / total duration of the spans named `name`.
  int64_t Count(std::string_view name) const;
  double TotalUs(std::string_view name) const;

  // Chrome trace-event JSON ("X" events, args carry parent and id).
  void WriteChromeTrace(const std::string& path) const;

 private:
  int64_t NowNs() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---- traced replay of batch shapes through the lower layers ----------------

// How often the traced serving run stepped a batch of `tokens` padded rows.
struct ShapeCount {
  int64_t tokens = 0;
  int64_t count = 0;
};

// Per-iteration host time of each lower layer, averaged over the replayed
// shapes weighted by how often the run saw them.
struct LayerBreakdown {
  double gate_route_us = 0.0;
  double route_plan_us = 0.0;
  double group_gemm_us = 0.0;
  double group_gemm_flops = 0.0;  // per iteration, from the GEMM shapes
  double activation_us = 0.0;
  double put_row_ns = 0.0;        // per row, checksums on
  double copy_row_ns = 0.0;       // per row, checksums on
  double heap_us = 0.0;           // every row's put + copy, per iteration
  double bytes_moved = 0.0;       // per iteration, from the tensor sizes
  double run_batch_timed_us = 0.0;
  double run_batch_functional_us = 0.0;  // timing + functional plane
  double adaptive_sweep_us = 0.0;        // per profile-memo miss
  int64_t shapes_replayed = 0;
  double iterations_covered = 0.0;  // share of the run's iterations replayed
};

// Share of the measured step time the replayed layers account for: gate +
// route plan + RunBatchInto(kFunctional) (which includes the timing plane
// and, inside it, the GEMMs, activation and heap traffic) over the mean
// StepIteration time. 0 when step_us is 0.
double TraceCoverage(const LayerBreakdown& layers, double step_us);

// Replays `shapes` through GateNetwork::RouteInto, RoutePlan::Rebuild,
// RunGroupGemm, ApplyActivation, SymmetricHeap::PutRow/CopyRow and
// CometExecutor::RunBatchInto for the serving model described by the
// the serving configuration `options` on `cluster`. Shapes are replayed
// most-frequent first until `budget_s` is spent (at least one always is).
LayerBreakdown ReplayShapes(const comet::ServeOptions& options,
                            const comet::ClusterSpec& cluster,
                            std::vector<ShapeCount> shapes, double budget_s);

// ---- correctness oracles ---------------------------------------------------

// Serving: a request's output depends only on its seed and the weights, so
// serving `request` alone on `server` must reproduce the output digest that
// `loaded` (the records of a loaded run on the same weights) holds for its
// id. False when the record is missing or any bit differs.
bool ServedAloneMatches(comet::MoeServer& server,
                        const comet::RequestSpec& request,
                        std::span<const comet::RequestRecord> loaded);

// ---- workloads -------------------------------------------------------------

RunResult RunServeDecode(const RunOptions& options);
RunResult RunServePrefill(const RunOptions& options);
RunResult RunFleetSkew(const RunOptions& options);
RunResult RunPaperSweep(const RunOptions& options);

// Names of the workloads above, in BENCHMARK.json order.
std::span<const std::string_view> WorkloadNames();

// ---- manifest --------------------------------------------------------------

// Single-thread GemmNT throughput on a fixed shape, GFLOP/s: the machine
// calibration record printed next to every result.
double CalibrateGemmGflops();

// One-line JSON manifest: source id, compiler and flags, CPU model, nproc,
// threads and seed of the run, calibration.
std::string ManifestJson(const RunOptions& options, int threads,
                         double calib_gflops);

}  // namespace perfbench
