// serve_decode and serve_prefill: one MoeServer driven through its
// dispatcher hooks (BeginRun / Offer / StepIteration) by an open-loop
// arrival stream on the simulated clock, exactly like MoeServer::Serve, with
// every call timed from outside.
//
// On the host the benchmark is one caller stepping iterations back to back:
// arrivals are Poisson on the simulated clock only, so the host metrics are
// work completed per host second at a stated input size.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "perfbench.h"
#include "serve/loadgen.h"
#include "util/alloc_counter.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace comet;

namespace {

// Fixed across seeds: the seed picks the arrivals, not the model.
constexpr uint64_t kWeightSeed = 20261016;
constexpr uint64_t kCalibrationSeed = 7;
// Requests served alone by the correctness oracle, per run.
constexpr int kOracleSamples = 8;
// The first iterations after BeginRun format the run's fresh workspaces;
// the steady window (zero heap allocations) starts after them.
constexpr int64_t kColdIterations = 32;

struct ServeSpec {
  ServeOptions options;
  // Length mix of the arrival stream; rate and size are filled in per run.
  LoadGenOptions load;
  int64_t requests_per_run = 0;
  int64_t warmup_requests = 0;
  int64_t calibration_requests = 0;
  // Offered load as a multiple of the calibrated saturation throughput.
  double load_factor = 1.0;
  // Host seconds the traced run spends replaying batch shapes.
  double replay_budget_s = 1.0;
};

ModelConfig ServeModel(int64_t embedding, int64_t ffn_hidden) {
  ModelConfig m;
  m.name = "perfbench-serve";
  m.layers = 1;
  m.num_experts = 8;
  m.topk = 2;
  m.embedding = embedding;
  m.ffn_hidden = ffn_hidden;
  return m;
}

ServeOptions BaseServeOptions(const ModelConfig& model, int64_t token_budget) {
  ServeOptions o;
  o.model = model;
  o.parallel = ParallelConfig{1, 4};
  o.seed = kWeightSeed;
  o.num_threads = 1;
  o.token_budget = token_budget;
  o.routing = ServeRoutingMode::kGate;
  return o;
}

// Decode-heavy: per-iteration overhead (gate scoring, route plan, heap
// put/checksum, activation, bookkeeping) dominates a <=32-token batch.
// Offered just above saturation: at the saturation rate itself the queue
// wanders, and the mean batch (15-18 tokens) moved with the seed.
ServeSpec DecodeSpec() {
  ServeSpec s;
  s.options = BaseServeOptions(ServeModel(64, 128), 32);
  s.options.max_active = 16;
  s.load.arrival = ArrivalProcess::kPoisson;
  s.load.prompt = LengthDist::Uniform(4, 16);
  s.load.decode = LengthDist::Uniform(16, 64);
  s.load_factor = 1.25;
  s.requests_per_run = 600;
  s.warmup_requests = 200;
  s.calibration_requests = 64;
  s.replay_budget_s = 1.0;
  return s;
}

// Prefill-heavy: GEMM- and activation-bound 512-token batches of chunked
// long prompts; many distinct batch sizes exercise the division-point sweep.
// Offered above saturation so nearly every batch is full: at the saturation
// rate the share of partial batches (and p50 with it) swung with the seed.
ServeSpec PrefillSpec() {
  ServeSpec s;
  s.options = BaseServeOptions(ServeModel(256, 512), 512);
  s.options.max_active = 32;
  s.load.arrival = ArrivalProcess::kPoisson;
  s.load.prompt = LengthDist::Bimodal(64, 1024, 0.25);
  s.load.decode = LengthDist::Uniform(1, 4);
  s.load_factor = 1.5;
  s.requests_per_run = 200;
  s.warmup_requests = 40;
  s.calibration_requests = 24;
  s.replay_budget_s = 2.5;
  return s;
}

MoeServer::RunBounds BoundsOf(const std::vector<RequestSpec>& arrivals) {
  MoeServer::RunBounds b;
  b.expected_requests = static_cast<int64_t>(arrivals.size());
  for (const RequestSpec& r : arrivals) {
    b.expected_tokens += r.TotalTokens();
    b.max_prompt_tokens = std::max(b.max_prompt_tokens, r.prompt_tokens);
    b.max_decode_tokens = std::max(b.max_decode_tokens, r.decode_tokens);
  }
  return b;
}

double MeanTokensPerRequest(const LoadGenOptions& load) {
  const auto mean = [](const LengthDist& d) {
    if (d.kind == LengthDist::Kind::kBimodal) {
      return (1.0 - d.long_fraction) * static_cast<double>(d.short_len) +
             d.long_fraction * static_cast<double>(d.long_len);
    }
    return 0.5 * static_cast<double>(d.Min() + d.Max());
  };
  return mean(load.prompt) + mean(load.decode);
}

// The seeded arrival stream of one serving run. A bimodal prompt mix gets
// exactly its long share, at seeded positions: sampled per request, the
// count of long prompts varies by about +-4 per 100 across seeds and moves
// every host metric with it.
std::vector<RequestSpec> Arrivals(const LoadGenOptions& load) {
  std::vector<RequestSpec> arrivals = LoadGenerator(load).GenerateAll();
  const LengthDist& prompt = load.prompt;
  if (prompt.kind == LengthDist::Kind::kBimodal) {
    std::vector<size_t> order(arrivals.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    Rng rng(load.seed ^ 0x10a9);
    rng.Shuffle(order);
    const size_t num_long = static_cast<size_t>(
        std::llround(prompt.long_fraction * static_cast<double>(order.size())));
    for (size_t i = 0; i < order.size(); ++i) {
      arrivals[order[i]].prompt_tokens =
          i < num_long ? prompt.long_len : prompt.short_len;
    }
  }
  return arrivals;
}

// What the measured loop records per serving run.
struct RunStats {
  RunSample sample;  // tokens = batched non-padding tokens
  int64_t padding = 0;
  ServeReport report;
};

// Per-iteration observations kept across runs.
struct LoopSamples {
  std::vector<double> offer_us;
  std::map<int64_t, int64_t> shapes;  // padded batch rows -> iterations
  uint64_t allocs = 0;  // heap allocations inside steady-window steps
  int64_t steady_steps = 0;
};

// One serving run of `arrivals`, driven like MoeServer::Serve. With a
// traced recorder it also records Offer/StepIteration spans, the padded
// shape of every batch and the heap allocations inside every StepIteration.
RunStats DriveRun(MoeServer& server, const std::vector<RequestSpec>& arrivals,
                  const MoeServer::RunBounds& bounds, SpanRecorder& spans,
                  int64_t run_id, LoopSamples* samples) {
  RunStats stats;
  const bool traced = spans.enabled();
  const Clock::time_point start = Clock::now();
  const int32_t run_span = spans.Begin("serve.run", -1, run_id);
  server.BeginRun(bounds);
  double now = 0.0;
  size_t next = 0;
  int64_t prev_rows = 0;
  while (true) {
    while (next < arrivals.size() && arrivals[next].arrival_us <= now) {
      if (traced) {
        const Clock::time_point t0 = Clock::now();
        server.Offer(arrivals[next]);
        const Clock::time_point t1 = Clock::now();
        spans.Add("serve.offer", t0, t1, run_span, arrivals[next].id);
        samples->offer_us.push_back(MicrosBetween(t0, t1));
      } else {
        server.Offer(arrivals[next]);
      }
      ++next;
    }
    double end = 0.0;
    bool stepped = false;
    const Clock::time_point t0 = Clock::now();
    const int64_t iteration = static_cast<int64_t>(stats.sample.eval_us.size());
    if (traced && iteration >= kColdIterations) {
      util::AllocWindow window;
      stepped = server.StepIteration(now, &end);
      samples->allocs += window.Snapshot().allocs;
      samples->steady_steps += stepped ? 1 : 0;
    } else {
      stepped = server.StepIteration(now, &end);
    }
    const Clock::time_point t1 = Clock::now();
    if (stepped) {
      stats.sample.eval_us.push_back(MicrosBetween(t0, t1));
      if (traced) {
        spans.Add("serve.step", t0, t1, run_span, iteration);
        const RunView view = server.View();
        const int64_t rows = view.batched_tokens + view.padding_tokens;
        ++samples->shapes[rows - prev_rows];
        prev_rows = rows;
      }
      now = end;
      continue;
    }
    if (next < arrivals.size()) {
      now = std::max(now, arrivals[next].arrival_us);
      continue;
    }
    break;
  }
  spans.End(run_span);
  stats.sample.host_s = SecondsSince(start);
  const RunView view = server.View();
  stats.sample.tokens = static_cast<double>(view.batched_tokens);
  stats.sample.layer_evals = static_cast<double>(view.iterations);
  stats.padding = view.padding_tokens;
  stats.report = server.BuildReport(now);
  return stats;
}

RunResult RunServe(const ServeSpec& spec, const RunOptions& run) {
  SetGlobalThreadCount(spec.options.num_threads);
  const ClusterSpec cluster = H800Cluster(spec.options.parallel.world());
  RunResult result;

  // Saturation throughput and iteration time on the simulated clock, from
  // a burst where everything arrives at t=0. Fixed seed: the offered rate
  // is a property of the workload, not of the run's seed.
  ServeOptions options = spec.options;
  LoadGenOptions burst = spec.load;
  burst.seed = kCalibrationSeed;
  burst.num_requests = spec.calibration_requests;
  burst.arrival = ArrivalProcess::kBursty;
  burst.mean_burst = static_cast<double>(burst.num_requests);
  burst.offered_rps = 1e9;
  options.queue_capacity = burst.num_requests;
  const ServeReport calib =
      MoeServer(options, cluster).Serve(LoadGenerator(burst).GenerateAll());
  const double iter_us =
      calib.sim_duration_us / static_cast<double>(calib.iterations);
  options.slo.ttft_us = 8.0 * iter_us;
  options.slo.itl_us = 3.0 * iter_us;

  LoadGenOptions load = spec.load;
  load.seed = run.seed;
  load.num_requests = spec.requests_per_run;
  load.offered_rps = spec.load_factor * calib.throughput_tokens_per_s /
                     MeanTokensPerRequest(load);
  const std::vector<RequestSpec> arrivals = Arrivals(load);
  const MoeServer::RunBounds bounds = BoundsOf(arrivals);
  // Deep enough that nothing sheds: a shed request is a failure.
  options.queue_capacity = spec.requests_per_run;

  // setup_s: building the server (weights, executor, PrepareServing) and
  // BeginRun.
  const auto build = [&] {
    auto server = std::make_unique<MoeServer>(options, cluster);
    server->BeginRun(bounds);
    return server;
  };
  result.Set("setup_s", SetupSeconds(build));
  const std::unique_ptr<MoeServer> server = build();

  // Warm-up run on its own arrivals: pools, memo entries and output slabs
  // reach their high-water marks before anything is timed.
  LoadGenOptions warm = load;
  warm.seed = run.seed ^ 0x9e3779b97f4a7c15ULL;
  warm.num_requests = spec.warmup_requests;
  const std::vector<RequestSpec> warm_arrivals = Arrivals(warm);
  SpanRecorder untraced(false);
  LoopSamples discard;
  DriveRun(*server, warm_arrivals, BoundsOf(warm_arrivals), untraced, -1,
           &discard);

  // Measured runs. A traced process alternates untraced and traced runs so
  // the two step-time means give the tracing overhead.
  SpanRecorder spans(run.trace, 1 << 16);
  LoopSamples plain, traced;
  std::vector<RunSample> runs;
  double step_us[2] = {0.0, 0.0};  // summed step time, untraced / traced
  int64_t steps[2] = {0, 0};
  uint64_t traced_hits = 0, traced_misses = 0;
  int64_t traced_tokens = 0, traced_padding = 0;
  std::optional<ServeReport> first, last_traced;
  const Clock::time_point measure_start = Clock::now();
  // At least two runs, so a traced process always has a traced run; and
  // enough iterations that every iteration is repeated a few times.
  for (int64_t k = 0;; ++k) {
    const double elapsed = SecondsSince(measure_start);
    if (k >= 2 && elapsed >= run.seconds &&
        (steps[0] + steps[1] >= kMinMeasuredSteps ||
         elapsed >= 2 * run.seconds)) {
      break;
    }
    const bool trace_this = run.trace && k % 2 == 1;
    const uint64_t h = server->executor().profile_memo_hits();
    const uint64_t m = server->executor().profile_memo_misses();
    RunStats stats = DriveRun(*server, arrivals, bounds,
                              trace_this ? spans : untraced, k,
                              trace_this ? &traced : &plain);
    for (const double us : stats.sample.eval_us) {
      step_us[trace_this] += us;
    }
    steps[trace_this] += static_cast<int64_t>(stats.sample.eval_us.size());

    // Every request offered is attempted; shed ones failed. Every run
    // replays the same arrivals, so it must serve the same bits.
    result.attempted += stats.report.offered;
    result.failed += stats.report.shed;
    if (!first.has_value()) {
      first = stats.report;
    }
    result.Check(stats.report.combined_digest == first->combined_digest);
    if (trace_this) {
      traced_hits += server->executor().profile_memo_hits() - h;
      traced_misses += server->executor().profile_memo_misses() - m;
      traced_tokens += static_cast<int64_t>(stats.sample.tokens);
      traced_padding += stats.padding;
      last_traced = std::move(stats.report);
    }
    runs.push_back(std::move(stats.sample));
  }
  SetThroughputMetrics(runs, &result);

  // Correctness oracle: a request's output depends only on its seed and
  // the weights, so serving a sample of requests alone on a fresh server
  // must reproduce the digests they got inside the loaded run.
  MoeServer solo(options, cluster);
  Rng pick(run.seed ^ 0x0acc);
  for (int i = 0; i < kOracleSamples; ++i) {
    RequestSpec alone = arrivals[static_cast<size_t>(
        pick.UniformInt(0, static_cast<int64_t>(arrivals.size()) - 1))];
    alone.arrival_us = 0.0;
    result.Check(ServedAloneMatches(solo, alone, first->completed));
  }
  result.Set("error_rate", static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted));

  if (run.trace) {
    const double step_plain = step_us[0] / static_cast<double>(steps[0]);
    const double step_traced = step_us[1] / static_cast<double>(steps[1]);
    result.Set("serve.offer_us", Mean(traced.offer_us));
    result.Set("serve.step_us", step_traced);
    result.Set("trace.overhead_pct", 100.0 * (step_traced - step_plain) /
                                         step_plain);
    result.Set("serve.tokens_per_iter", static_cast<double>(traced_tokens) /
                                            static_cast<double>(steps[1]));
    result.Set("serve.padding_frac",
               static_cast<double>(traced_padding) /
                   static_cast<double>(traced_tokens + traced_padding));
    result.Set("serve.steady_allocs_per_iter",
               static_cast<double>(traced.allocs) /
                   static_cast<double>(std::max<int64_t>(traced.steady_steps, 1)));
    result.Set("core.profile_memo_hits", static_cast<double>(traced_hits));
    result.Set("core.profile_memo_misses", static_cast<double>(traced_misses));
    const ServeReport& rep = *last_traced;
    result.Set("serve.sim_ttft_p99_us", rep.ttft_us.p99);
    result.Set("serve.sim_itl_p99_us", rep.itl_us.p99);
    result.Set("serve.sim_tokens_per_s", rep.throughput_tokens_per_s);
    result.Set("serve.slo_attainment", rep.slo_attainment);

    std::vector<ShapeCount> shapes;
    for (const auto& [rows, count] : traced.shapes) {
      shapes.push_back({rows, count});
    }
    const LayerBreakdown layers =
        ReplayShapes(options, cluster, shapes, spec.replay_budget_s);
    result.Set("moe.gate_route_us", layers.gate_route_us);
    result.Set("moe.route_plan_us", layers.route_plan_us);
    result.Set("moe.group_gemm_us", layers.group_gemm_us);
    result.Set("moe.group_gemm_gflops",
               layers.group_gemm_flops / (layers.group_gemm_us * 1e3));
    result.Set("moe.activation_us", layers.activation_us);
    result.Set("comm.put_row_ns", layers.put_row_ns);
    result.Set("comm.copy_row_ns", layers.copy_row_ns);
    result.Set("comm.bytes_moved", layers.bytes_moved);
    result.Set("core.run_batch_timed_us", layers.run_batch_timed_us);
    result.Set("core.run_batch_functional_us", layers.run_batch_functional_us);
    result.Set("core.adaptive_sweep_us", layers.adaptive_sweep_us);
    result.Set("trace.coverage", TraceCoverage(layers, step_traced));
    result.Set("trace.gate_heap_share",
               (layers.gate_route_us + layers.heap_us) / step_traced);
    result.Set("trace.gemm_activation_share",
               (layers.group_gemm_us + layers.activation_us) / step_traced);
    spans.WriteChromeTrace(run.out_dir + "/" + run.workload + ".trace.json");
  }
  return result;
}

}  // namespace

bool ServedAloneMatches(MoeServer& server, const RequestSpec& request,
                        std::span<const RequestRecord> loaded) {
  const ServeReport alone = server.Serve(std::vector<RequestSpec>{request});
  const auto it =
      std::find_if(loaded.begin(), loaded.end(),
                   [&](const RequestRecord& r) { return r.id == request.id; });
  return alone.completed.size() == 1 && it != loaded.end() &&
         alone.completed[0].output_digest == it->output_digest;
}

RunResult RunServeDecode(const RunOptions& options) {
  return RunServe(DecodeSpec(), options);
}

RunResult RunServePrefill(const RunOptions& options) {
  return RunServe(PrefillSpec(), options);
}

}  // namespace perfbench
