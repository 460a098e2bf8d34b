// paper_sweep: the timing plane alone, as a figure regeneration runs it.
// RunModel on fresh executors (cold division-point profiles) for the five
// systems x Mixtral / Qwen2-MoE / Phi-3.5-MoE x M {4096, 16384} x {EP8,
// TP2-EP4}, plus COMET's fused-kernel simulations at tiles {8, 16, 32, 128}
// (tile 1 costs ~14 s and ~10 GB and is left out). No data plane runs: the
// time is in sim/, core/ (fused kernels, adaptive sweep, rescheduling),
// moe/ (synthetic routing, route plans) and baselines/.
#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <utility>

#include "baselines/fastermoe.h"
#include "baselines/megatron.h"
#include "baselines/tutel.h"
#include "core/comet_executor.h"
#include "core/fused_kernel.h"
#include "core/reschedule.h"
#include "exec/op_costs.h"
#include "moe/router.h"
#include "moe/workload.h"
#include "perfbench.h"
#include "runtime/model_runner.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace comet;

namespace {

constexpr int kThreads = 4;
// RunModel calls re-run serially by the oracle.
constexpr int kOracleSamples = 6;
constexpr int64_t kFineTokens = 16384;
constexpr std::array<int64_t, 4> kTiles = {8, 16, 32, 128};

// The five systems of the paper's evaluation, fresh (cold profiles).
struct Systems {
  MegatronExecutor megatron_te = MakeMegatronTe();
  MegatronExecutor megatron_cutlass = MakeMegatronCutlass();
  FasterMoeExecutor fastermoe;
  TutelExecutor tutel;
  CometExecutor comet;

  std::array<MoeLayerExecutor*, 5> All() {
    return {&megatron_te, &megatron_cutlass, &fastermoe, &tutel, &comet};
  }
};

// Span names per system, in Systems::All() order.
constexpr std::array<std::string_view, 5> kSystemSpans = {
    "baselines.megatron_te", "baselines.megatron_cutlass",
    "baselines.fastermoe", "baselines.tutel", "runtime.run_model"};
constexpr std::array<std::string_view, 4> kBaselineKeys = {
    "megatron_te", "megatron_cutlass", "fastermoe", "tutel"};
constexpr int kComet = 4;

struct SweepConfig {
  ModelConfig model;
  ParallelConfig parallel;
  int64_t tokens = 0;
};

std::vector<SweepConfig> SweepConfigs() {
  std::vector<SweepConfig> out;
  for (const ModelConfig& model : {Mixtral8x7B(), Qwen2Moe(), Phi35Moe()}) {
    for (const int64_t tokens : {int64_t{4096}, int64_t{16384}}) {
      for (const ParallelConfig parallel :
           {ParallelConfig{1, 8}, ParallelConfig{2, 4}}) {
        out.push_back({model, parallel, tokens});
      }
    }
  }
  return out;
}

// Simulated durations of one pass, in call order: the value the oracle
// compares bit for bit. -1 marks an unsupported (config, system) pair.
struct PassDurations {
  std::vector<double> run_model_us;  // [config * 5 + system]
  std::vector<double> fused_us;      // [tile * 2 + layer]
};

struct PassStats {
  RunSample sample;  // eval_us: host time of every layer simulation
  PassDurations durations;
};

// The fine-tile simulations' layer: EP8 Mixtral at M = 16384, routing and
// route plan only (no tensors).
MoeWorkload FineWorkload(uint64_t seed) {
  WorkloadOptions wopt;
  wopt.seed = seed;
  wopt.materialize = false;
  return MakeWorkload(Mixtral8x7B(), ParallelConfig{1, 8}, kFineTokens, wopt);
}

PassStats RunPass(const std::vector<SweepConfig>& configs,
                  const MoeWorkload& fine, const ClusterSpec& cluster,
                  uint64_t seed, SpanRecorder& spans, int64_t pass_id) {
  PassStats stats;
  const Clock::time_point start = Clock::now();
  const int32_t pass_span = spans.Begin("sweep.pass", -1, pass_id);
  for (size_t c = 0; c < configs.size(); ++c) {
    const SweepConfig& cfg = configs[c];
    Systems systems;
    ModelRunConfig run;
    run.model = cfg.model;
    run.parallel = cfg.parallel;
    run.total_tokens = cfg.tokens;
    run.seed = seed;
    const auto executors = systems.All();
    for (size_t s = 0; s < executors.size(); ++s) {
      if (!executors[s]->Supports(cfg.parallel)) {
        stats.durations.run_model_us.push_back(-1.0);
        continue;
      }
      const Clock::time_point t0 = Clock::now();
      const ModelRunResult r = RunModel(*executors[s], run, cluster);
      const Clock::time_point t1 = Clock::now();
      spans.Add(kSystemSpans[s], t0, t1, pass_span, static_cast<int64_t>(c));
      stats.sample.eval_us.push_back(MicrosBetween(t0, t1));
      stats.durations.run_model_us.push_back(r.total_ms);
      stats.sample.tokens += static_cast<double>(cfg.tokens);
    }
  }

  // Fine-grained decomposition: COMET's fused kernels on rank 0, across
  // tile sizes.
  const OpCostModel costs(cluster);
  for (const int64_t tile : kTiles) {
    FusedKernelConfig config;
    config.total_blocks = cluster.gpu.num_sms;
    config.comm_blocks = 20;
    config.tile_m = tile;
    config.tile_n = tile;
    const Clock::time_point t0 = Clock::now();
    const FusedKernelResult l0 = SimulateLayer0Fused(fine.plan, 0, costs, config);
    const Clock::time_point t1 = Clock::now();
    const FusedKernelResult l1 = SimulateLayer1Fused(fine.plan, 0, costs, config);
    const Clock::time_point t2 = Clock::now();
    spans.Add(tile == 128 ? "core.fused_l0_sim" : "core.fused_l0_sim_fine",
              t0, t1, pass_span, tile);
    spans.Add(tile == 128 ? "core.fused_l1_sim" : "core.fused_l1_sim_fine",
              t1, t2, pass_span, tile);
    stats.sample.eval_us.push_back(MicrosBetween(t0, t2));
    stats.durations.fused_us.push_back(l0.duration_us);
    stats.durations.fused_us.push_back(l1.duration_us);
    stats.sample.tokens += static_cast<double>(kFineTokens);
  }
  spans.End(pass_span);
  stats.sample.host_s = SecondsSince(start);
  stats.sample.layer_evals = static_cast<double>(stats.sample.eval_us.size());
  return stats;
}

// Mean latency reduction of COMET against each baseline over the configs
// both ran, percent (the paper's section 5.2 aggregate).
std::array<double, 4> MeanReductionPct(const PassDurations& d) {
  std::array<double, 4> sum{}, n{};
  for (size_t c = 0; c * 5 < d.run_model_us.size(); ++c) {
    const double comet = d.run_model_us[c * 5 + kComet];
    for (size_t b = 0; b < 4; ++b) {
      const double base = d.run_model_us[c * 5 + b];
      if (base > 0.0 && comet > 0.0) {
        sum[b] += 100.0 * (1.0 - comet / base);
        n[b] += 1.0;
      }
    }
  }
  for (size_t b = 0; b < 4; ++b) {
    sum[b] = n[b] > 0.0 ? sum[b] / n[b] : 0.0;
  }
  return sum;
}

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

double MeanSpanUs(const SpanRecorder& spans, std::string_view name) {
  const int64_t n = spans.Count(name);
  return n > 0 ? spans.TotalUs(name) / static_cast<double>(n) : 0.0;
}

// Mean host us of the spans named `name` whose id is `id`.
double MeanSpanUs(const SpanRecorder& spans, std::string_view name, int64_t id) {
  double total = 0.0;
  int64_t n = 0;
  for (const Span& s : spans.spans()) {
    if (s.name == name && s.id == id) {
      total += s.DurationUs();
      ++n;
    }
  }
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

}  // namespace

RunResult RunPaperSweep(const RunOptions& run) {
  const ClusterSpec cluster = H800Cluster(8);
  const std::vector<SweepConfig> configs = SweepConfigs();
  RunResult result;

  // setup_s: the executors of every config and the fine-tile layer's
  // routing and plan.
  SetGlobalThreadCount(kThreads);
  result.Set("setup_s", SetupSeconds([&] {
               std::vector<std::unique_ptr<Systems>> built;
               for (size_t c = 0; c < configs.size(); ++c) {
                 built.push_back(std::make_unique<Systems>());
               }
               return std::make_pair(std::move(built), FineWorkload(run.seed));
             }));
  const MoeWorkload fine = FineWorkload(run.seed);

  SpanRecorder untraced(false);
  SpanRecorder spans(run.trace, 1 << 12);
  std::vector<RunSample> passes;
  std::vector<double> plain_pass_s, traced_pass_s;
  PassDurations reference;
  const Clock::time_point measure_start = Clock::now();
  for (int64_t k = 0; k < 2 || SecondsSince(measure_start) < run.seconds;
       ++k) {
    const bool trace_this = run.trace && k % 2 == 1;
    PassStats p = RunPass(configs, fine, cluster, run.seed,
                          trace_this ? spans : untraced, k);
    (trace_this ? traced_pass_s : plain_pass_s).push_back(p.sample.host_s);
    // Every pass simulates the same layers: the simulated durations must
    // repeat bit for bit.
    if (k == 0) {
      reference = p.durations;
    }
    for (size_t i = 0; i < reference.run_model_us.size(); ++i) {
      if (reference.run_model_us[i] >= 0.0) {
        result.Check(BitEqual(p.durations.run_model_us[i],
                              reference.run_model_us[i]));
      }
    }
    for (size_t i = 0; i < reference.fused_us.size(); ++i) {
      result.Check(BitEqual(p.durations.fused_us[i], reference.fused_us[i]));
    }
    passes.push_back(std::move(p.sample));
  }
  SetThroughputMetrics(passes, &result);

  // Correctness oracle: a seeded sample of RunModel calls re-run serially
  // (one thread) on fresh executors must give bit-identical durations.
  SetGlobalThreadCount(1);
  Rng pick(run.seed ^ 0x5eed);
  for (int i = 0; i < kOracleSamples; ++i) {
    const size_t c = static_cast<size_t>(
        pick.UniformInt(0, static_cast<int64_t>(configs.size()) - 1));
    const size_t s = static_cast<size_t>(pick.UniformInt(0, 4));
    Systems systems;
    MoeLayerExecutor* exec = systems.All()[s];
    if (!exec->Supports(configs[c].parallel)) {
      continue;
    }
    ModelRunConfig cfg;
    cfg.model = configs[c].model;
    cfg.parallel = configs[c].parallel;
    cfg.total_tokens = configs[c].tokens;
    cfg.seed = run.seed;
    result.Check(BitEqual(RunModel(*exec, cfg, cluster).total_ms,
                          reference.run_model_us[c * 5 + s]));
  }
  SetGlobalThreadCount(kThreads);
  result.Set("error_rate", static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted));

  if (run.trace) {
    const std::array<double, 4> reduction = MeanReductionPct(reference);
    for (size_t b = 0; b < 4; ++b) {
      result.Set("sim.mean_latency_reduction_vs_" +
                     std::string(kBaselineKeys[b]) + "_pct",
                 reduction[b]);
      result.Set("baselines." + std::string(kBaselineKeys[b]) + "_us",
                 MeanSpanUs(spans, kSystemSpans[b]));
    }
    result.Set("runtime.run_model_us", MeanSpanUs(spans, "runtime.run_model"));
    result.Set("core.fused_l0_sim_us", MeanSpanUs(spans, "core.fused_l0_sim"));
    result.Set("core.fused_l1_sim_us", MeanSpanUs(spans, "core.fused_l1_sim"));
    for (const int64_t tile : {8, 16, 32}) {
      const std::string t = std::to_string(tile);
      result.Set("core.fused_l0_sim_t" + t + "_us",
                 MeanSpanUs(spans, "core.fused_l0_sim_fine", tile));
      result.Set("core.fused_l1_sim_t" + t + "_us",
                 MeanSpanUs(spans, "core.fused_l1_sim_fine", tile));
    }

    // Leaf layers of the timing plane, timed directly on the fine workload.
    const ModelConfig model = Mixtral8x7B();
    const RankPlan& plan = fine.plan.ForRank(0);
    constexpr int kReps = 20;
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      const Layer0Schedule l0 =
          BuildLayer0Schedule(plan, 0, 8, model.ffn_hidden, 128, 128, true);
      const Layer1Schedule l1 =
          BuildLayer1Schedule(plan, model.embedding, 128, 128, true);
      spans.Add("core.schedule_build", t0, Clock::now(), -1, i);
      t0 = Clock::now();
    }
    result.Set("core.schedule_build_us", MeanSpanUs(spans, "core.schedule_build"));
    Rng load_rng(run.seed);
    SyntheticRouter router(
        load_rng.LoadVectorWithStd(static_cast<size_t>(model.num_experts), 0.0),
        run.seed);
    t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      const RoutingTable table = router.Route(kFineTokens, model.topk);
      spans.Add("moe.synthetic_route", t0, Clock::now(), -1, i);
      t0 = Clock::now();
    }
    result.Set("moe.synthetic_route_us", MeanSpanUs(spans, "moe.synthetic_route"));

    const double plain = Mean(plain_pass_s);
    result.Set("trace.overhead_pct",
               100.0 * (Mean(traced_pass_s) - plain) / plain);
    spans.WriteChromeTrace(run.out_dir + "/" + run.workload + ".trace.json");
  }
  return result;
}

}  // namespace perfbench
