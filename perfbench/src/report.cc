#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <numeric>
#include <sstream>

#include "perfbench.h"
#include "util/check.h"

namespace perfbench {

namespace {

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_tokens_per_s", "1/s"},
    {"layer_sims_per_s", "1/s"},
    {"iter_host_us_p50", "us"},
    {"iter_host_us_p99", "us"},
    {"peak_rss_mib", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    // moe/ -- serving data plane, replayed per batch shape
    {"moe.gate_route_us", "us"},
    {"moe.route_plan_us", "us"},
    {"moe.group_gemm_us", "us"},
    {"moe.group_gemm_gflops", "GFLOP/s"},
    {"moe.activation_us", "us"},
    {"moe.synthetic_route_us", "us"},
    // comm/
    {"comm.put_row_ns", "ns"},
    {"comm.copy_row_ns", "ns"},
    {"comm.bytes_moved", "B"},
    // core/ -- executor
    {"core.profile_memo_hits", "count"},
    {"core.profile_memo_misses", "count"},
    {"core.adaptive_sweep_us", "us"},
    {"core.run_batch_timed_us", "us"},
    {"core.run_batch_functional_us", "us"},
    // core/ -- fused-kernel timing model
    {"core.fused_l0_sim_us", "us"},
    {"core.fused_l1_sim_us", "us"},
    {"core.fused_l0_sim_t8_us", "us"},
    {"core.fused_l1_sim_t8_us", "us"},
    {"core.fused_l0_sim_t16_us", "us"},
    {"core.fused_l1_sim_t16_us", "us"},
    {"core.fused_l0_sim_t32_us", "us"},
    {"core.fused_l1_sim_t32_us", "us"},
    {"core.schedule_build_us", "us"},
    // runtime/ and baselines/
    {"runtime.run_model_us", "us"},
    {"baselines.megatron_te_us", "us"},
    {"baselines.megatron_cutlass_us", "us"},
    {"baselines.fastermoe_us", "us"},
    {"baselines.tutel_us", "us"},
    // serve/
    {"serve.offer_us", "us"},
    {"serve.step_us", "us"},
    {"serve.tokens_per_iter", "count"},
    {"serve.padding_frac", "ratio"},
    {"serve.steady_allocs_per_iter", "count"},
    {"serve.sim_ttft_p99_us", "us"},
    {"serve.sim_itl_p99_us", "us"},
    {"serve.sim_tokens_per_s", "1/s"},
    {"serve.slo_attainment", "ratio"},
    // serve/ cluster plane
    {"cluster.run_s", "s"},
    {"cluster.iterations", "count"},
    {"cluster.promotions", "count"},
    {"cluster.retries", "count"},
    {"cluster.hedged", "count"},
    {"cluster.wasted_tokens", "count"},
    {"cluster.replicas_recovered", "count"},
    {"cluster.requests_lost", "count"},
    // simulated-clock fidelity headlines (paper: 34.1 / 42.6 / 44.4 / 31.8)
    {"sim.mean_latency_reduction_vs_megatron_cutlass_pct", "%"},
    {"sim.mean_latency_reduction_vs_megatron_te_pct", "%"},
    {"sim.mean_latency_reduction_vs_fastermoe_pct", "%"},
    {"sim.mean_latency_reduction_vs_tutel_pct", "%"},
    // the trace itself, machine calibration, failures
    {"trace.coverage", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.gate_heap_share", "ratio"},
    {"trace.gemm_activation_share", "ratio"},
    {"calib.gemm_gflops", "GFLOP/s"},
    {"error_rate", "ratio"},
};

// Shortest decimal that round-trips the double: metrics carry all their
// digits.
std::string Number(double v) {
  COMET_CHECK(std::isfinite(v)) << "non-finite metric value";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

}  // namespace

constexpr std::string_view kWorkloads[] = {"serve_decode", "serve_prefill",
                                           "fleet_skew", "paper_sweep"};

std::span<const MetricDef> EndToEndMetrics() { return kEndToEnd; }
std::span<const MetricDef> PerLayerMetrics() { return kPerLayer; }
std::span<const std::string_view> WorkloadNames() { return kWorkloads; }

std::string ResultLine(const RunResult& result, bool trace) {
  std::ostringstream os;
  os << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << std::max<int64_t>(result.attempted, 1)
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    const auto it = result.metrics.find(std::string(def.name));
    double value = 0.0;
    if (it != result.metrics.end()) {
      value = it->second;
    } else {
      COMET_CHECK(trace) << "end-to-end metric " << def.name
                         << " was not measured";
    }
    os << (first ? "" : ", ") << "\"" << def.name << "\": {\"value\": "
       << Number(value) << ", \"unit\": \"" << def.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Mean(std::span<const double> values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::vector<double> PerEvaluationUs(std::span<const RunSample> runs) {
  COMET_CHECK(!runs.empty());
  std::vector<double> out = runs[0].eval_us;
  for (const RunSample& r : runs) {
    COMET_CHECK(r.eval_us.size() == out.size())
        << "runs of the same work made " << out.size() << " and "
        << r.eval_us.size() << " layer evaluations";
    for (size_t k = 0; k < out.size(); ++k) {
      out[k] = std::min(out[k], r.eval_us[k]);
    }
  }
  return out;
}

double DenoisedRunSeconds(std::span<const RunSample> runs) {
  const std::vector<double> eval_us = PerEvaluationUs(runs);
  double outside_s = runs[0].host_s;
  for (const RunSample& r : runs) {
    const double evals_s =
        std::accumulate(r.eval_us.begin(), r.eval_us.end(), 0.0) / 1e6;
    outside_s = std::min(outside_s, std::max(0.0, r.host_s - evals_s));
  }
  return std::accumulate(eval_us.begin(), eval_us.end(), 0.0) / 1e6 + outside_s;
}

void SetThroughputMetrics(std::span<const RunSample> runs, RunResult* result) {
  COMET_CHECK(!runs.empty());
  for (const RunSample& r : runs) {
    COMET_CHECK(r.tokens == runs[0].tokens &&
                r.layer_evals == runs[0].layer_evals)
        << "runs of the same work pushed different token or evaluation counts";
  }
  const double run_s = DenoisedRunSeconds(runs);
  const std::vector<double> eval_us = PerEvaluationUs(runs);
  result->Set("host_tokens_per_s", runs[0].tokens / run_s);
  result->Set("layer_sims_per_s", runs[0].layer_evals / run_s);
  result->Set("iter_host_us_p50", Quantile(eval_us, 0.50));
  result->Set("iter_host_us_p99", Quantile(eval_us, 0.99));
}

double PeakRssMiB() {
  // VmHWM belongs to this process image only; getrusage's ru_maxrss would
  // also count the launcher that forked it (the peak survives exec).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
