// Figure 10: single MoE layer duration vs input token length.
//
// Setup: expert parallelism EP = 8 (TP = 1), Mixtral expert shapes, H800x8.
// Left panel E = 8 / topk = 2; right panel E = 32 / topk = 4. M sweeps
// 2048..32768 (each device holds M/W tokens before dispatch). Paper: COMET
// achieves 1.28x-2.37x speedup over the baselines on average, most prominent
// at small M where host-side scheduling dominates kernel-per-op systems.
#include "bench/bench_common.h"
#include "util/stats.h"

using namespace comet;
using namespace comet::bench;

namespace {

void RunPanel(BenchReporter& reporter, int64_t experts, int64_t topk) {
  ModelConfig model = Mixtral8x7B();
  model.num_experts = experts;
  model.topk = topk;
  const ParallelConfig parallel{1, 8};
  const auto cluster = H800Cluster(8);

  std::cout << "--- E=" << experts << ", topk=" << topk
            << " (durations in ms) ---\n";
  AsciiTable table({"M", "Megatron-TE", "Megatron-Cutlass", "FasterMoE",
                    "Tutel", "Comet", "best-baseline/Comet"});
  const std::string panel =
      "E=" + std::to_string(experts) + ",topk=" + std::to_string(topk) + "/";
  SystemSet systems;
  std::vector<double> speedups;
  for (int64_t m : {2048, 4096, 8192, 16384, 32768}) {
    const MoeWorkload workload = TimedWorkload(model, parallel, m);
    std::vector<std::string> row = {std::to_string(m)};
    const std::string prefix = panel + "M=" + std::to_string(m) + "/";
    double best_baseline = 0.0;
    double comet_us = 0.0;
    std::vector<double> baseline_us;
    for (MoeLayerExecutor* exec : systems.All()) {
      const LayerExecution run =
          exec->Run(workload, cluster, ExecMode::kTimedOnly);
      row.push_back(FormatUsAsMs(run.duration_us));
      reporter.Report(prefix + exec->name() + "_ms", run.duration_us / 1000.0,
                      "ms");
      if (exec == &systems.comet) {
        comet_us = run.duration_us;
      } else {
        baseline_us.push_back(run.duration_us);
      }
    }
    best_baseline = *std::min_element(baseline_us.begin(), baseline_us.end());
    row.push_back(FormatSpeedup(best_baseline / comet_us));
    reporter.Report(prefix + "best_baseline_speedup", best_baseline / comet_us,
                    "x");
    for (double b : baseline_us) {
      speedups.push_back(b / comet_us);
    }
    table.AddRow(std::move(row));
  }
  std::cout << table.Render();
  const double min = *std::min_element(speedups.begin(), speedups.end());
  const double mean = GeometricMean(speedups);
  const double max = *std::max_element(speedups.begin(), speedups.end());
  std::cout << "speedup vs baselines: min " << FormatSpeedup(min) << ", mean "
            << FormatSpeedup(mean) << ", max " << FormatSpeedup(max) << "\n\n";
  reporter.Report(panel + "speedup_min", min, "x");
  reporter.Report(panel + "speedup_mean", mean, "x");
  reporter.Report(panel + "speedup_max", max, "x");
}

}  // namespace

REGISTER_BENCH(fig10_token_length, "Figure 10: MoE layer duration vs input token length") {
  PrintHeader("Figure 10: single MoE layer duration vs token length",
              "EP=8 TP=1, Mixtral expert shapes, H800x8");
  RunPanel(reporter, 8, 2);
  RunPanel(reporter, 32, 4);
  PrintPaperNote("Comet achieves 1.28x to 2.37x speedup vs baselines on "
                 "average across M; advantage most prominent at small M.");
  return 0;
}
