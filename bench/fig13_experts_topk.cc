// Figure 13: single MoE layer duration for E in {8, 16} and topk in
// {1, 2, 4, 8} (M=16384, EP=8, TP=1, Mixtral shapes, H800x8).
//
// Paper: duration grows with topk (more routed computation); COMET is
// consistently fastest with speedups between 1.16x and 1.83x.
#include "bench/bench_common.h"
#include "util/stats.h"

using namespace comet;
using namespace comet::bench;

REGISTER_BENCH(fig13_experts_topk, "Figure 13: MoE layer duration vs experts and top-k") {
  const int64_t m_tokens = 16384;
  const ParallelConfig parallel{1, 8};
  const auto cluster = H800Cluster(8);

  PrintHeader("Figure 13: MoE layer duration vs E and topk",
              "M=16384, EP=8 TP=1, Mixtral shapes, H800x8; durations in ms");

  std::vector<double> speedups;
  for (int64_t experts : {8, 16}) {
    std::cout << "--- E=" << experts << " ---\n";
    AsciiTable table({"topk", "Megatron-TE", "Megatron-Cutlass", "FasterMoE",
                      "Tutel", "Comet"});
    for (int64_t topk : {1, 2, 4, 8}) {
      ModelConfig model = Mixtral8x7B();
      model.num_experts = experts;
      model.topk = topk;
      const MoeWorkload workload = TimedWorkload(model, parallel, m_tokens);
      SystemSet systems;
      std::vector<std::string> row = {std::to_string(topk)};
      const std::string prefix = "E=" + std::to_string(experts) +
                                 ",topk=" + std::to_string(topk) + "/";
      double comet_us = 0.0;
      std::vector<double> baselines;
      for (MoeLayerExecutor* exec : systems.All()) {
        const LayerExecution run =
            exec->Run(workload, cluster, ExecMode::kTimedOnly);
        row.push_back(FormatUsAsMs(run.duration_us));
        reporter.Report(prefix + exec->name() + "_ms", run.duration_us / 1000.0,
                        "ms");
        if (exec == &systems.comet) {
          comet_us = run.duration_us;
        } else {
          baselines.push_back(run.duration_us);
        }
      }
      for (double b : baselines) {
        speedups.push_back(b / comet_us);
      }
      table.AddRow(std::move(row));
    }
    std::cout << table.Render() << "\n";
  }
  const double min = *std::min_element(speedups.begin(), speedups.end());
  const double mean = GeometricMean(speedups);
  const double max = *std::max_element(speedups.begin(), speedups.end());
  std::cout << "speedup vs baselines: min " << FormatSpeedup(min) << ", mean "
            << FormatSpeedup(mean) << ", max " << FormatSpeedup(max) << "\n\n";
  reporter.Report("speedup_min", min, "x");
  reporter.Report("speedup_mean", mean, "x");
  reporter.Report("speedup_max", max, "x");
  PrintPaperNote("Comet yields 1.16x to 1.83x speedup across E and topk; "
                 "duration increases with topk.");
  return 0;
}
