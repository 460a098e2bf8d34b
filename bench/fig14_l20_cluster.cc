// Figure 14 (right): scaling to a bandwidth-limited cluster -- 8x L20 over
// PCIe (~25 GB/s GPU-to-GPU as the paper measures).
//
// Setup: E=8, topk=4, M=8192, EP x TP = 8. Paper: COMET's average speedup on
// L20 is 1.19x to 1.46x vs the baselines.
#include "bench/bench_common.h"
#include "util/stats.h"

using namespace comet;
using namespace comet::bench;

REGISTER_BENCH(fig14_l20_cluster, "Figure 14 (right): bandwidth-limited 8x L20 cluster") {
  ModelConfig model = Mixtral8x7B();
  model.num_experts = 8;
  model.topk = 4;
  const int64_t m_tokens = 8192;
  const auto cluster = L20Cluster(8);

  PrintHeader("Figure 14 (right): MoE layer duration on the L20/PCIe cluster",
              "E=8 topk=4 M=8192, L20x8 (PCIe ~25 GB/s); durations in ms; "
              "'-' = unsupported");

  AsciiTable table({"parallelism", "Megatron-TE", "Megatron-Cutlass",
                    "FasterMoE", "Tutel", "Comet"});
  std::vector<double> speedups;
  for (const ParallelConfig& parallel :
       std::vector<ParallelConfig>{{1, 8}, {2, 4}, {4, 2}, {8, 1}}) {
    const MoeWorkload workload = TimedWorkload(model, parallel, m_tokens);
    SystemSet systems;
    std::vector<std::string> row = {parallel.ToString()};
    double comet_us = 0.0;
    std::vector<double> baselines;
    for (MoeLayerExecutor* exec : systems.All()) {
      if (!exec->Supports(parallel)) {
        row.push_back("-");
        continue;
      }
      const LayerExecution run =
          exec->Run(workload, cluster, ExecMode::kTimedOnly);
      row.push_back(FormatUsAsMs(run.duration_us));
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
  std::cout << table.Render();
  const double min_speedup =
      *std::min_element(speedups.begin(), speedups.end());
  const double mean_speedup = GeometricMean(speedups);
  const double max_speedup =
      *std::max_element(speedups.begin(), speedups.end());
  std::cout << "\nspeedup vs baselines: min " << FormatSpeedup(min_speedup)
            << ", mean " << FormatSpeedup(mean_speedup) << ", max "
            << FormatSpeedup(max_speedup) << "\n\n";
  reporter.Report("speedup_min", min_speedup, "x");
  reporter.Report("speedup_mean", mean_speedup, "x");
  reporter.Report("speedup_max", max_speedup, "x");
  PrintPaperNote("average speedup of Comet on the L20 cluster ranges from "
                 "1.19x to 1.46x vs the baselines.");
  return 0;
}
