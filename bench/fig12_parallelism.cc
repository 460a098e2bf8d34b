// Figure 12: single MoE layer duration under the four hybrid parallelisms
// with EP x TP = 8 (E=8, topk=2, M=8192, Mixtral shapes, H800x8).
//
// Paper observations: baselines slow down as TP grows (each expert's GEMMs
// fragment into smaller, less efficient problems and the TP reduce-scatter
// serializes), FasterMoE cannot run TP > 1 at all, and COMET stays low
// across all parallelisms.
#include "bench/bench_common.h"

using namespace comet;
using namespace comet::bench;

REGISTER_BENCH(fig12_parallelism, "Figure 12: MoE layer duration across hybrid parallelisms") {
  ModelConfig model = Mixtral8x7B();
  model.num_experts = 8;
  model.topk = 2;
  const int64_t m_tokens = 8192;
  const auto cluster = H800Cluster(8);

  PrintHeader("Figure 12: MoE layer duration vs parallel strategy",
              "E=8 topk=2 M=8192, H800x8; durations in ms; '-' = unsupported");

  AsciiTable table({"parallelism", "Megatron-TE", "Megatron-Cutlass",
                    "FasterMoE", "Tutel", "Comet"});
  for (const ParallelConfig& parallel :
       std::vector<ParallelConfig>{{1, 8}, {2, 4}, {4, 2}, {8, 1}}) {
    const MoeWorkload workload = TimedWorkload(model, parallel, m_tokens);
    SystemSet systems;
    std::vector<std::string> row = {parallel.ToString()};
    for (MoeLayerExecutor* exec : systems.All()) {
      if (!exec->Supports(parallel)) {
        row.push_back("-");
        continue;
      }
      const LayerExecution run =
          exec->Run(workload, cluster, ExecMode::kTimedOnly);
      row.push_back(FormatUsAsMs(run.duration_us));
      reporter.Report(parallel.ToString() + "/" + exec->name() + "_ms",
                      run.duration_us / 1000.0, "ms");
    }
    table.AddRow(std::move(row));
  }
  std::cout << table.Render() << "\n";
  PrintPaperNote("baseline latency grows with TP (fragmented expert GEMMs); "
                 "Comet maintains low latency across parallelisms.");
  return 0;
}
