// Ablation: adaptive vs fixed thread-block assignment (paper §3.2.2).
//
// The adaptive assigner profiles the nc grid per (model, M, parallelism,
// cluster) and picks the argmin; a fixed division point is whatever constant
// a non-adaptive implementation would hard-code. The penalty of the fixed
// point depends on how far the workload sits from the configuration it was
// tuned for -- exactly the paper's motivation for adaptivity.
#include "bench/bench_common.h"

using namespace comet;
using namespace comet::bench;

REGISTER_BENCH(abl_adaptive, "Ablation: adaptive vs fixed thread-block assignment (paper 3.2.2)") {
  ModelConfig model = Mixtral8x7B();
  model.num_experts = 8;
  model.topk = 2;
  const auto cluster = H800Cluster(8);

  PrintHeader("Ablation: adaptive vs fixed division point",
              "E=8 topk=2 M=8192, H800x8; layer duration in ms");

  AsciiTable table({"parallelism", "adaptive", "nc0/nc1", "fixed nc=8",
                    "fixed nc=32", "fixed nc=64", "adaptive gain vs worst"});
  for (const ParallelConfig& parallel :
       std::vector<ParallelConfig>{{1, 8}, {2, 4}, {4, 2}, {8, 1}}) {
    const MoeWorkload workload = TimedWorkload(model, parallel, 8192);
    CometExecutor adaptive{CometOptions{.adaptive = true}};
    const double adaptive_us =
        adaptive.Run(workload, cluster, ExecMode::kTimedOnly).duration_us;
    std::vector<std::string> row = {parallel.ToString(),
                                    FormatUsAsMs(adaptive_us),
                                    std::to_string(adaptive.last_layer0_comm_blocks()) +
                                        "/" +
                                        std::to_string(adaptive.last_layer1_comm_blocks())};
    double worst = adaptive_us;
    for (int nc : {8, 32, 64}) {
      CometExecutor fixed{
          CometOptions{.adaptive = false, .fixed_comm_blocks = nc}};
      const double fixed_us =
          fixed.Run(workload, cluster, ExecMode::kTimedOnly).duration_us;
      row.push_back(FormatUsAsMs(fixed_us));
      worst = std::max(worst, fixed_us);
    }
    row.push_back(FormatSpeedup(worst / adaptive_us));
    table.AddRow(std::move(row));
    const std::string prefix = parallel.ToString() + "/";
    reporter.Report(prefix + "adaptive_ms", adaptive_us / 1000.0, "ms");
    reporter.Report(prefix + "nc0", adaptive.last_layer0_comm_blocks());
    reporter.Report(prefix + "nc1", adaptive.last_layer1_comm_blocks());
    reporter.Report(prefix + "gain_vs_worst_fixed", worst / adaptive_us, "x");
  }
  std::cout << table.Render() << "\n";
  PrintPaperNote("§3.2.2: no single division point fits all configurations; "
                 "profiled metadata lets the runtime pick per setup.");
  return 0;
}
