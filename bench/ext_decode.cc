// Extension experiment: inference decode (tiny M). Autoregressive decoding
// feeds a handful of tokens per device per step, so the MoE layer is
// dominated by host-side kernel launches and fixed communication latencies
// -- the regime the paper calls out in §5.3 ("the advantage of COMET is
// prominent especially when M is small ... scheduling time on the host side
// predominates"). COMET's single fused kernel per pipeline collapses that
// overhead.
#include "bench/bench_common.h"

using namespace comet;
using namespace comet::bench;

REGISTER_BENCH(ext_decode, "Extension: inference decode (tiny M) latency") {
  ModelConfig model = Mixtral8x7B();
  model.num_experts = 8;
  model.topk = 2;
  const ParallelConfig parallel{1, 8};
  const auto cluster = H800Cluster(8);

  PrintHeader("Extension: decode-size batches (small M)",
              "Mixtral experts, E=8 topk=2, EP=8, H800x8; times in us");

  AsciiTable table({"M (global)", "tokens/GPU", "Megatron-TE", "Megatron",
                    "FasterMoE", "Tutel", "Comet", "best-baseline speedup"});
  for (const int64_t m : {8, 32, 128, 512, 2048}) {
    const MoeWorkload w = TimedWorkload(model, parallel, m);
    SystemSet systems;
    double best_baseline = 1e300;
    std::vector<std::string> row{std::to_string(m), std::to_string(m / 8)};
    const std::string prefix = "M=" + std::to_string(m) + "/";
    double comet_us = 0.0;
    for (MoeLayerExecutor* exec : systems.All()) {
      const double us =
          exec->Run(w, cluster, ExecMode::kTimedOnly).duration_us;
      row.push_back(FormatDouble(us, 1));
      reporter.Report(prefix + exec->name() + "_us", us, "us");
      if (exec == &systems.comet) {
        comet_us = us;
      } else {
        best_baseline = std::min(best_baseline, us);
      }
    }
    row.push_back(FormatSpeedup(best_baseline / comet_us));
    reporter.Report(prefix + "speedup_vs_best_baseline",
                    best_baseline / comet_us, "x");
    table.AddRow(std::move(row));
  }
  std::cout << table.Render() << "\n";
  PrintPaperNote(
      "extends Fig. 10 leftward: the paper reports up to 2.37x at its "
      "smallest M (2048); at decode sizes the launch-overhead gap widens "
      "further.");
  return 0;
}
