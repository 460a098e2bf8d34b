// Scenario: expert load imbalance in production training (paper §5.4,
// Figure 14-left). Generates routing tables at increasing imbalance, shows
// the realized per-expert loads, and how COMET's latency and the adaptive
// division point respond.
//
//   $ ./examples/imbalanced_routing
#include <iostream>

#include "core/comet_executor.h"
#include "util/table.h"

using namespace comet;

int main() {
  ModelConfig model = Mixtral8x7B();
  const ParallelConfig parallel{/*tp=*/1, /*ep=*/8};
  const int64_t tokens = 8192;
  const ClusterSpec cluster = H800Cluster(8);

  std::cout << "expert-load imbalance study: " << model.name << ", M="
            << tokens << ", " << parallel.ToString() << "\n\n";

  AsciiTable table({"target std", "achieved std", "min load", "max load",
                    "Comet (ms)", "hidden comm"});
  std::vector<int64_t> loads;
  for (double std_target : {0.0, 0.01, 0.032, 0.05}) {
    WorkloadOptions options;
    options.seed = 7;
    options.load_std = std_target;
    options.materialize = false;
    const MoeWorkload w = MakeWorkload(model, parallel, tokens, options);

    w.routing.ExpertLoadsInto(model.num_experts, &loads);
    int64_t lo = loads[0];
    int64_t hi = loads[0];
    for (int64_t l : loads) {
      lo = std::min(lo, l);
      hi = std::max(hi, l);
    }

    CometExecutor comet;
    const LayerExecution run = comet.Run(w, cluster, ExecMode::kTimedOnly);
    table.AddRow({FormatDouble(std_target, 3),
                  FormatDouble(w.routing.LoadStd(model.num_experts), 3),
                  std::to_string(lo), std::to_string(hi),
                  FormatUsAsMs(run.duration_us),
                  FormatPercent(run.timeline.HiddenCommFraction())});
  }
  std::cout << table.Render() << "\n";
  std::cout << "note: paper reports std = 0.032 as the production average;\n"
               "the busiest rank sets the layer's critical path, so latency\n"
               "grows with imbalance even though total work is constant.\n";
  return 0;
}
