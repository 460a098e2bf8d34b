// Scenario: a Mixtral-8x7B forward pass on an 8x H800 node, comparing COMET
// against the four baseline MoE systems -- the paper's Figure 9 workload as
// a library user would run it.
//
//   $ ./examples/mixtral_training_step [tokens] [trace.json]
//
// When a trace path is given, COMET's MoE-layer timeline is exported in
// Chrome Trace Event Format -- open it in chrome://tracing or Perfetto to
// see the tile/transfer overlap.
#include <cstdlib>
#include <iostream>

#include "baselines/fastermoe.h"
#include "baselines/megatron.h"
#include "baselines/tutel.h"
#include "core/comet_executor.h"
#include "obs/exporters.h"
#include "runtime/model_runner.h"
#include "sim/trace_export.h"
#include "util/table.h"

using namespace comet;

int main(int argc, char** argv) {
  const int64_t tokens = argc > 1 ? std::atoll(argv[1]) : 8192;

  ModelRunConfig config;
  config.model = Mixtral8x7B();
  config.parallel = ParallelConfig{/*tp=*/1, /*ep=*/8};
  config.total_tokens = tokens;
  config.load_std = 0.032;  // production-average expert imbalance
  const ClusterSpec cluster = H800Cluster(8);

  std::cout << "Mixtral-8x7B forward pass, M=" << tokens << ", "
            << config.parallel.ToString() << ", " << cluster.name << "\n\n";

  MegatronExecutor cutlass = MakeMegatronCutlass();
  MegatronExecutor te = MakeMegatronTe();
  FasterMoeExecutor fastermoe;
  TutelExecutor tutel;
  CometExecutor comet;

  AsciiTable table({"system", "model (ms)", "MoE layers (ms)",
                    "MoE layer (ms)", "hidden comm"});
  double comet_ms = 0.0;
  double best_baseline_ms = 1e300;
  for (MoeLayerExecutor* exec :
       std::initializer_list<MoeLayerExecutor*>{&te, &cutlass, &fastermoe,
                                                &tutel, &comet}) {
    const ModelRunResult run = RunModel(*exec, config, cluster);
    table.AddRow({exec->name(), FormatDouble(run.total_ms, 1),
                  FormatDouble(run.moe_only_ms, 1),
                  FormatUsAsMs(run.moe_us),
                  FormatPercent(run.moe_layer.timeline.HiddenCommFraction())});
    if (exec == &comet) {
      comet_ms = run.total_ms;
      if (argc > 2) {
        obs::WriteTextFile(argv[2], ToChromeTraceJson(run.moe_layer.timeline,
                                                      "comet-moe-layer"));
        std::cout << "wrote Chrome trace of the COMET MoE layer to "
                  << argv[2] << "\n";
      }
    } else {
      best_baseline_ms = std::min(best_baseline_ms, run.total_ms);
    }
  }
  std::cout << table.Render() << "\n";
  std::cout << "Comet speedup vs best baseline: "
            << FormatSpeedup(best_baseline_ms / comet_ms) << "\n";
  return 0;
}
