// Scenario: a multi-layer MoE model with content-dependent gate routing,
// executed functionally through COMET layer by layer. Shows that (a) routing
// really changes per layer because each layer gates on the previous layer's
// activations, (b) the whole stack is bit-exact against the sharded
// reference, and (c) one communication buffer serves every layer (Table 3).
//
//   $ ./examples/moe_stack [layers] [tokens]
#include <cstdlib>
#include <iostream>

#include "core/comet_executor.h"
#include "runtime/moe_model.h"
#include "util/table.h"

using namespace comet;

int main(int argc, char** argv) {
  const int64_t layers = argc > 1 ? std::atoll(argv[1]) : 4;
  const int64_t tokens = argc > 2 ? std::atoll(argv[2]) : 64;

  ModelConfig model;
  model.name = "moe-stack";
  model.layers = layers;
  model.num_experts = 8;
  model.topk = 2;
  model.embedding = 64;
  model.ffn_hidden = 128;
  const ParallelConfig parallel{/*tp=*/2, /*ep=*/2};

  const MoeModel stack(model, parallel, tokens);
  const auto inputs = stack.MakeInputs(11);

  std::cout << "MoE stack: " << layers << " layers, " << tokens
            << " tokens, " << parallel.ToString() << "\n";
  std::cout << "shared NVSHMEM buffer: " << stack.comm_plan().MiBs()
            << " MiB for the whole stack (independent of L, E, topk)\n\n";

  // Per-layer expert load profile: routing follows the activations, so the
  // loads shift from layer to layer.
  CometExecutor comet;
  AsciiTable table({"layer", "expert loads (pairs)", "load std"});
  std::vector<Tensor> acts = inputs;
  std::vector<int64_t> counts;
  for (int64_t l = 0; l < layers; ++l) {
    const MoeWorkload w = stack.LayerWorkload(l, acts);
    w.routing.ExpertLoadsInto(model.num_experts, &counts);
    std::string loads;
    for (int64_t c : counts) {
      if (!loads.empty()) {
        loads += ' ';
      }
      loads += std::to_string(c);
    }
    table.AddRow({std::to_string(l), loads,
                  FormatDouble(w.routing.LoadStd(model.num_experts), 4)});
    auto run = comet.Run(w, H800Cluster(parallel.world()),
                         ExecMode::kFunctional);
    for (size_t g = 0; g < run.outputs.size(); ++g) {
      auto out = run.outputs[g].data();
      const auto res = acts[g].data();
      for (size_t i = 0; i < out.size(); ++i) {
        out[i] += res[i];
      }
    }
    acts = std::move(run.outputs);
  }

  const auto got = stack.Forward(comet, H800Cluster(parallel.world()), inputs);
  const auto expected = stack.ReferenceForward(inputs);
  float max_diff = 0.0f;
  for (size_t g = 0; g < got.size(); ++g) {
    max_diff = std::max(max_diff, Tensor::MaxAbsDiff(got[g], expected[g]));
  }
  std::cout << table.Render() << "\n";
  std::cout << "max |comet - reference| over " << layers
            << " stacked layers: " << max_diff << (max_diff == 0.0f
            ? " (bit-exact)\n" : "\n");
  return max_diff == 0.0f ? 0 : 1;
}
