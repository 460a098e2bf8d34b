#include "runtime/moe_model.h"

#include "moe/reference_layer.h"
#include "moe/router.h"
#include "util/check.h"
#include "util/rng.h"

namespace comet {

MoeModel::MoeModel(const ModelConfig& model, const ParallelConfig& parallel,
                   int64_t total_tokens, const MoeModelOptions& options)
    : model_(model),
      parallel_(parallel),
      total_tokens_(total_tokens),
      comm_plan_(PlanCommBuffer(total_tokens, model.embedding)) {
  COMET_CHECK_GT(model_.layers, 0);
  COMET_CHECK_GT(total_tokens_, 0);
  COMET_CHECK_EQ(total_tokens_ % parallel_.ep, 0)
      << "tokens must shard evenly across EP groups";
  Rng rng(options.seed * 7919 + 13);
  weights_.reserve(static_cast<size_t>(model_.layers));
  sharded_.reserve(static_cast<size_t>(model_.layers));
  gate_weights_.reserve(static_cast<size_t>(model_.layers));
  for (int64_t l = 0; l < model_.layers; ++l) {
    auto w = std::make_shared<ExpertWeights>(
        ExpertWeights::Random(model_, rng));
    sharded_.push_back(
        std::make_shared<ShardedExpertWeights>(*w, parallel_.tp));
    weights_.push_back(std::move(w));
    gate_weights_.push_back(Tensor::Randn(
        Shape{model_.embedding, model_.num_experts}, rng, 0.5f));
  }
}

std::vector<Tensor> MoeModel::MakeInputs(uint64_t seed) const {
  Rng rng(seed);
  const Placement placement(model_, parallel_, total_tokens_);
  std::vector<Tensor> inputs;
  inputs.reserve(static_cast<size_t>(parallel_.ep));
  for (int g = 0; g < parallel_.ep; ++g) {
    inputs.push_back(Tensor::Randn(
        Shape{placement.tokens_per_group(), model_.embedding}, rng));
  }
  return inputs;
}

MoeWorkload MoeModel::LayerWorkload(
    int64_t layer, const std::vector<Tensor>& activations) const {
  COMET_CHECK_GE(layer, 0);
  COMET_CHECK_LT(layer, model_.layers);
  COMET_CHECK_EQ(static_cast<int>(activations.size()), parallel_.ep);
  Placement placement(model_, parallel_, total_tokens_);

  // Gate on the ACTUAL activations: stack the groups into the global token
  // matrix (token id order) and route.
  Tensor global(Shape{total_tokens_, model_.embedding});
  for (int g = 0; g < parallel_.ep; ++g) {
    const Tensor& part = activations[static_cast<size_t>(g)];
    COMET_CHECK_EQ(part.rows(), placement.tokens_per_group());
    COMET_CHECK_EQ(part.cols(), model_.embedding);
    const int64_t base = placement.FirstTokenOfGroup(g);
    for (int64_t r = 0; r < part.rows(); ++r) {
      global.SetRow(base + r, part.row(r));
    }
  }
  const GateNetwork gate(gate_weights_[static_cast<size_t>(layer)]);
  RoutingTable routing = gate.Route(global, model_.topk);

  RoutePlan plan(placement, routing);
  return MoeWorkload{std::move(placement),
                     std::move(routing),
                     std::move(plan),
                     activations,
                     weights_[static_cast<size_t>(layer)],
                     sharded_[static_cast<size_t>(layer)]};
}

std::vector<Tensor> MoeModel::AddResidual(const std::vector<Tensor>& in,
                                          std::vector<Tensor> layer_out) {
  for (size_t g = 0; g < layer_out.size(); ++g) {
    auto out = layer_out[g].data();
    const auto res = in[g].data();
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] += res[i];
    }
  }
  return layer_out;
}

std::vector<Tensor> MoeModel::Forward(MoeLayerExecutor& executor,
                                      const ClusterSpec& cluster,
                                      const std::vector<Tensor>& inputs) const {
  std::vector<Tensor> current = inputs;
  for (int64_t l = 0; l < model_.layers; ++l) {
    const MoeWorkload w = LayerWorkload(l, current);
    LayerExecution run = executor.Run(w, cluster, ExecMode::kFunctional);
    COMET_CHECK_EQ(run.outputs.size(), current.size());
    current = AddResidual(current, std::move(run.outputs));
  }
  return current;
}

std::vector<Tensor> MoeModel::ReferenceForward(
    const std::vector<Tensor>& inputs) const {
  std::vector<Tensor> current = inputs;
  for (int64_t l = 0; l < model_.layers; ++l) {
    const MoeWorkload w = LayerWorkload(l, current);
    current = AddResidual(current, ShardedReferenceMoeLayer(w));
  }
  return current;
}

}  // namespace comet
