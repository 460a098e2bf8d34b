#include "moe/workload.h"

#include "util/check.h"

namespace comet {
namespace {

// Std of the materialized input activations and expert weights.
constexpr float kInputStddev = 1.0f;
constexpr float kWeightStddev = 0.05f;

}  // namespace

std::span<const float> MoeWorkload::TokenRow(int64_t t) const {
  const int home = placement.HomeGroupOfToken(t);
  const int64_t local_row = t - placement.FirstTokenOfGroup(home);
  return inputs[static_cast<size_t>(home)].row(local_row);
}

MoeWorkload MakeWorkloadWithWeights(
    const ModelConfig& model, const ParallelConfig& parallel,
    int64_t total_tokens, std::shared_ptr<const ExpertWeights> weights,
    std::shared_ptr<const ShardedExpertWeights> sharded,
    const WorkloadOptions& options) {
  COMET_CHECK(!options.materialize || weights != nullptr);
  COMET_CHECK(!options.materialize || sharded != nullptr);
  Placement placement(model, parallel, total_tokens);

  Rng rng(options.seed);
  SyntheticRouter router(
      rng.LoadVectorWithStd(static_cast<size_t>(model.num_experts),
                            options.load_std),
      options.seed ^ 0x9e3779b97f4a7c15ULL);
  RoutingTable routing = router.Route(total_tokens, model.topk);

  std::vector<Tensor> inputs;
  if (options.materialize) {
    inputs.reserve(static_cast<size_t>(parallel.ep));
    for (int g = 0; g < parallel.ep; ++g) {
      inputs.push_back(Tensor::Randn(
          Shape{placement.tokens_per_group(), model.embedding}, rng,
          kInputStddev, options.dtype));
    }
  }

  RoutePlan plan(placement, routing);
  return MoeWorkload{std::move(placement), std::move(routing),
                     std::move(plan),      std::move(inputs),
                     std::move(weights),   std::move(sharded)};
}

MoeWorkload MakeWorkload(const ModelConfig& model,
                         const ParallelConfig& parallel, int64_t total_tokens,
                         const WorkloadOptions& options) {
  std::shared_ptr<ExpertWeights> weights;
  std::shared_ptr<ShardedExpertWeights> sharded;
  if (options.materialize) {
    Rng weight_rng(options.seed + 17);
    // Weights are drawn in f32 and then quantized, so the f32 and 2-byte
    // variants of one seed share the same underlying draw (the bf16 weights
    // ARE the rounded f32 weights -- what the precision tier compares).
    weights = std::make_shared<ExpertWeights>(ExpertWeights::Random(
        model, weight_rng, kWeightStddev, options.dtype));
    sharded = std::make_shared<ShardedExpertWeights>(*weights, parallel.tp);
  }
  return MakeWorkloadWithWeights(model, parallel, total_tokens,
                                 std::move(weights), std::move(sharded),
                                 options);
}

}  // namespace comet
