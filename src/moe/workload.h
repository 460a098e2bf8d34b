// Workload synthesis: everything an MoE-layer execution needs, reproducible
// from a seed. Used by tests, examples and every bench.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "moe/activation.h"
#include "moe/config.h"
#include "moe/expert_weights.h"
#include "moe/route_plan.h"
#include "moe/router.h"
#include "tensor/tensor.h"

namespace comet {

struct WorkloadOptions {
  uint64_t seed = 1;
  // Target std of the per-expert load fraction (paper Figure 14). 0 routes
  // uniformly in expectation.
  double load_std = 0.0;
  // Storage dtype of the materialized inputs and weights. At kBF16/kF16 the
  // workload is quantized at creation (RNE), so every executor consuming it
  // sees exactly the operands a low-precision training step would. Executors
  // must be asked to compute at the same dtype (CometOptions::compute_dtype).
  DType dtype = DType::kF32;
  // When false, only the routing/plan metadata is built: inputs stay empty
  // and weights null. Timing-plane runs never touch tensor contents, and at
  // paper-scale shapes materializing them costs gigabytes; benches use
  // materialize = false, functional tests the default.
  bool materialize = true;
};

// A fully-specified single-MoE-layer problem instance.
struct MoeWorkload {
  Placement placement;
  RoutingTable routing;
  RoutePlan plan;
  // One input tensor per EP group, (M/EP, N); TP lanes replicate it.
  std::vector<Tensor> inputs;
  std::shared_ptr<const ExpertWeights> weights;
  std::shared_ptr<const ShardedExpertWeights> sharded_weights;
  ActivationKind activation = ActivationKind::kGelu;

  const ModelConfig& model() const { return placement.model(); }
  int world() const { return placement.world(); }
  // Storage dtype of the materialized tensors (kF32 for timing-plane
  // workloads, which have none). The dtype-parameterized references default
  // their compute dtype to this.
  DType dtype() const {
    return inputs.empty() ? DType::kF32 : inputs[0].dtype();
  }

  // Row of the global token matrix for global token id `t`.
  std::span<const float> TokenRow(int64_t t) const;
};

// Builds a workload for `total_tokens` tokens of `model` under `parallel`.
MoeWorkload MakeWorkload(const ModelConfig& model,
                         const ParallelConfig& parallel, int64_t total_tokens,
                         const WorkloadOptions& options = {});

// Variant reusing existing weights (e.g. layer stacking in examples).
MoeWorkload MakeWorkloadWithWeights(
    const ModelConfig& model, const ParallelConfig& parallel,
    int64_t total_tokens, std::shared_ptr<const ExpertWeights> weights,
    std::shared_ptr<const ShardedExpertWeights> sharded,
    const WorkloadOptions& options = {});

}  // namespace comet
