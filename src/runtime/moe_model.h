// A functional stack of L MoE layers (the MoE half of a transformer).
//
// Each layer owns its expert weights and a learned gate; layer l's combined
// output (plus a residual connection, matching the transformer block
// structure) feeds layer l+1's gate and experts, so routing is CONTENT
// dependent and changes layer to layer -- unlike the synthetic single-layer
// workloads, this exercises the full gate -> dispatch -> experts -> combine
// chain repeatedly through one executor.
//
// The communication buffer is planned once for the whole stack
// (comm/memory_planner): the paper's Table 3 point that the NVSHMEM buffer
// "is shared across layers and experts", making its footprint independent of
// L, E and topk.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "comm/memory_planner.h"
#include "exec/execution.h"
#include "moe/workload.h"

namespace comet {

struct MoeModelOptions {
  uint64_t seed = 1;
};

class MoeModel {
 public:
  MoeModel(const ModelConfig& model, const ParallelConfig& parallel,
           int64_t total_tokens, const MoeModelOptions& options = {});

  const ModelConfig& model() const { return model_; }
  int64_t num_layers() const { return model_.layers; }
  const CommBufferPlan& comm_plan() const { return comm_plan_; }

  // Random iid N(0,1) inputs, one (M/EP, N) tensor per EP group.
  std::vector<Tensor> MakeInputs(uint64_t seed) const;

  // Builds layer `layer`'s fully-routed workload for the given activations
  // (gate routing computed from the actual token contents).
  MoeWorkload LayerWorkload(int64_t layer,
                            const std::vector<Tensor>& activations) const;

  // Functional forward of the whole stack through `executor`.
  std::vector<Tensor> Forward(MoeLayerExecutor& executor,
                              const ClusterSpec& cluster,
                              const std::vector<Tensor>& inputs) const;

  // Ground truth through the sharded reference layer.
  std::vector<Tensor> ReferenceForward(const std::vector<Tensor>& inputs) const;

 private:
  // out_l = in_l + moe_l(in_l), group by group.
  static std::vector<Tensor> AddResidual(const std::vector<Tensor>& in,
                                         std::vector<Tensor> layer_out);

  ModelConfig model_;
  ParallelConfig parallel_;
  int64_t total_tokens_;
  CommBufferPlan comm_plan_;
  // Per layer.
  std::vector<std::shared_ptr<const ExpertWeights>> weights_;
  std::vector<std::shared_ptr<const ShardedExpertWeights>> sharded_;
  std::vector<Tensor> gate_weights_;  // (N, E)
};

}  // namespace comet
