// Backward pass of one MoE layer (training; the paper's production use).
//
// Given the loss gradient w.r.t. the combined layer output, produce:
//   * dinput  -- gradient w.r.t. the token inputs (flows to the previous
//     transformer block),
//   * dW0/dW1 -- weight gradients for every expert,
//   * dgate   -- gradient w.r.t. the topk combine weights (flows into the
//     gate's softmax backward, which lives outside the MoE layer proper).
//
// The data-flow mirror of the forward (paper Figure 2 reversed):
//   combine-grad DISPATCH (all-to-all of dY rows to the experts' ranks)
//     -> layer1 dgrad GEMM (dZ = dY W1^T) + layer1 wgrad (dW1 = Z^T dY)
//     -> activation backward (dH = dZ * act'(H))
//     -> layer0 dgrad GEMM (dA = dH W0^T) + layer0 wgrad (dW0 = A^T dH)
//     -> UNDISPATCH (all-to-all of dA rows back to the tokens' home ranks,
//        summed over topk slots).
// So backward has the same two producer-consumer pipelines as forward, with
// the roles of the two shared tensors swapped -- which is why COMET's
// dependency resolving applies unchanged (core/comet_backward).
//
// Two references, mirroring moe/reference_layer:
//   * ReferenceMoeBackward      -- full unsharded weights, the gold standard.
//   * ShardedReferenceMoeBackward -- through the TP shards with the canonical
//     accumulation order (topk slot-major, then TP lane-major). Distributed
//     backward executors must match this BIT-EXACTLY.
#pragma once

#include <vector>

#include "moe/reference_layer.h"
#include "moe/workload.h"
#include "tensor/tensor.h"

namespace comet {

// Gradients of one MoE layer. Weight gradients are always materialized at
// full (unsharded) shape; sharded executors write disjoint column/row blocks
// so assembly is exact.
struct MoeGradients {
  // Per EP group, (M/EP, N): gradient w.r.t. the group's input tokens.
  std::vector<Tensor> dinput;
  // Per expert: dW0 (N, K) and dW1 (K, N).
  std::vector<Tensor> dw0;
  std::vector<Tensor> dw1;
  // (M, topk): gradient w.r.t. each token's combine weights.
  Tensor dgate;
};

// Per-expert tensors stashed by the forward pass that backward consumes.
// `hidden_pre` holds the layer0 GEMM output BEFORE the activation, and
// `hidden_post` after (both (m_e, K) full / (m_e, K/TP) per shard). Row
// order matches GatherExpertBatch (token-ascending).
struct ExpertForwardStash {
  ExpertBatch batch;
  Tensor hidden_pre;
  Tensor hidden_post;
  // Layer1 output Y_e = hidden_post W1 (m_e, N); needed for dgate.
  Tensor output;
};

// Runs the dense forward for `expert` and stashes everything backward needs.
ExpertForwardStash ForwardWithStash(const MoeWorkload& workload,
                                    int64_t expert);

// dout: one (M/EP, N) tensor per EP group (same layout the forward emits).
// Always computes in full f32 (the precision yardstick; cf.
// ReferenceMoeLayer).
MoeGradients ReferenceMoeBackward(const MoeWorkload& workload,
                                  const std::vector<Tensor>& dout);

// Sharded reference at `compute_dtype` (1-arg-less overload: the workload's
// storage dtype). Rounding points at a 2-byte dtype, mirrored exactly by
// CometBackward's functional plane: dY = round(weight * dout) per element;
// dgrad GEMM and activation-backward outputs round on store; dinput rows
// round once after the canonical (slot-major, lane-inner) reduction. Weight
// gradients and dgate stay f32 -- mixed-precision training keeps main grads
// in full precision.
MoeGradients ShardedReferenceMoeBackward(const MoeWorkload& workload,
                                         const std::vector<Tensor>& dout);
MoeGradients ShardedReferenceMoeBackward(const MoeWorkload& workload,
                                         const std::vector<Tensor>& dout,
                                         DType compute_dtype);

}  // namespace comet
