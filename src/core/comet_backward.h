// COMET-scheduled backward pass of one MoE layer (training).
//
// The backward data flow is the exact structural mirror of the forward
// (moe/backward.h): the combine-grad dispatch followed by the layer1 dgrad
// GEMM is a communication->computation pipeline with the SAME shared-tensor
// shape as forward layer0 (rows of width N feeding a GroupGEMM with output
// width K/TP), and the layer0 dgrad GEMM followed by the undispatch is a
// computation->communication pipeline shaped like forward layer1. COMET's
// dependency resolving therefore applies unchanged:
//   * kernel A (grad dispatch + dgrad1): shared tensor decomposed along M,
//     dY rows sorted by source rank, tiles issued in arrival order;
//   * kernel B (dgrad0 + undispatch): decomposed along N, column-panel-major
//     tile order so partial dinput rows start flowing home early.
// The weight-gradient GEMMs (dW1 = Z^T dY, dW0 = A^T dH) have no
// communication dependency; COMET runs dW0 on the compute blocks while
// kernel B's communication tail drains -- one more fine-grained overlap the
// sequential baseline cannot express.
//
// The timing plane prices kernel A with SimulateLayer0Fused and kernel B
// with SimulateLayer1Fused (the dims coincide by the mirror argument above);
// the functional plane executes the real math tile-by-tile in the
// rescheduled order and must match ShardedReferenceMoeBackward bit-exactly.
// Its grad dispatch, dA undispatch and dinput reduction are the forward's
// heap row-exchange steps (core/comet_executor.h); the reduction is
// unweighted, because the gathered dY rows already carry the route weights.
// Weight-gradient reductions run over the CANONICAL (token-ascending) row
// order regardless of how rows were permuted for overlap, so the FP
// reduction tree never depends on the schedule.
#pragma once

#include <string>
#include <vector>

#include "core/comet_executor.h"
#include "moe/backward.h"

namespace comet {

struct BackwardExecution {
  std::string executor;
  // Populated in kFunctional mode only.
  MoeGradients grads;
  // Timeline of the critical (slowest) rank.
  Timeline timeline;
  double duration_us = 0.0;
  std::vector<double> per_rank_us;
};

// COMET backward: two mirrored fused kernels + wgrad GroupGEMMs, with dW0
// overlapped against kernel B's communication tail.
BackwardExecution CometBackward(const MoeWorkload& workload,
                                const ClusterSpec& cluster,
                                const std::vector<Tensor>& dout, ExecMode mode,
                                const CometOptions& options = {});

// Megatron-style sequential backward: one kernel per operator (all-to-all
// grad dispatch, dgrad1, wgrad1, activation backward, dgrad0, wgrad0,
// all-to-all return, TP reductions), no overlap, per-kernel host launches.
// The baseline the training-step bench compares against.
BackwardExecution SequentialBackward(const MoeWorkload& workload,
                                     const ClusterSpec& cluster,
                                     const std::vector<Tensor>& dout,
                                     ExecMode mode);

}  // namespace comet
