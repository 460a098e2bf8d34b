// Shared timing machinery for the four baseline MoE systems (paper §5.1):
// Megatron-Cutlass, Megatron-TE, FasterMoE and Tutel. All of them launch
// separate kernels per operator on CUDA streams; they differ in GEMM
// implementation, collective algorithm and pipelining strategy -- never in
// numerics. Their functional outputs are therefore the sharded reference
// layer's (ShardedReferenceMoeLayer, moe/reference_layer.h); only the
// timing plane is per-system.
#pragma once

#include "exec/execution.h"
#include "exec/op_costs.h"

namespace comet {

// Number of auxiliary host-dispatched kernels every kernel-per-op framework
// issues around the MoE macro ops: top-k argsort, expert histogram, cumsum,
// gather/scatter index builds, probability renormalization, capacity masks.
// Each costs one launch of pure host time. COMET runs this bookkeeping
// inside its fused kernels, which is a large part of its small-M advantage
// (paper §5.3: "the scheduling time on the host side predominates the
// overall duration when M is small").
inline constexpr double kAuxRoutingKernels = 8.0;

// The layer's collectives, priced once for every rank: each is a global
// makespan (a collective completes when the slowest rank does) of the
// whole-world byte matrix scaled to one pipeline chunk.
struct BaselineCollectives {
  double chunk_fraction = 1.0;  // the chunk these were priced for
  double a2a_dispatch_us = 0.0;
  double a2a_return_us = 0.0;
  double tp_reduce_scatter_us = 0.0;
};

// Prices the dispatch and return all-to-alls and the TP reduce-scatter of
// one `chunk_fraction` (0 < f <= 1) of the layer's traffic.
BaselineCollectives ComputeCollectives(const MoeWorkload& workload,
                                       const OpCostModel& costs,
                                       double chunk_fraction = 1.0);

// Per-rank operator durations every baseline composes from. The collective
// times are copied from the layer's BaselineCollectives; GEMM/local times
// are per-rank.
struct BaselineQuantities {
  double gate_us = 0.0;
  double permute_us = 0.0;    // local token reordering before dispatch
  double unpermute_us = 0.0;  // local un-reordering + top-k combine
  double a2a_dispatch_us = 0.0;
  double a2a_return_us = 0.0;
  double tp_reduce_scatter_us = 0.0;
  double gemm0_us = 0.0;
  double gemm1_us = 0.0;
  double activation_us = 0.0;
  // Per-local-expert GEMM kernel times (for systems like FastMoE that launch
  // one kernel per expert instead of a grouped GEMM).
  std::vector<double> gemm0_per_expert_us;
  std::vector<double> gemm1_per_expert_us;
};

// Computes the quantities for `rank`, one pipeline chunk of
// `collectives.chunk_fraction` of its rows at a time (GEMM efficiency
// degrades on the smaller chunks -- this is the t1 + t2 > t effect of
// Figure 1(b)). `gemm_efficiency` lets Megatron-TE use its slightly
// different kernel selection.
BaselineQuantities ComputeQuantities(const MoeWorkload& workload,
                                     const OpCostModel& costs,
                                     const BaselineCollectives& collectives,
                                     int rank, double gemm_efficiency = 0.85);

// Finalizes a LayerExecution from per-rank durations/timelines: picks the
// slowest rank as critical.
void FinalizeFromRanks(std::vector<double> per_rank_us,
                       std::vector<Timeline> per_rank_timelines,
                       LayerExecution& out);

}  // namespace comet
