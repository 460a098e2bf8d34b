// Cost models of collectives on a ClusterSpec, used by the baselines and the
// backward passes. The all-to-all cost uses the fluid network model
// (per-port capacities); ring collectives use the standard (W-1)/W bandwidth
// term. Functional data movement goes through the symmetric heap
// (comm/symmetric_heap.h), not through this module.
#pragma once

#include <vector>

#include "hw/gpu_spec.h"

namespace comet {

// Completion time of an all-to-all with the given per-pair byte matrix
// (bytes[i][j] from rank i to rank j; diagonal ignored -- local movement is
// charged to compute by the callers, matching the paper's Figure 11
// accounting). On a multi-node cluster, flows crossing nodes are bounded by
// the inter-node fabric as well as the GPU port.
double AllToAllCostUs(const ClusterSpec& cluster,
                      const std::vector<std::vector<double>>& bytes);

// 2D-hierarchical all-to-all (Tutel / HetuMoE style, §6 "communication
// optimization"): phase 1 aggregates per-destination-node data inside each
// node, phase 2 exchanges one large contiguous message per node pair over
// the inter-node fabric, phase 3 scatters inside the destination node. Far
// fewer, larger inter-node messages than the direct algorithm. Falls back to
// AllToAllCostUs on a single node.
double HierarchicalAllToAllCostUs(const ClusterSpec& cluster,
                                  const std::vector<std::vector<double>>& bytes);

// Fraction of off-diagonal all-to-all bytes that cross node boundaries
// (0 on a single node).
double InterNodeByteFraction(const ClusterSpec& cluster,
                             const std::vector<std::vector<double>>& bytes);

// Ring all-gather of `bytes_per_rank` contributed by each rank.
double RingAllGatherCostUs(const ClusterSpec& cluster, double bytes_per_rank);

// Ring reduce-scatter of a `total_bytes` buffer resident on every rank.
double RingReduceScatterCostUs(const ClusterSpec& cluster, double total_bytes);

}  // namespace comet
