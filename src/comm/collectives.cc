#include "comm/collectives.h"

#include <algorithm>

#include "sim/network.h"
#include "util/check.h"

namespace comet {

namespace {

// Multi-node all-to-all bound (alpha-beta per tier): every rank's traffic is
// constrained per tier (intra bytes through the NVLink port, inter bytes
// through the IB port), and each distinct remote PEER costs one message
// setup (the alpha term that makes direct all-to-all degrade with world
// size -- the problem 2D-hierarchical algorithms attack).
double MultiNodeAllToAllCostUs(const ClusterSpec& cluster,
                               const std::vector<std::vector<double>>& bytes) {
  const int world = cluster.world_size;
  double worst_us = 0.0;
  bool any_inter = false;
  bool any_intra = false;
  for (int r = 0; r < world; ++r) {
    double send_intra = 0.0, send_inter = 0.0;
    double recv_intra = 0.0, recv_inter = 0.0;
    int peers_intra = 0, peers_inter = 0;
    for (int p = 0; p < world; ++p) {
      if (p == r) {
        continue;
      }
      const double out = bytes[static_cast<size_t>(r)][static_cast<size_t>(p)];
      const double in = bytes[static_cast<size_t>(p)][static_cast<size_t>(r)];
      if (cluster.SameNode(r, p)) {
        send_intra += out;
        recv_intra += in;
        peers_intra += out > 0.0 ? 1 : 0;
      } else {
        send_inter += out;
        recv_inter += in;
        peers_inter += out > 0.0 ? 1 : 0;
      }
    }
    any_intra |= send_intra > 0.0 || recv_intra > 0.0;
    any_inter |= send_inter > 0.0 || recv_inter > 0.0;
    const double intra_bw = cluster.link.collective_bandwidth_bytes_per_us;
    const double inter_bw =
        cluster.inter_link.collective_bandwidth_bytes_per_us;
    const double intra_us =
        std::max(send_intra, recv_intra) / intra_bw +
        static_cast<double>(peers_intra) * cluster.link.latency_us;
    const double inter_us =
        std::max(send_inter, recv_inter) / inter_bw +
        static_cast<double>(peers_inter) * cluster.inter_link.latency_us;
    worst_us = std::max({worst_us, intra_us, inter_us});
  }
  if (!any_intra && !any_inter) {
    return 0.0;
  }
  const double sync = any_inter ? cluster.inter_link.collective_sync_us
                                : cluster.link.collective_sync_us;
  return worst_us + sync;
}

}  // namespace

double AllToAllCostUs(const ClusterSpec& cluster,
                      const std::vector<std::vector<double>>& bytes) {
  const int world = cluster.world_size;
  COMET_CHECK_EQ(bytes.size(), static_cast<size_t>(world));
  for (const auto& row : bytes) {
    COMET_CHECK_EQ(row.size(), static_cast<size_t>(world));
  }
  if (cluster.IsMultiNode()) {
    return MultiNodeAllToAllCostUs(cluster, bytes);
  }
  std::vector<Flow> flows;
  for (int i = 0; i < world; ++i) {
    for (int j = 0; j < world; ++j) {
      if (i == j) {
        continue;
      }
      const double b = bytes[static_cast<size_t>(i)][static_cast<size_t>(j)];
      if (b > 0.0) {
        flows.push_back(Flow{i, j, b, 0.0});
      }
    }
  }
  if (flows.empty()) {
    return 0.0;
  }
  // Kernel-level NCCL all-to-all: effective per-port bandwidth plus a
  // stream/host synchronization term per call.
  FluidNetwork net(world, cluster.link.collective_bandwidth_bytes_per_us,
                   cluster.link.collective_bandwidth_bytes_per_us,
                   cluster.link.latency_us);
  double makespan = 0.0;
  for (const auto& c : net.Run(flows)) {
    makespan = std::max(makespan, c.end_us);
  }
  return makespan + cluster.link.collective_sync_us;
}

double HierarchicalAllToAllCostUs(
    const ClusterSpec& cluster, const std::vector<std::vector<double>>& bytes) {
  const int world = cluster.world_size;
  COMET_CHECK_EQ(bytes.size(), static_cast<size_t>(world));
  if (!cluster.IsMultiNode()) {
    return AllToAllCostUs(cluster, bytes);
  }
  const int per_node = cluster.GpusPerNode();
  const int nodes = cluster.NumNodes();

  // Phase 1 (intra): rank r stages its per-destination-NODE aggregates onto
  // the local rank that fronts that node (the standard 2D layout). The
  // copies are large and contiguous, so they run at the NVLink ring rate --
  // this is exactly where the hierarchical algorithm "better utilizes
  // intra-node bandwidth" (§6).
  // Phase 2 (inter): one contiguous message per (node, node) pair, striped
  // over the node's HCAs at the IB ring rate.
  // Phase 3 (intra): scatter inside the destination node, same bound as 1.
  double phase1 = 0.0;
  std::vector<std::vector<double>> node_bytes(
      static_cast<size_t>(nodes),
      std::vector<double>(static_cast<size_t>(nodes), 0.0));
  for (int i = 0; i < world; ++i) {
    double off_node = 0.0;
    for (int j = 0; j < world; ++j) {
      if (i == j) {
        continue;
      }
      const double b = bytes[static_cast<size_t>(i)][static_cast<size_t>(j)];
      node_bytes[static_cast<size_t>(cluster.NodeOfRank(i))]
                [static_cast<size_t>(cluster.NodeOfRank(j))] += b;
      if (!cluster.SameNode(i, j)) {
        off_node += b;
      }
    }
    phase1 = std::max(phase1,
                      off_node / cluster.link.ring_bandwidth_bytes_per_us);
  }

  double phase2 = 0.0;
  bool any_inter = false;
  for (int a = 0; a < nodes; ++a) {
    double send = 0.0, recv = 0.0;
    for (int b = 0; b < nodes; ++b) {
      if (a == b) {
        continue;
      }
      send += node_bytes[static_cast<size_t>(a)][static_cast<size_t>(b)];
      recv += node_bytes[static_cast<size_t>(b)][static_cast<size_t>(a)];
      any_inter |= send > 0.0 || recv > 0.0;
    }
    // The node's aggregate egress is striped over its per_node HCAs.
    const double node_bw = cluster.inter_link.ring_bandwidth_bytes_per_us *
                           static_cast<double>(per_node);
    phase2 = std::max({phase2, send / node_bw, recv / node_bw});
  }
  if (!any_inter) {
    return AllToAllCostUs(cluster, bytes);
  }

  // Alpha terms: (P-1) staging messages per intra phase, (N-1) inter-node
  // messages -- versus the direct algorithm's (W-P) inter messages per rank.
  const double latency =
      2.0 * static_cast<double>(per_node - 1) * cluster.link.latency_us +
      static_cast<double>(nodes - 1) * cluster.inter_link.latency_us;
  return 2.0 * phase1 + phase2 + latency +
         cluster.inter_link.collective_sync_us;
}

double InterNodeByteFraction(const ClusterSpec& cluster,
                             const std::vector<std::vector<double>>& bytes) {
  const int world = cluster.world_size;
  COMET_CHECK_EQ(bytes.size(), static_cast<size_t>(world));
  double inter = 0.0, total = 0.0;
  for (int i = 0; i < world; ++i) {
    for (int j = 0; j < world; ++j) {
      if (i == j) {
        continue;
      }
      const double b = bytes[static_cast<size_t>(i)][static_cast<size_t>(j)];
      total += b;
      if (cluster.IsMultiNode() && !cluster.SameNode(i, j)) {
        inter += b;
      }
    }
  }
  return total > 0.0 ? inter / total : 0.0;
}

double RingAllGatherCostUs(const ClusterSpec& cluster, double bytes_per_rank) {
  const int w = cluster.world_size;
  if (w <= 1 || bytes_per_rank <= 0.0) {
    return 0.0;
  }
  // (W-1) ring steps, each moving bytes_per_rank per rank.
  return static_cast<double>(w - 1) *
             (bytes_per_rank / cluster.link.ring_bandwidth_bytes_per_us +
              cluster.link.latency_us) +
         cluster.link.collective_sync_us;
}

double RingReduceScatterCostUs(const ClusterSpec& cluster, double total_bytes) {
  const int w = cluster.world_size;
  if (w <= 1 || total_bytes <= 0.0) {
    return 0.0;
  }
  const double shard = total_bytes / static_cast<double>(w);
  return static_cast<double>(w - 1) *
             (shard / cluster.link.ring_bandwidth_bytes_per_us +
              cluster.link.latency_us) +
         cluster.link.collective_sync_us;
}

}  // namespace comet
