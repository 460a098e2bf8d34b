// Fluid (max-min fair) network model for concurrent flows.
//
// Collectives like all-to-all put many flows on the fabric at once; each
// rank's egress and ingress capacity bounds the sum of its flows' rates.
// This model advances a set of flows through progressive filling: at every
// step, the bottleneck port fixes the rate of its flows, the earliest flow
// completion defines the step length, and rates are recomputed. The result
// is a deterministic per-flow completion time that honours port capacities,
// which is what the baselines' collective cost models are built on.
#pragma once

#include <cstdint>
#include <vector>

namespace comet {

struct Flow {
  int src = 0;
  int dst = 0;
  double bytes = 0.0;
  double ready_us = 0.0;  // flow enters the network at this time
};

struct FlowCompletion {
  double start_us = 0.0;
  double end_us = 0.0;
};

class FluidNetwork {
 public:
  // `num_ports` ranks; each has `egress_bytes_per_us` out-capacity and
  // `ingress_bytes_per_us` in-capacity. `latency_us` is added to every flow's
  // completion.
  FluidNetwork(int num_ports, double egress_bytes_per_us,
               double ingress_bytes_per_us, double latency_us);

  // Simulates all flows; returns completion intervals parallel to `flows`.
  // Flows must cross the fabric: src == dst is rejected (callers charge
  // local copies to compute). A zero-byte flow completes at ready time +
  // latency. Each step (until the next completion or arrival) costs
  // O(flows) to collect the active set plus, per water-filling round,
  // O(ports) to find the tightest port and one pass over the flow lists of
  // the ports it saturates; a step has at most 2 * ports rounds.
  std::vector<FlowCompletion> Run(const std::vector<Flow>& flows) const;

 private:
  int num_ports_;
  double egress_;
  double ingress_;
  double latency_us_;
};

}  // namespace comet
