// Tutel baseline (paper §5.1 (d); Hwang et al., MLSys'23).
//
// Tutel overlaps all-to-all with expert computation at an adaptive pipeline
// degree chosen by a heuristic search over a limited space, and replaces the
// flat all-to-all with a 2D-hierarchical algorithm: better wire utilization
// at the cost of extra local encode/decode passes over the data. Scheduling
// is still kernel-per-op, and the number of kernels the host must manage
// grows with the pipeline degree and with E and topk -- the paper's
// explanation for Tutel's fading advantage on Qwen2 (64 experts).
#pragma once

#include "baselines/common.h"

namespace comet {

class TutelExecutor : public MoeLayerExecutor {
 public:
  TutelExecutor() = default;

  std::string name() const override { return "Tutel"; }
  bool Supports(const ParallelConfig&) const override { return true; }
  LayerExecution Run(const MoeWorkload& workload, const ClusterSpec& cluster,
                     ExecMode mode) override;

 private:
  // `collectives` are priced for a chunk of 1 / `degree`.
  double SimulateRank(const MoeWorkload& workload, const OpCostModel& costs,
                      const BaselineCollectives& collectives, int rank,
                      int degree, Timeline* timeline) const;

  // The limited search space of pipeline degrees.
  static constexpr int kDegrees[3] = {1, 2, 4};
  // 2D-hierarchical all-to-all wire efficiency.
  static constexpr double kHierarchicalCommFactor = 0.85;
  // Extra encode/decode passes around each all-to-all.
  static constexpr double kEncodeFactor = 1.25;
  // Host scheduling cost per (expert, topk) pair per chunk, us.
  static constexpr double kPerExpertTopkHostUs = 0.05;
};

}  // namespace comet
