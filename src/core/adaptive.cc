#include "core/adaptive.h"

#include <limits>
#include <sstream>

#include "util/check.h"

namespace comet {

AdaptiveAssigner::AdaptiveAssigner(int candidate_stride)
    : candidate_stride_(candidate_stride) {
  COMET_CHECK_GT(candidate_stride_, 0);
}

std::vector<int> AdaptiveAssigner::Candidates(int total_blocks) const {
  COMET_CHECK_GT(total_blocks, 1);
  std::vector<int> out;
  // Leave at least 8 blocks (or half, for tiny configs) to the GEMM side.
  const int max_nc = std::max(1, total_blocks - std::min(8, total_blocks / 2));
  for (int nc = candidate_stride_; nc <= max_nc; nc += candidate_stride_) {
    out.push_back(nc);
  }
  if (out.empty()) {
    out.push_back(1);
  }
  return out;
}

std::vector<DivisionPointSample> AdaptiveAssigner::Sweep(
    MoePipelineStage stage, const RoutePlan& plan, int rank,
    const OpCostModel& costs, const FusedKernelConfig& base) const {
  // Only the channel and the slot schedule depend on nc: prepare the layer
  // once, then price every candidate on it. Only durations are read, so no
  // timeline is recorded.
  const bool layer0 = stage == MoePipelineStage::kLayer0;
  FusedKernelWorkspace ws;
  if (layer0) {
    PrepareLayer0Fused(plan, rank, costs, base, ws);
  } else {
    PrepareLayer1Fused(plan, rank, costs, base, ws);
  }
  std::vector<DivisionPointSample> samples;
  FusedKernelResult result;
  for (int nc : Candidates(base.total_blocks)) {
    FusedKernelConfig config = base;
    config.comm_blocks = nc;
    if (layer0) {
      PriceLayer0Fused(plan, costs, config, ws, &result, nullptr);
    } else {
      PriceLayer1Fused(plan, costs, config, ws, &result, nullptr);
    }
    samples.push_back(DivisionPointSample{nc, result.duration_us});
  }
  return samples;
}

std::string AdaptiveAssigner::ProfileKey(const ClusterSpec& cluster,
                                         const Placement& placement,
                                         MoePipelineStage stage) {
  std::ostringstream os;
  os << cluster.name << "|" << placement.model().name << "|M"
     << placement.total_tokens() << "|" << placement.parallel().ToString()
     << "|" << (stage == MoePipelineStage::kLayer0 ? "layer0" : "layer1");
  return os.str();
}

int AdaptiveAssigner::SelectCommBlocks(MoePipelineStage stage,
                                       const RoutePlan& plan, int rank,
                                       const OpCostModel& costs,
                                       const FusedKernelConfig& base,
                                       MetadataStore* store) const {
  // The key is a formatted string: build it only when there is a store.
  std::string key;
  if (store != nullptr) {
    key = ProfileKey(costs.cluster(), plan.placement(), stage);
    if (auto cached = store->GetInt(key)) {
      return static_cast<int>(*cached);
    }
  }
  double best_us = std::numeric_limits<double>::infinity();
  int best_nc = 1;
  for (const auto& sample : Sweep(stage, plan, rank, costs, base)) {
    if (sample.duration_us < best_us) {
      best_us = sample.duration_us;
      best_nc = sample.comm_blocks;
    }
  }
  if (store != nullptr) {
    store->PutInt(key, best_nc);
  }
  return best_nc;
}

}  // namespace comet
