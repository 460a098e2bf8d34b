#include "baselines/common.h"

#include <algorithm>
#include <cmath>

#include "comm/collectives.h"
#include "util/check.h"

namespace comet {
namespace {

// Scales the m dimension of every per-expert problem by `fraction`,
// rounding up (a pipeline chunk still covers whole rows).
std::vector<GemmShape> ToGemmShapes(const std::vector<GemmProblemSize>& in,
                                    double fraction) {
  std::vector<GemmShape> out;
  out.reserve(in.size());
  for (const auto& p : in) {
    const int64_t m = static_cast<int64_t>(
        std::max(0.0, std::ceil(static_cast<double>(p.m) * fraction)));
    out.push_back(GemmShape{m, p.n, p.k});
  }
  return out;
}

std::vector<std::vector<double>> ScaleMatrix(
    std::vector<std::vector<double>> m, double s) {
  for (auto& row : m) {
    for (auto& v : row) {
      v *= s;
    }
  }
  return m;
}

}  // namespace

BaselineCollectives ComputeCollectives(const MoeWorkload& workload,
                                       const OpCostModel& costs,
                                       double chunk_fraction) {
  COMET_CHECK_GT(chunk_fraction, 0.0);
  COMET_CHECK_LE(chunk_fraction, 1.0);
  const Placement& placement = workload.placement;
  const RoutePlan& plan = workload.plan;
  const ClusterSpec& cluster = costs.cluster();
  const double row_bytes = static_cast<double>(placement.model().embedding) *
                           costs.bytes_per_element();

  BaselineCollectives c;
  c.chunk_fraction = chunk_fraction;
  c.a2a_dispatch_us = AllToAllCostUs(
      cluster, ScaleMatrix(plan.DispatchBytes(row_bytes), chunk_fraction));
  c.a2a_return_us = AllToAllCostUs(
      cluster, ScaleMatrix(plan.EpReturnBytes(row_bytes), chunk_fraction));
  c.tp_reduce_scatter_us = RingReduceScatterCostUs(
      cluster, chunk_fraction * static_cast<double>(placement.parallel().tp) *
                   plan.TpReduceScatterBytesPerRank(row_bytes));
  return c;
}

BaselineQuantities ComputeQuantities(const MoeWorkload& workload,
                                     const OpCostModel& costs,
                                     const BaselineCollectives& collectives,
                                     int rank, double gemm_efficiency) {
  const double chunk_fraction = collectives.chunk_fraction;
  const Placement& placement = workload.placement;
  const RoutePlan& plan = workload.plan;
  const ClusterSpec& cluster = costs.cluster();
  const double elt = costs.bytes_per_element();

  // A dedicated GEMM model so TE can use its own sustained efficiency.
  const GemmCostModel gemm(cluster.gpu, 128, 128, gemm_efficiency, elt);

  BaselineQuantities q;
  q.gate_us = costs.GatingUs(placement.tokens_per_group(),
                             placement.model().embedding,
                             placement.model().num_experts);

  const int64_t rows = plan.ForRank(rank).TotalRows();
  const int64_t chunk_rows = static_cast<int64_t>(
      std::ceil(static_cast<double>(rows) * chunk_fraction));
  q.permute_us =
      costs.PermuteUs(chunk_rows, placement.model().embedding);
  q.unpermute_us =
      costs.PermuteUs(chunk_rows, placement.model().embedding) +
      costs.CombineReduceUs(chunk_rows, placement.model().embedding,
                            placement.model().topk);

  q.a2a_dispatch_us = collectives.a2a_dispatch_us;
  q.a2a_return_us = collectives.a2a_return_us;
  q.tp_reduce_scatter_us = collectives.tp_reduce_scatter_us;

  const auto shapes0 = ToGemmShapes(plan.Layer0Problems(rank), chunk_fraction);
  const auto shapes1 = ToGemmShapes(plan.Layer1Problems(rank), chunk_fraction);
  q.gemm0_us = gemm.GroupTimeUs(shapes0, cluster.gpu.num_sms);
  q.gemm1_us = gemm.GroupTimeUs(shapes1, cluster.gpu.num_sms);
  for (const auto& s : shapes0) {
    q.gemm0_per_expert_us.push_back(gemm.TimeUs(s, cluster.gpu.num_sms));
  }
  for (const auto& s : shapes1) {
    q.gemm1_per_expert_us.push_back(gemm.TimeUs(s, cluster.gpu.num_sms));
  }
  q.activation_us =
      costs.ActivationUs(chunk_rows, placement.HiddenPerTpRank());
  return q;
}

void FinalizeFromRanks(std::vector<double> per_rank_us,
                       std::vector<Timeline> per_rank_timelines,
                       LayerExecution& out) {
  COMET_CHECK(!per_rank_us.empty());
  COMET_CHECK_EQ(per_rank_us.size(), per_rank_timelines.size());
  size_t worst = 0;
  for (size_t r = 1; r < per_rank_us.size(); ++r) {
    if (per_rank_us[r] > per_rank_us[worst]) {
      worst = r;
    }
  }
  out.duration_us = per_rank_us[worst];
  out.timeline = std::move(per_rank_timelines[worst]);
  out.per_rank_us = std::move(per_rank_us);
}

}  // namespace comet
