#include "baselines/tutel.h"

#include <array>
#include <iterator>
#include <limits>

#include "moe/reference_layer.h"
#include "sim/stream_sim.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace comet {

double TutelExecutor::SimulateRank(const MoeWorkload& workload,
                                   const OpCostModel& costs,
                                   const BaselineCollectives& collectives,
                                   int rank, int degree,
                                   Timeline* timeline) const {
  const BaselineQuantities q =
      ComputeQuantities(workload, costs, collectives, rank);
  const double host_sched_us =
      kPerExpertTopkHostUs *
      static_cast<double>(workload.placement.ExpertsPerGroup()) *
      static_cast<double>(workload.model().topk);

  StreamSim sim(costs.LaunchUs());
  const int comp = sim.AddStream();
  const int comm = sim.AddStream();

  sim.Launch(comp, "gate", OpCategory::kGating, q.gate_us);
  sim.HostWork("routing-bookkeeping", kAuxRoutingKernels * costs.LaunchUs());

  // Phase-major, chunk-minor issue so chunk c+1's all-to-all overlaps chunk
  // c's expert computation.
  std::vector<KernelId> encode(static_cast<size_t>(degree));
  std::vector<KernelId> a2a(static_cast<size_t>(degree));
  std::vector<KernelId> gemm1(static_cast<size_t>(degree));
  std::vector<KernelId> ret(static_cast<size_t>(degree));
  for (int c = 0; c < degree; ++c) {
    sim.HostWork("tutel-sched", host_sched_us);
    encode[static_cast<size_t>(c)] =
        sim.Launch(comp, "fast-encode", OpCategory::kLayer0Comp,
                   q.permute_us * kEncodeFactor);
  }
  for (int c = 0; c < degree; ++c) {
    a2a[static_cast<size_t>(c)] = sim.Launch(
        comm, "2d-a2a-dispatch", OpCategory::kLayer0Comm,
        q.a2a_dispatch_us * kHierarchicalCommFactor,
        {encode[static_cast<size_t>(c)]});
  }
  for (int c = 0; c < degree; ++c) {
    const KernelId gemm0 = sim.Launch(comp, "gemm0", OpCategory::kLayer0Comp,
                                      q.gemm0_us, {a2a[static_cast<size_t>(c)]});
    const KernelId act = sim.Launch(comp, "activation", OpCategory::kActivation,
                                    q.activation_us, {gemm0});
    gemm1[static_cast<size_t>(c)] =
        sim.Launch(comp, "gemm1", OpCategory::kLayer1Comp, q.gemm1_us, {act});
  }
  for (int c = 0; c < degree; ++c) {
    ret[static_cast<size_t>(c)] = sim.Launch(
        comm, "2d-a2a-return", OpCategory::kLayer1Comm,
        q.a2a_return_us * kHierarchicalCommFactor,
        {gemm1[static_cast<size_t>(c)]});
    if (q.tp_reduce_scatter_us > 0.0) {
      ret[static_cast<size_t>(c)] = sim.Launch(
          comm, "tp-reduce-scatter", OpCategory::kLayer1Comm,
          q.tp_reduce_scatter_us, {ret[static_cast<size_t>(c)]});
    }
  }
  for (int c = 0; c < degree; ++c) {
    sim.Launch(comp, "fast-decode", OpCategory::kLayer1Comp,
               q.unpermute_us * kEncodeFactor, {ret[static_cast<size_t>(c)]});
  }
  if (timeline != nullptr) {
    *timeline = sim.timeline();
  }
  return sim.Finish();
}

LayerExecution TutelExecutor::Run(const MoeWorkload& workload,
                                  const ClusterSpec& cluster, ExecMode mode) {
  COMET_CHECK_EQ(cluster.world_size, workload.world());
  const OpCostModel costs(cluster);
  LayerExecution out;
  out.executor = name();

  // Heuristic search: pick the pipeline degree minimizing rank 0's latency
  // (Tutel tunes on a sampled rank, not the global critical path -- part of
  // why its choice can be sub-optimal). Each probed degree prices its
  // chunk's collectives once; the winner's serve every rank.
  double best = std::numeric_limits<double>::infinity();
  size_t best_index = 0;
  std::array<BaselineCollectives, std::size(kDegrees)> collectives;
  for (size_t i = 0; i < std::size(kDegrees); ++i) {
    collectives[i] = ComputeCollectives(workload, costs, 1.0 / kDegrees[i]);
    const double t =
        SimulateRank(workload, costs, collectives[i], 0, kDegrees[i], nullptr);
    if (t < best) {
      best = t;
      best_index = i;
    }
  }
  const int best_degree = kDegrees[best_index];

  const int world = workload.world();
  std::vector<double> per_rank(static_cast<size_t>(world), 0.0);
  std::vector<Timeline> timelines(static_cast<size_t>(world));
  // Per-rank simulations are independent; fan them out.
  ParallelFor(0, world, 1, [&](int64_t r) {
    per_rank[static_cast<size_t>(r)] =
        SimulateRank(workload, costs, collectives[best_index],
                     static_cast<int>(r), best_degree,
                     &timelines[static_cast<size_t>(r)]);
  });
  FinalizeFromRanks(std::move(per_rank), std::move(timelines), out);

  if (mode == ExecMode::kFunctional) {
    out.outputs = ShardedReferenceMoeLayer(workload);
  }
  return out;
}

}  // namespace comet
