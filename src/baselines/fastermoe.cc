#include "baselines/fastermoe.h"

#include "moe/reference_layer.h"
#include "sim/stream_sim.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace comet {

LayerExecution FasterMoeExecutor::Run(const MoeWorkload& workload,
                                      const ClusterSpec& cluster,
                                      ExecMode mode) {
  COMET_CHECK_EQ(cluster.world_size, workload.world());
  COMET_CHECK(Supports(workload.placement.parallel()))
      << "FasterMoE supports expert parallelism only";
  const OpCostModel costs(cluster);
  LayerExecution out;
  out.executor = name();

  const int world = workload.world();
  const double chunk_fraction = 1.0 / kPipelineDegree;
  std::vector<double> per_rank(static_cast<size_t>(world), 0.0);
  std::vector<Timeline> timelines(static_cast<size_t>(world));
  const BaselineCollectives collectives =
      ComputeCollectives(workload, costs, chunk_fraction);

  // Per-rank StreamSim programs are independent; fan them out.
  ParallelFor(0, world, 1, [&](int64_t ri) {
    const int r = static_cast<int>(ri);
    const BaselineQuantities q =
        ComputeQuantities(workload, costs, collectives, r);
    const double experts_host_us =
        kPerExpertHostUs *
        static_cast<double>(workload.placement.ExpertsPerGroup());

    StreamSim sim(costs.LaunchUs());
    const int comp = sim.AddStream();
    const int comm = sim.AddStream();

    sim.Launch(comp, "gate", OpCategory::kGating, q.gate_us);
    sim.HostWork("routing-bookkeeping",
                 kAuxRoutingKernels * costs.LaunchUs());

    // Phase-major, chunk-minor issue: chunk c+1's all-to-all overlaps chunk
    // c's expert computation (pipeline degree 2).
    std::vector<KernelId> scatter(kPipelineDegree);
    std::vector<KernelId> a2a(kPipelineDegree);
    std::vector<KernelId> gemm1(kPipelineDegree);
    std::vector<KernelId> ret(kPipelineDegree);
    for (int c = 0; c < kPipelineDegree; ++c) {
      sim.HostWork("expert-mgmt", experts_host_us);
      scatter[static_cast<size_t>(c)] =
          sim.Launch(comp, "smart-scatter", OpCategory::kLayer0Comp,
                     q.permute_us * kIndexingFactor);
    }
    for (int c = 0; c < kPipelineDegree; ++c) {
      a2a[static_cast<size_t>(c)] = sim.Launch(
          comm, "a2a-dispatch", OpCategory::kLayer0Comm,
          q.a2a_dispatch_us * kSmartCommFactor,
          {scatter[static_cast<size_t>(c)]});
    }
    for (int c = 0; c < kPipelineDegree; ++c) {
      // FastMoE's expert function launches one GEMM kernel per local expert
      // (no grouped GEMM); kernel invocation time dominates when experts are
      // small and numerous -- the paper's Qwen2 observation.
      KernelId last = a2a[static_cast<size_t>(c)];
      for (double per_expert : q.gemm0_per_expert_us) {
        last = sim.Launch(comp, "gemm0-expert", OpCategory::kLayer0Comp,
                          per_expert, {last});
      }
      last = sim.Launch(comp, "activation", OpCategory::kActivation,
                        q.activation_us, {last});
      for (double per_expert : q.gemm1_per_expert_us) {
        last = sim.Launch(comp, "gemm1-expert", OpCategory::kLayer1Comp,
                          per_expert, {last});
      }
      gemm1[static_cast<size_t>(c)] = last;
    }
    // The combine path is synchronized: chunking is by (token, expert) row,
    // so one token's topk contributions can land in different chunks and the
    // global top-k reduction cannot start until every chunk's experts have
    // finished. The return all-to-all therefore does not pipeline.
    for (int c = 0; c < kPipelineDegree; ++c) {
      ret[static_cast<size_t>(c)] = sim.Launch(
          comm, "a2a-return", OpCategory::kLayer1Comm,
          q.a2a_return_us * kSmartCommFactor,
          {gemm1[static_cast<size_t>(kPipelineDegree - 1)]});
    }
    for (int c = 0; c < kPipelineDegree; ++c) {
      sim.Launch(comp, "smart-gather", OpCategory::kLayer1Comp,
                 q.unpermute_us * kIndexingFactor,
                 {ret[static_cast<size_t>(c)]});
    }
    per_rank[static_cast<size_t>(r)] = sim.Finish();
    timelines[static_cast<size_t>(r)] = sim.timeline();
  });
  FinalizeFromRanks(std::move(per_rank), std::move(timelines), out);

  if (mode == ExecMode::kFunctional) {
    out.outputs = ShardedReferenceMoeLayer(workload);
  }
  return out;
}

}  // namespace comet
