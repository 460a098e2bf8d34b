#include "baselines/megatron.h"

#include "moe/reference_layer.h"
#include "sim/stream_sim.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace comet {

MegatronExecutor::MegatronExecutor(MegatronFlavor flavor)
    : flavor_(std::move(flavor)) {
  COMET_CHECK(!flavor_.name.empty());
}

LayerExecution MegatronExecutor::Run(const MoeWorkload& workload,
                                     const ClusterSpec& cluster,
                                     ExecMode mode) {
  COMET_CHECK_EQ(cluster.world_size, workload.world());
  const OpCostModel costs(cluster);
  LayerExecution out;
  out.executor = name();

  const int world = workload.world();
  std::vector<double> per_rank(static_cast<size_t>(world), 0.0);
  std::vector<Timeline> timelines(static_cast<size_t>(world));
  const BaselineCollectives collectives = ComputeCollectives(workload, costs);

  // Per-rank StreamSim programs are independent; fan them out.
  ParallelFor(0, world, 1, [&](int64_t ri) {
    const int r = static_cast<int>(ri);
    const BaselineQuantities q = ComputeQuantities(workload, costs, collectives,
                                                   r, flavor_.gemm_efficiency);

    StreamSim sim(costs.LaunchUs());
    const int stream = sim.AddStream();
    auto launch = [&](const char* label, OpCategory cat, double dur) {
      if (flavor_.host_api_overhead_us > 0.0) {
        sim.HostWork(InternLabel(std::string("api:") + label),
                     flavor_.host_api_overhead_us);
      }
      return sim.Launch(stream, label, cat, dur);
    };

    launch("gate", OpCategory::kGating, q.gate_us);
    sim.HostWork("routing-bookkeeping",
                 kAuxRoutingKernels * costs.LaunchUs());
    launch("permute", OpCategory::kLayer0Comp, q.permute_us);
    launch("a2a-dispatch", OpCategory::kLayer0Comm, q.a2a_dispatch_us);
    launch("gemm0", OpCategory::kLayer0Comp, q.gemm0_us);
    launch("activation", OpCategory::kActivation, q.activation_us);
    launch("gemm1", OpCategory::kLayer1Comp, q.gemm1_us);
    launch("a2a-return", OpCategory::kLayer1Comm, q.a2a_return_us);
    if (q.tp_reduce_scatter_us > 0.0) {
      launch("tp-reduce-scatter", OpCategory::kLayer1Comm,
             q.tp_reduce_scatter_us);
    }
    launch("unpermute-combine", OpCategory::kLayer1Comp, q.unpermute_us);

    per_rank[static_cast<size_t>(r)] = sim.Finish();
    timelines[static_cast<size_t>(r)] = sim.timeline();
  });
  FinalizeFromRanks(std::move(per_rank), std::move(timelines), out);

  if (mode == ExecMode::kFunctional) {
    out.outputs = ShardedReferenceMoeLayer(workload);
  }
  return out;
}

MegatronExecutor MakeMegatronCutlass() {
  return MegatronExecutor(MegatronFlavor{"Megatron-Cutlass", 0.85, 0.0});
}

MegatronExecutor MakeMegatronTe() {
  return MegatronExecutor(MegatronFlavor{"Megatron-TE", 0.80, 14.0});
}

}  // namespace comet
