// Microbenchmark: the timing-plane simulator itself -- how fast the host can
// simulate MoE layers. The simulator is the repo's hot path (every figure
// bench is thousands of simulated layers), so its throughput gates how large
// a sweep the bench suite can afford.
#include "bench/bench_common.h"
#include "core/adaptive.h"
#include "core/fused_kernel.h"
#include "sim/bandwidth_queue.h"
#include "sim/network.h"
#include "sim/stream_sim.h"

using namespace comet;
using namespace comet::bench;

REGISTER_BENCH(micro_sim, "Micro: timing-plane simulator throughput") {
  PrintHeader("Micro: simulator throughput",
              "host wall time to simulate one MoE layer / sim primitives");
  AsciiTable table({"op", "setup", "ns/op"});

  auto record = [&](const std::string& op, const std::string& setup,
                    const TimedLoop& loop) {
    table.AddRow({op, setup, FormatDouble(loop.ns_per_iter, 0)});
    reporter.Report(op + "/" + setup + "/ns_per_op", loop.ns_per_iter, "ns");
  };

  // Full timed-only layer simulation, COMET vs the slowest baseline style.
  const auto cluster = H800Cluster(8);
  for (int64_t tokens : {int64_t{4096}, int64_t{16384}}) {
    const MoeWorkload w =
        TimedWorkload(Mixtral8x7B(), ParallelConfig{1, 8}, tokens);
    SystemSet systems;
    record("comet_layer_sim", "M=" + std::to_string(tokens), TimeIt([&] {
             const LayerExecution run =
                 systems.comet.Run(w, cluster, ExecMode::kTimedOnly);
             DoNotOptimize(run.duration_us);
           }));
    record("megatron_layer_sim", "M=" + std::to_string(tokens), TimeIt([&] {
             const LayerExecution run =
                 systems.megatron_cutlass.Run(w, cluster, ExecMode::kTimedOnly);
             DoNotOptimize(run.duration_us);
           }));
  }

  // The two pricing steps those layer sims repeat most, alone on the
  // M=16384 layer: one fluid all-to-all (the baselines' 56-flow EP8 dispatch
  // matrix) and one layer0 division-point sweep at tile 128 (COMET's
  // adaptive assignment, 62 candidates on one prepared schedule).
  {
    const MoeWorkload w =
        TimedWorkload(Mixtral8x7B(), ParallelConfig{1, 8}, 16384);
    const OpCostModel costs(cluster);
    const auto bytes = w.plan.DispatchBytes(
        static_cast<double>(w.model().embedding) * costs.bytes_per_element());
    std::vector<Flow> flows;
    for (int i = 0; i < w.world(); ++i) {
      for (int j = 0; j < w.world(); ++j) {
        const double b = bytes[static_cast<size_t>(i)][static_cast<size_t>(j)];
        if (i != j && b > 0.0) {
          flows.push_back(Flow{i, j, b, 0.0});
        }
      }
    }
    const LinkSpec& link = cluster.link;
    const FluidNetwork net(w.world(), link.collective_bandwidth_bytes_per_us,
                           link.collective_bandwidth_bytes_per_us,
                           link.latency_us);
    record("fluid_all_to_all", "world=" + std::to_string(w.world()),
           TimeIt([&] { DoNotOptimize(net.Run(flows).back().end_us); }));
    FusedKernelConfig base;
    base.total_blocks = cluster.gpu.num_sms;
    const AdaptiveAssigner assigner;
    record("adaptive_sweep", "M=16384", TimeIt([&] {
             DoNotOptimize(assigner
                               .Sweep(MoePipelineStage::kLayer0, w.plan, 0,
                                      costs, base)
                               .size());
           }));

    // One fine-tile fused-kernel simulation per layer, timeline included,
    // as paper_sweep and the granularity ablation run them.
    FusedKernelConfig fine = base;
    fine.comm_blocks = 20;
    fine.tile_m = 8;
    fine.tile_n = 8;
    record("fused_layer0", "tile=8", TimeIt([&] {
             DoNotOptimize(
                 SimulateLayer0Fused(w.plan, 0, costs, fine).duration_us);
           }));
    record("fused_layer1", "tile=8", TimeIt([&] {
             DoNotOptimize(
                 SimulateLayer1Fused(w.plan, 0, costs, fine).duration_us);
           }));
  }

  // StreamSim: host launch loop for a kernel-per-op system.
  for (int kernels : {256, 2048}) {
    record("stream_sim_launches", "n=" + std::to_string(kernels), TimeIt([&] {
             StreamSim sim(/*launch_overhead_us=*/2.5);
             const int stream = sim.AddStream();
             for (int i = 0; i < kernels; ++i) {
               sim.Launch(stream, "k", OpCategory::kLayer0Comp, 10.0);
             }
             DoNotOptimize(sim.Finish());
           }));
  }

  // BandwidthQueue: FIFO transfer scheduling, the fused kernels' comm model.
  for (int jobs : {256, 2048}) {
    std::vector<TransferJob> batch(static_cast<size_t>(jobs));
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i].ready_us = static_cast<double>(i) * 0.5;
      batch[i].bytes = 64.0 * 1024;
    }
    BandwidthQueue queue(/*bandwidth_bytes_per_us=*/160e3, /*latency_us=*/3.0);
    record("bandwidth_queue_schedule", "n=" + std::to_string(jobs), TimeIt([&] {
             DoNotOptimize(queue.Makespan(batch));
           }));
  }

  std::cout << table.Render() << "\n";
  return 0;
}
