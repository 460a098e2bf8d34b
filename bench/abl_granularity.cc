// Ablation: decomposition granularity (paper §3.1.2).
//
// "At the finest granularity, the shared tensor can be split into individual
// rows or columns ... However, this level of granularity results in low
// computational efficiency." This bench makes the trade-off measurable: it
// sweeps the fused kernels' tile sizes from token-wise slivers to
// coarse blocks. Tiny tiles overlap perfectly but waste the tensor cores;
// huge tiles keep the GEMM efficient but serialize against communication
// (each tile waits for all of its rows). The paper's choice -- native
// 128x128 GEMM tiles, rescheduled -- sits at the sweet spot.
#include "bench/bench_common.h"
#include "core/fused_kernel.h"
#include "exec/op_costs.h"

using namespace comet;
using namespace comet::bench;

REGISTER_BENCH(abl_granularity, "Ablation: shared-tensor decomposition granularity (paper 3.1.2)") {
  ModelConfig model = Mixtral8x7B();
  model.num_experts = 8;
  model.topk = 2;
  const auto cluster = H800Cluster(8);
  const OpCostModel costs(cluster);
  const MoeWorkload w = TimedWorkload(model, ParallelConfig{1, 8}, 16384);

  PrintHeader("Ablation: decomposition granularity (tile size sweep)",
              "E=8 topk=2 M=16384 EP=8, H800x8; fused kernels on rank 0, ms");

  AsciiTable table({"tile (m x n)", "layer0 total", "layer0 stall",
                    "layer1 total", "layer1 comm tail"});
  // Prepare + price with no timeline: only the numbers are read, so tile 1
  // (58.7M layer0 tiles) runs in memory bounded by the row chunks.
  FusedKernelWorkspace ws;
  FusedKernelResult l0;
  FusedKernelResult l1;
  for (const int64_t tile : {1, 8, 16, 32, 64, 128, 256, 512}) {
    FusedKernelConfig config;
    config.total_blocks = cluster.gpu.num_sms;
    config.comm_blocks = 20;
    config.tile_m = tile;
    config.tile_n = tile;
    PrepareLayer0Fused(w.plan, 0, costs, config, ws);
    PriceLayer0Fused(w.plan, costs, config, ws, &l0, nullptr);
    PrepareLayer1Fused(w.plan, 0, costs, config, ws);
    PriceLayer1Fused(w.plan, costs, config, ws, &l1, nullptr);
    const double l1_tail = l1.comm_makespan_us - l1.compute_makespan_us;
    table.AddRow({std::to_string(tile) + " x " + std::to_string(tile),
                  FormatUsAsMs(l0.duration_us), FormatUsAsMs(l0.stall_us),
                  FormatUsAsMs(l1.duration_us), FormatUsAsMs(l1_tail)});
    const std::string prefix = "tile=" + std::to_string(tile) + "/";
    reporter.Report(prefix + "layer0_total_ms", l0.duration_us / 1000.0, "ms");
    reporter.Report(prefix + "layer0_stall_ms", l0.stall_us / 1000.0, "ms");
    reporter.Report(prefix + "layer1_total_ms", l1.duration_us / 1000.0, "ms");
    reporter.Report(prefix + "layer1_comm_tail_ms", l1_tail / 1000.0, "ms");
  }
  std::cout << table.Render() << "\n";
  PrintPaperNote(
      "no direct figure (a design-choice ablation of §3.1.2): expected "
      "U-shape with the optimum at the native GEMM tile (128).");
  return 0;
}
