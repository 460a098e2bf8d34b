// Figure 8: duration of the MoE layer1 fused kernel vs the number of thread
// blocks assigned to communication (nc), for several parallelisms and input
// lengths. Total thread blocks = 132 (H800 SMs).
//
// Paper observations reproduced here: a U-shaped curve with a configuration-
// dependent optimum; at TP=8/EP=1 the optimum moves from nc=18 (M=4096) to
// nc=26 (M=16384); at TP=4/EP=2, M=16384 the optimum is near nc=46.
#include "bench/bench_common.h"
#include "core/adaptive.h"
#include "exec/op_costs.h"

using namespace comet;
using namespace comet::bench;

REGISTER_BENCH(fig08_division_point, "Figure 8: fused kernel duration vs communication thread blocks (nc)") {
  ModelConfig model = Mixtral8x7B();
  model.num_experts = 8;
  model.topk = 2;
  const auto cluster = H800Cluster(8);
  const OpCostModel costs(cluster);
  const AdaptiveAssigner assigner(/*candidate_stride=*/2);

  PrintHeader("Figure 8: layer1 fused-kernel duration vs nc",
              "E=8 topk=2, Mixtral shapes, H800x8 (132 SMs); durations in ms");

  const std::vector<ParallelConfig> parallels = {
      {8, 1}, {4, 2}, {2, 4}, {1, 8}};
  const std::vector<int64_t> lengths = {4096, 8192, 16384};
  for (const ParallelConfig& parallel : parallels) {
    std::cout << "--- " << parallel.ToString() << " ---\n";
    AsciiTable table({"nc", "M=4096", "M=8192", "M=16384"});
    std::vector<std::vector<DivisionPointSample>> sweeps;
    for (int64_t m : lengths) {
      const MoeWorkload w = TimedWorkload(model, parallel, m);
      FusedKernelConfig base;
      base.total_blocks = cluster.gpu.num_sms;
      sweeps.push_back(assigner.Sweep(MoePipelineStage::kLayer1, w.plan,
                                      /*rank=*/0, costs, base));
    }
    for (size_t i = 0; i < sweeps[0].size(); ++i) {
      table.AddRow({std::to_string(sweeps[0][i].comm_blocks),
                    FormatUsAsMs(sweeps[0][i].duration_us),
                    FormatUsAsMs(sweeps[1][i].duration_us),
                    FormatUsAsMs(sweeps[2][i].duration_us)});
    }
    std::cout << table.Render();
    std::cout << "optimal nc:";
    const char* labels[3] = {" M=4096 ->", "  M=8192 ->", "  M=16384 ->"};
    for (size_t s = 0; s < sweeps.size(); ++s) {
      const std::string prefix = parallel.ToString() + "/M=" +
                                 std::to_string(lengths[s]) + "/";
      int best_nc = 0;
      double best = 1e300;
      for (const auto& sample : sweeps[s]) {
        reporter.Report(prefix + "nc" + std::to_string(sample.comm_blocks) +
                            "_ms",
                        sample.duration_us / 1000.0, "ms");
        if (sample.duration_us < best) {
          best = sample.duration_us;
          best_nc = sample.comm_blocks;
        }
      }
      reporter.Report(prefix + "optimal_nc", best_nc, "blocks");
      std::cout << labels[s] << " " << best_nc;
    }
    std::cout << "\n\n";
  }
  PrintPaperNote(
      "optimal nc = 18 at (TP=8, M=4096), 26 at (TP=8, M=16384), 46 at "
      "(TP=4/EP=2, M=16384); total blocks fixed at 132.");
  return 0;
}
