// Figure 1(a): time breakdown of typical MoE models executed with
// Megatron-LM on 8x H800 -- the motivating measurement: inter-device
// communication occupies ~47% of end-to-end execution time on average.
//
// For each model (Mixtral-8x7B, Qwen2-MoE, Phi-3.5-MoE) and sequence length
// (4096, 8192) we run the Megatron-Cutlass executor and report the fraction
// of the model's time spent in MoE communication, MoE computation and
// non-MoE (attention) layers.
#include "bench/bench_common.h"
#include "runtime/model_runner.h"

using namespace comet;
using namespace comet::bench;

REGISTER_BENCH(fig01_breakdown, "Figure 1(a): MoE time breakdown under Megatron-LM") {
  const auto cluster = H800Cluster(8);
  PrintHeader("Figure 1(a): time breakdown of MoE models (Megatron-LM)",
              "8x H800, EP=8 TP=1; fractions of end-to-end time");

  AsciiTable table({"model", "M", "comm", "MoE comp", "attention (non-MoE)"});
  std::vector<double> comm_fractions;
  for (const ModelConfig& model : {Mixtral8x7B(), Qwen2Moe(), Phi35Moe()}) {
    for (int64_t m : {4096, 8192}) {
      MegatronExecutor megatron = MakeMegatronCutlass();
      ModelRunConfig config;
      config.model = model;
      config.parallel = ParallelConfig{1, 8};
      config.total_tokens = m;
      const ModelRunResult run = RunModel(megatron, config, cluster);

      const Timeline& tl = run.moe_layer.timeline;
      const double comm = tl.CategoryBusy(OpCategory::kLayer0Comm) +
                          tl.CategoryBusy(OpCategory::kLayer1Comm);
      const double moe_total = run.moe_us;
      const double layer_total = run.attention_us + moe_total;
      const double comm_frac = comm / layer_total;
      comm_fractions.push_back(comm_frac);
      table.AddRow({model.name, std::to_string(m), FormatPercent(comm_frac),
                    FormatPercent((moe_total - comm) / layer_total),
                    FormatPercent(run.attention_us / layer_total)});
    }
  }
  std::cout << table.Render();
  double mean = 0.0;
  for (double f : comm_fractions) {
    mean += f;
  }
  mean /= static_cast<double>(comm_fractions.size());
  std::cout << "\nmean communication fraction: " << FormatPercent(mean)
            << "\n\n";
  reporter.Report("mean_comm_pct", mean * 100.0, "%");
  PrintPaperNote("communication accounts for 47% of total execution time on "
                 "average across these models.");
  return 0;
}
