// Extension experiment: scaling a Qwen2-style MoE layer beyond one node.
// The paper deploys COMET on clusters "comprising over ten thousand GPUs"
// (§1) but evaluates on single 8-GPU servers; this bench extends the
// evaluation to multi-node expert parallelism over NDR InfiniBand, where the
// inter-node fabric is ~3.5x slower than NVLink and communication dominates
// -- exactly the regime fine-grained overlap is built for.
//
// Weak scaling: tokens per GPU held constant while EP grows with the world.
// Also reports the direct vs 2D-hierarchical all-to-all cost (Tutel's
// algorithm, §6), which trades two extra intra-node phases for far fewer
// inter-node messages.
#include "bench/bench_common.h"
#include "comm/collectives.h"

using namespace comet;
using namespace comet::bench;

REGISTER_BENCH(ext_multinode, "Extension: multi-node expert parallelism over InfiniBand") {
  ModelConfig model = Qwen2Moe();  // E=64 supports EP up to 64
  const int64_t tokens_per_gpu = 1024;

  PrintHeader("Extension: multi-node weak scaling",
              "Qwen2-MoE experts, TP=1, EP=world, 8 GPUs/node + NDR IB, "
              "tokens/GPU=1024, times in ms");

  AsciiTable table({"nodes", "world", "Megatron", "Tutel", "Comet",
                    "speedup", "inter-node bytes", "hidden comm"});
  for (const int nodes : {1, 2, 4, 8}) {
    const int world = nodes * 8;
    const ClusterSpec cluster = nodes == 1 ? H800Cluster(8)
                                           : MultiNodeH800Cluster(nodes, 8);
    const ParallelConfig parallel{1, world};
    const MoeWorkload w =
        TimedWorkload(model, parallel, tokens_per_gpu * world);

    MegatronExecutor megatron = MakeMegatronCutlass();
    TutelExecutor tutel;
    CometExecutor comet;
    const double base =
        megatron.Run(w, cluster, ExecMode::kTimedOnly).duration_us;
    const double tut =
        tutel.Run(w, cluster, ExecMode::kTimedOnly).duration_us;
    const LayerExecution run = comet.Run(w, cluster, ExecMode::kTimedOnly);

    const auto dispatch_bytes = w.plan.DispatchBytes(
        static_cast<double>(model.embedding) * 2.0);
    const double speedup = base / run.duration_us;
    const double inter_frac = InterNodeByteFraction(cluster, dispatch_bytes);
    const double hidden = run.timeline.HiddenCommFraction();
    table.AddRow({std::to_string(nodes), std::to_string(world),
                  FormatUsAsMs(base), FormatUsAsMs(tut),
                  FormatUsAsMs(run.duration_us), FormatSpeedup(speedup),
                  FormatPercent(inter_frac), FormatPercent(hidden)});
    const std::string prefix = "nodes=" + std::to_string(nodes) + "/";
    reporter.Report(prefix + "megatron_ms", base / 1000.0, "ms");
    reporter.Report(prefix + "tutel_ms", tut / 1000.0, "ms");
    reporter.Report(prefix + "comet_ms", run.duration_us / 1000.0, "ms");
    reporter.Report(prefix + "speedup_vs_megatron", speedup, "x");
    reporter.Report(prefix + "inter_node_byte_pct", inter_frac * 100.0, "%");
    reporter.Report(prefix + "hidden_comm_pct", hidden * 100.0, "%");
  }
  std::cout << table.Render() << "\n";

  std::cout << "-- direct vs 2D-hierarchical all-to-all "
               "(uniform dispatch traffic) --\n";
  AsciiTable a2a({"nodes", "world", "direct (ms)", "hierarchical (ms)",
                  "ratio"});
  for (const int nodes : {2, 4, 8, 16}) {
    const ClusterSpec cluster = MultiNodeH800Cluster(nodes, 8);
    const int world = cluster.world_size;
    // Per-pair bytes of a uniform Qwen2 dispatch at 1024 tokens/GPU.
    const double per_pair = static_cast<double>(tokens_per_gpu) *
                            static_cast<double>(model.topk) *
                            static_cast<double>(model.embedding) * 2.0 /
                            static_cast<double>(world);
    const std::vector<std::vector<double>> bytes(
        static_cast<size_t>(world),
        std::vector<double>(static_cast<size_t>(world), per_pair));
    const double direct = AllToAllCostUs(cluster, bytes);
    const double hier = HierarchicalAllToAllCostUs(cluster, bytes);
    a2a.AddRow({std::to_string(nodes), std::to_string(world),
                FormatUsAsMs(direct), FormatUsAsMs(hier),
                FormatSpeedup(direct / hier)});
    const std::string prefix = "a2a/nodes=" + std::to_string(nodes) + "/";
    reporter.Report(prefix + "direct_ms", direct / 1000.0, "ms");
    reporter.Report(prefix + "hierarchical_ms", hier / 1000.0, "ms");
  }
  std::cout << a2a.Render() << "\n";
  PrintPaperNote(
      "no direct figure (paper evaluates single nodes; production runs on "
      "10k-GPU clusters). Expected shape: COMET's advantage grows with the "
      "inter-node communication share; hierarchical A2A beats direct as "
      "node count rises.");
  return 0;
}
