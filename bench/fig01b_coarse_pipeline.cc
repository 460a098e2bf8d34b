// Figure 1(b): coarse-grained communication-computation overlap by chunking.
//
// The paper's motivating illustration: splitting the input into C chunks
// lets chunk c+1's all-to-all overlap chunk c's expert GEMM, but (a) each
// chunk's GEMM runs on 1/C of the rows and loses efficiency (t1 + t2 > t:
// wave quantization + smaller per-expert batches), and (b) the first
// receive and last send can never be hidden. This bench sweeps the pipeline
// degree of a chunked kernel-per-op baseline and compares against both the
// unpipelined baseline (degree 1) and COMET's fine-grained overlap, showing
// why chunking alone plateaus well short of COMET.
#include "bench/bench_common.h"
#include "sim/stream_sim.h"

using namespace comet;
using namespace comet::bench;

namespace {

// Chunked Megatron-style MoE layer on `rank`: phase-major, chunk-minor
// issue so chunk c+1's dispatch overlaps chunk c's experts (the Figure 1(b)
// schedule), with per-chunk kernels and launches. `collectives` are priced
// for a chunk of 1 / `degree`.
double ChunkedLayerUs(const MoeWorkload& w, const OpCostModel& costs,
                      const BaselineCollectives& collectives, int rank,
                      int degree) {
  const BaselineQuantities q = ComputeQuantities(w, costs, collectives, rank);
  StreamSim sim(costs.LaunchUs());
  const int comp = sim.AddStream();
  const int comm = sim.AddStream();
  sim.Launch(comp, "gate", OpCategory::kGating, q.gate_us);
  sim.HostWork("routing-bookkeeping", kAuxRoutingKernels * costs.LaunchUs());

  std::vector<KernelId> a2a(static_cast<size_t>(degree));
  std::vector<KernelId> gemm1(static_cast<size_t>(degree));
  for (int c = 0; c < degree; ++c) {
    const KernelId perm = sim.Launch(comp, "permute", OpCategory::kLayer0Comp,
                                     q.permute_us);
    a2a[static_cast<size_t>(c)] = sim.Launch(
        comm, "a2a-dispatch", OpCategory::kLayer0Comm, q.a2a_dispatch_us,
        {perm});
  }
  for (int c = 0; c < degree; ++c) {
    const KernelId g0 = sim.Launch(comp, "gemm0", OpCategory::kLayer0Comp,
                                   q.gemm0_us, {a2a[static_cast<size_t>(c)]});
    const KernelId act = sim.Launch(comp, "act", OpCategory::kActivation,
                                    q.activation_us, {g0});
    gemm1[static_cast<size_t>(c)] =
        sim.Launch(comp, "gemm1", OpCategory::kLayer1Comp, q.gemm1_us, {act});
  }
  for (int c = 0; c < degree; ++c) {
    const KernelId ret = sim.Launch(comm, "a2a-return",
                                    OpCategory::kLayer1Comm, q.a2a_return_us,
                                    {gemm1[static_cast<size_t>(c)]});
    sim.Launch(comp, "combine", OpCategory::kLayer1Comp, q.unpermute_us,
               {ret});
  }
  return sim.Finish();
}

}  // namespace

REGISTER_BENCH(fig01b_coarse_pipeline, "Figure 1(b): coarse-grained overlap by chunking") {
  ModelConfig model = Mixtral8x7B();
  model.num_experts = 8;
  model.topk = 2;
  const auto cluster = H800Cluster(8);
  const OpCostModel costs(cluster);

  PrintHeader("Figure 1(b): coarse-grained pipelining vs fine-grained overlap",
              "E=8 topk=2 EP=8 TP=1, Mixtral shapes, H800x8; layer ms "
              "(worst rank)");

  AsciiTable table({"M", "no overlap (C=1)", "C=2", "C=4", "C=8",
                    "best chunked", "Comet", "Comet vs best chunked"});
  for (const int64_t m : {4096, 8192, 16384}) {
    const MoeWorkload w = TimedWorkload(model, ParallelConfig{1, 8}, m);
    std::vector<std::string> row{std::to_string(m)};
    const std::string prefix = "M=" + std::to_string(m) + "/";
    double best_chunked = 1e300;
    for (const int degree : {1, 2, 4, 8}) {
      const BaselineCollectives collectives =
          ComputeCollectives(w, costs, 1.0 / degree);
      double worst = 0.0;
      for (int r = 0; r < w.world(); ++r) {
        worst = std::max(worst,
                         ChunkedLayerUs(w, costs, collectives, r, degree));
      }
      row.push_back(FormatUsAsMs(worst));
      reporter.Report(prefix + "C=" + std::to_string(degree) + "_ms",
                      worst / 1000.0, "ms");
      if (degree > 1) {
        best_chunked = std::min(best_chunked, worst);
      }
    }
    CometExecutor comet;
    const double ours =
        comet.Run(w, cluster, ExecMode::kTimedOnly).duration_us;
    reporter.Report(prefix + "best_chunked_ms", best_chunked / 1000.0, "ms");
    reporter.Report(prefix + "comet_ms", ours / 1000.0, "ms");
    reporter.Report(prefix + "speedup_vs_best_chunked", best_chunked / ours,
                    "x");
    row.push_back(FormatUsAsMs(best_chunked));
    row.push_back(FormatUsAsMs(ours));
    row.push_back(FormatSpeedup(best_chunked / ours));
    table.AddRow(std::move(row));
  }
  std::cout << table.Render() << "\n";
  PrintPaperNote(
      "Figure 1(b) is illustrative (no numbers): chunking helps over no "
      "overlap but partitioned experts pay t1 + t2 > t and the first/last "
      "phases never hide, so gains plateau; COMET's fine-grained overlap "
      "beats the best chunk degree.");
  return 0;
}
