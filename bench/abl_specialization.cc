// Ablation: thread-block specialization vs vertical fusion (paper §3.2.1).
//
// Vertical fusion embeds token I/O into the GEMM thread blocks themselves:
// every block pays the remote-fetch latency inline, column tiles of the same
// rows re-fetch them, and the broken TMA/MMA pipeline slows the math. The
// paper rejects this design in favour of thread-block-level isolation; this
// bench quantifies the gap.
#include "bench/bench_common.h"

using namespace comet;
using namespace comet::bench;

REGISTER_BENCH(abl_specialization, "Ablation: thread-block specialization vs vertical fusion (paper 3.2.1)") {
  ModelConfig model = Mixtral8x7B();
  model.num_experts = 8;
  model.topk = 2;
  const ParallelConfig parallel{1, 8};
  const auto cluster = H800Cluster(8);

  PrintHeader("Ablation: thread-block specialization vs vertical fusion",
              "E=8 topk=2 EP=8 TP=1, H800x8; layer duration in ms");

  AsciiTable table({"M", "specialized", "vertical fusion", "specialization gain"});
  for (int64_t m : {4096, 8192, 16384, 32768}) {
    const MoeWorkload workload = TimedWorkload(model, parallel, m);
    CometExecutor specialized{CometOptions{.specialized = true}};
    CometExecutor vertical{CometOptions{.specialized = false}};
    const double spec_us =
        specialized.Run(workload, cluster, ExecMode::kTimedOnly).duration_us;
    const double vert_us =
        vertical.Run(workload, cluster, ExecMode::kTimedOnly).duration_us;
    table.AddRow({std::to_string(m), FormatUsAsMs(spec_us),
                  FormatUsAsMs(vert_us), FormatSpeedup(vert_us / spec_us)});
    const std::string prefix = "M=" + std::to_string(m) + "/";
    reporter.Report(prefix + "specialized_ms", spec_us / 1000.0, "ms");
    reporter.Report(prefix + "vertical_fusion_ms", vert_us / 1000.0, "ms");
    reporter.Report(prefix + "specialization_gain", vert_us / spec_us, "x");
  }
  std::cout << table.Render() << "\n";
  PrintPaperNote("design-choice ablation (no paper figure): §3.2.1 argues "
                 "isolation keeps GEMM blocks at full efficiency.");
  return 0;
}
