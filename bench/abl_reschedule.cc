// Ablation: shared-tensor rescheduling (paper §3.1.2).
//
// COMET with rescheduling ON sorts layer0 rows by source (locals first) and
// runs layer1 tiles column-panel-major; OFF leaves the canonical token-order
// rows and expert-major tiles. Everything else (specialization, adaptive nc)
// stays identical, so the delta isolates the rescheduling contribution: with
// canonical order, early tiles wait on remote tokens (layer0) and the
// combine cannot start until the last expert finishes (layer1).
#include "bench/bench_common.h"

using namespace comet;
using namespace comet::bench;

REGISTER_BENCH(abl_reschedule, "Ablation: shared-tensor rescheduling on/off (paper 3.1.2)") {
  ModelConfig model = Mixtral8x7B();
  model.num_experts = 8;
  model.topk = 2;
  const ParallelConfig parallel{1, 8};
  const auto cluster = H800Cluster(8);

  PrintHeader("Ablation: shared-tensor rescheduling",
              "E=8 topk=2 EP=8 TP=1, H800x8; layer duration in ms");

  AsciiTable table({"M", "Comet (resched ON)", "Comet (resched OFF)",
                    "reschedule gain"});
  for (int64_t m : {4096, 8192, 16384, 32768}) {
    const MoeWorkload workload = TimedWorkload(model, parallel, m);
    CometExecutor on{CometOptions{.reschedule = true}};
    CometExecutor off{CometOptions{.reschedule = false}};
    const double on_us =
        on.Run(workload, cluster, ExecMode::kTimedOnly).duration_us;
    const double off_us =
        off.Run(workload, cluster, ExecMode::kTimedOnly).duration_us;
    table.AddRow({std::to_string(m), FormatUsAsMs(on_us), FormatUsAsMs(off_us),
                  FormatSpeedup(off_us / on_us)});
    const std::string prefix = "M=" + std::to_string(m) + "/";
    reporter.Report(prefix + "resched_on_ms", on_us / 1000.0, "ms");
    reporter.Report(prefix + "resched_off_ms", off_us / 1000.0, "ms");
    reporter.Report(prefix + "reschedule_gain", off_us / on_us, "x");
  }
  std::cout << table.Render() << "\n";
  PrintPaperNote("design-choice ablation (no paper figure): rescheduling is "
                 "what turns fine-grained decomposition into actual overlap.");
  return 0;
}
