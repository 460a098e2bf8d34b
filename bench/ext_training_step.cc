// Extension experiment: full training step (forward + backward) of one MoE
// layer. The paper deploys COMET for large-scale TRAINING (§1: "savings of
// millions of GPU hours"), but its figures only time the forward pass; this
// bench extends the evaluation to the backward pass, whose two pipelines are
// exact structural mirrors of the forward ones (core/comet_backward.h).
//
// COMET-bwd overlaps the combine-grad dispatch with the dgrad1 GroupGEMM,
// the undispatch with dgrad0, and runs wgrad0 under the undispatch's
// communication tail. The baseline is a Megatron-style sequential backward
// (one kernel per operator, no overlap).
#include "bench/bench_common.h"
#include "core/comet_backward.h"
#include "runtime/model_runner.h"

using namespace comet;
using namespace comet::bench;

REGISTER_BENCH(ext_training_step, "Extension: full training step (forward + backward)") {
  ModelConfig model = Mixtral8x7B();
  model.num_experts = 8;
  model.topk = 2;
  const auto cluster = H800Cluster(8);
  const std::vector<Tensor> no_dout;

  PrintHeader("Extension: MoE training step (forward + backward)",
              "Mixtral expert shapes, E=8 topk=2, H800x8, times in ms");

  for (const ParallelConfig parallel : {ParallelConfig{1, 8},
                                        ParallelConfig{2, 4}}) {
    std::cout << "-- parallelism " << parallel.ToString() << " --\n";
    AsciiTable table({"M", "fwd Megatron", "fwd Comet", "bwd Megatron",
                      "bwd Comet", "step Megatron", "step Comet", "speedup"});
    for (int64_t m : {2048, 4096, 8192, 16384, 32768}) {
      const MoeWorkload w = TimedWorkload(model, parallel, m);
      MegatronExecutor megatron = MakeMegatronCutlass();
      CometExecutor comet_fwd;
      const double fwd_base =
          megatron.Run(w, cluster, ExecMode::kTimedOnly).duration_us;
      const double fwd_comet =
          comet_fwd.Run(w, cluster, ExecMode::kTimedOnly).duration_us;
      const double bwd_base =
          SequentialBackward(w, cluster, no_dout, ExecMode::kTimedOnly)
              .duration_us;
      const double bwd_comet =
          CometBackward(w, cluster, no_dout, ExecMode::kTimedOnly)
              .duration_us;
      const double step_base = fwd_base + bwd_base;
      const double step_comet = fwd_comet + bwd_comet;
      const std::string prefix = parallel.ToString() + "/M=" +
                                 std::to_string(m) + "/";
      reporter.Report(prefix + "fwd_megatron_ms", fwd_base / 1000.0, "ms");
      reporter.Report(prefix + "fwd_comet_ms", fwd_comet / 1000.0, "ms");
      reporter.Report(prefix + "bwd_megatron_ms", bwd_base / 1000.0, "ms");
      reporter.Report(prefix + "bwd_comet_ms", bwd_comet / 1000.0, "ms");
      reporter.Report(prefix + "step_speedup", step_base / step_comet, "x");
      table.AddRow({std::to_string(m), FormatUsAsMs(fwd_base),
                    FormatUsAsMs(fwd_comet), FormatUsAsMs(bwd_base),
                    FormatUsAsMs(bwd_comet), FormatUsAsMs(step_base),
                    FormatUsAsMs(step_comet),
                    FormatSpeedup(step_base / step_comet)});
    }
    std::cout << table.Render() << "\n";
  }

  // End-to-end: full models, L layers of attention (fwd+bwd, identical) and
  // MoE (fwd+bwd, system-dependent).
  std::cout << "-- end-to-end training step, full models, TP1xEP8, "
               "M=8192 --\n";
  AsciiTable e2e({"model", "system", "MoE f+b (ms)", "step (ms)", "speedup"});
  for (const ModelConfig& m :
       {Mixtral8x7B(), Qwen2Moe(), Phi35Moe()}) {
    ModelRunConfig config;
    config.model = m;
    config.parallel = ParallelConfig{1, 8};
    config.total_tokens = 8192;
    config.load_std = 0.032;
    MegatronExecutor megatron = MakeMegatronCutlass();
    CometExecutor comet_exec;
    const TrainStepResult base = RunTrainingStep(
        megatron, MoeBackwardKind::kSequential, config, cluster);
    const TrainStepResult ours = RunTrainingStep(
        comet_exec, MoeBackwardKind::kComet, config, cluster);
    const std::string prefix = "e2e/" + m.name + "/";
    reporter.Report(prefix + base.name + "_moe_ms", base.moe_only_ms, "ms");
    reporter.Report(prefix + base.name + "_step_ms", base.total_ms, "ms");
    reporter.Report(prefix + ours.name + "_moe_ms", ours.moe_only_ms, "ms");
    reporter.Report(prefix + ours.name + "_step_ms", ours.total_ms, "ms");
    reporter.Report(prefix + "step_speedup", base.total_ms / ours.total_ms,
                    "x");
    e2e.AddRow({m.name, base.name, FormatDouble(base.moe_only_ms, 1),
                FormatDouble(base.total_ms, 1), "1.00x"});
    e2e.AddRow({m.name, ours.name, FormatDouble(ours.moe_only_ms, 1),
                FormatDouble(ours.total_ms, 1),
                FormatSpeedup(base.total_ms / ours.total_ms)});
  }
  std::cout << e2e.Render() << "\n";

  PrintPaperNote(
      "no direct figure (the paper times forward only); the forward-pass "
      "speedup band is 1.28-2.37x (Fig. 10) and backward mirrors the same "
      "pipelines, so the step speedup should land in a similar band.");
  return 0;
}
