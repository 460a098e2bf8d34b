// Integration tests: end-to-end model runs, traffic accounting against the
// plan's communication matrices, and the qualitative claims each paper
// experiment relies on (who wins, and roughly by how much).
#include <gtest/gtest.h>

#include "baselines/fastermoe.h"
#include "baselines/megatron.h"
#include "baselines/tutel.h"
#include "comm/symmetric_heap.h"
#include "core/comet_executor.h"
#include "runtime/model_runner.h"
#include "util/check.h"

namespace comet {
namespace {

MoeWorkload PaperWorkload(const ModelConfig& model, int tp, int ep, int64_t m,
                          double std = 0.0) {
  WorkloadOptions options;
  options.seed = 2;
  options.load_std = std;
  options.materialize = false;
  return MakeWorkload(model, ParallelConfig{tp, ep}, m, options);
}

// ---- end-to-end model runner ---------------------------------------------------

TEST(ModelRunner, AttentionIdenticalAcrossExecutors) {
  ModelRunConfig config;
  config.model = Mixtral8x7B();
  config.parallel = ParallelConfig{1, 8};
  config.total_tokens = 4096;
  const auto cluster = H800Cluster(8);

  CometExecutor comet;
  MegatronExecutor megatron = MakeMegatronCutlass();
  const ModelRunResult a = RunModel(comet, config, cluster);
  const ModelRunResult b = RunModel(megatron, config, cluster);
  EXPECT_DOUBLE_EQ(a.attention_us, b.attention_us);
  EXPECT_NE(a.moe_us, b.moe_us);
}

TEST(ModelRunner, TotalScalesWithLayers) {
  ModelRunConfig config;
  config.model = Mixtral8x7B();
  config.parallel = ParallelConfig{1, 8};
  config.total_tokens = 4096;
  const auto cluster = H800Cluster(8);
  CometExecutor comet;
  const ModelRunResult run = RunModel(comet, config, cluster);
  EXPECT_NEAR(run.total_ms,
              32.0 * (run.attention_us + run.moe_us) / 1000.0, 1e-9);
}

TEST(ModelRunner, RejectsUnsupportedExecutor) {
  ModelRunConfig config;
  config.model = Mixtral8x7B();
  config.parallel = ParallelConfig{2, 4};
  config.total_tokens = 4096;
  FasterMoeExecutor fastermoe;
  EXPECT_THROW(RunModel(fastermoe, config, H800Cluster(8)), CheckError);
}

// ---- paper-shape claims -----------------------------------------------------------

TEST(PaperShapes, Fig9CometBeatsAllBaselinesEndToEnd) {
  const auto cluster = H800Cluster(8);
  for (const ModelConfig& model : {Mixtral8x7B(), Phi35Moe()}) {
    ModelRunConfig config;
    config.model = model;
    config.parallel = ParallelConfig{1, 8};
    config.total_tokens = 8192;
    CometExecutor comet;
    const double comet_ms = RunModel(comet, config, cluster).total_ms;

    MegatronExecutor cutlass = MakeMegatronCutlass();
    MegatronExecutor te = MakeMegatronTe();
    FasterMoeExecutor fastermoe;
    TutelExecutor tutel;
    for (MoeLayerExecutor* exec :
         std::initializer_list<MoeLayerExecutor*>{&cutlass, &te, &fastermoe,
                                                  &tutel}) {
      const double base_ms = RunModel(*exec, config, cluster).total_ms;
      EXPECT_LT(comet_ms, base_ms) << model.name << " vs " << exec->name();
    }
  }
}

TEST(PaperShapes, Fig10SpeedupInPaperRange) {
  // Single-layer speedups of Comet vs each baseline should land in a band
  // around the paper's reported 1.28x - 2.37x.
  const auto cluster = H800Cluster(8);
  ModelConfig model = Mixtral8x7B();
  CometExecutor comet;
  MegatronExecutor te = MakeMegatronTe();
  TutelExecutor tutel;
  for (int64_t m : {4096, 16384}) {
    const MoeWorkload w = PaperWorkload(model, 1, 8, m);
    const double comet_us =
        comet.Run(w, cluster, ExecMode::kTimedOnly).duration_us;
    const double te_us = te.Run(w, cluster, ExecMode::kTimedOnly).duration_us;
    const double tutel_us =
        tutel.Run(w, cluster, ExecMode::kTimedOnly).duration_us;
    EXPECT_GT(te_us / comet_us, 1.2) << "M=" << m;
    EXPECT_LT(te_us / comet_us, 3.0) << "M=" << m;
    EXPECT_GT(tutel_us / comet_us, 1.1) << "M=" << m;
  }
}

TEST(PaperShapes, Fig11HiddenCommOrdering) {
  // Comet > Tutel > FasterMoE > Megatron (= 0) in hidden-communication
  // fraction (paper: 86.5% / 68.6% / 29.2% / 0%).
  const auto cluster = H800Cluster(8);
  const MoeWorkload w = PaperWorkload(Mixtral8x7B(), 1, 8, 16384);
  CometExecutor comet;
  TutelExecutor tutel;
  FasterMoeExecutor fastermoe;
  MegatronExecutor cutlass = MakeMegatronCutlass();
  const double h_comet =
      comet.Run(w, cluster, ExecMode::kTimedOnly).timeline.HiddenCommFraction();
  const double h_tutel =
      tutel.Run(w, cluster, ExecMode::kTimedOnly).timeline.HiddenCommFraction();
  const double h_fm = fastermoe.Run(w, cluster, ExecMode::kTimedOnly)
                          .timeline.HiddenCommFraction();
  const double h_meg = cutlass.Run(w, cluster, ExecMode::kTimedOnly)
                           .timeline.HiddenCommFraction();
  EXPECT_GT(h_comet, h_tutel);
  EXPECT_GT(h_tutel, h_fm);
  EXPECT_GT(h_fm, h_meg);
  EXPECT_DOUBLE_EQ(h_meg, 0.0);
  EXPECT_GT(h_comet, 0.75);
  EXPECT_LT(h_fm, 0.45);
}

TEST(PaperShapes, Fig12BaselinesDegradeWithTpCometFlat) {
  const auto cluster = H800Cluster(8);
  ModelConfig model = Mixtral8x7B();
  MegatronExecutor cutlass = MakeMegatronCutlass();
  CometExecutor comet;
  const MoeWorkload ep8 = PaperWorkload(model, 1, 8, 8192);
  const MoeWorkload tp8 = PaperWorkload(model, 8, 1, 8192);
  const double meg_ep = cutlass.Run(ep8, cluster, ExecMode::kTimedOnly).duration_us;
  const double meg_tp = cutlass.Run(tp8, cluster, ExecMode::kTimedOnly).duration_us;
  const double comet_ep = comet.Run(ep8, cluster, ExecMode::kTimedOnly).duration_us;
  const double comet_tp = comet.Run(tp8, cluster, ExecMode::kTimedOnly).duration_us;
  EXPECT_GT(meg_tp, 1.5 * meg_ep);          // baselines fragment under TP
  EXPECT_LT(comet_tp, 1.5 * comet_ep);      // Comet stays flat
  EXPECT_GT(meg_tp / comet_tp, 2.0);        // largest gap at TP=8
}

TEST(PaperShapes, Fig13DurationGrowsWithTopk) {
  const auto cluster = H800Cluster(8);
  CometExecutor comet;
  double prev = 0.0;
  for (int64_t topk : {1, 2, 4}) {
    ModelConfig model = Mixtral8x7B();
    model.topk = topk;
    const MoeWorkload w = PaperWorkload(model, 1, 8, 8192);
    const double us = comet.Run(w, cluster, ExecMode::kTimedOnly).duration_us;
    EXPECT_GT(us, prev);
    prev = us;
  }
}

TEST(PaperShapes, Fig14ImbalanceSlowsEveryone) {
  const auto cluster = H800Cluster(8);
  CometExecutor comet;
  MegatronExecutor cutlass = MakeMegatronCutlass();
  const MoeWorkload uniform = PaperWorkload(Mixtral8x7B(), 1, 8, 8192, 0.0);
  const MoeWorkload skewed = PaperWorkload(Mixtral8x7B(), 1, 8, 8192, 0.05);
  EXPECT_GT(comet.Run(skewed, cluster, ExecMode::kTimedOnly).duration_us,
            comet.Run(uniform, cluster, ExecMode::kTimedOnly).duration_us);
  EXPECT_GT(cutlass.Run(skewed, cluster, ExecMode::kTimedOnly).duration_us,
            cutlass.Run(uniform, cluster, ExecMode::kTimedOnly).duration_us);
}

TEST(PaperShapes, Fig14CometLeadsOnL20) {
  const auto cluster = L20Cluster(8);
  ModelConfig model = Mixtral8x7B();
  model.topk = 4;
  const MoeWorkload w = PaperWorkload(model, 1, 8, 8192);
  CometExecutor comet;
  TutelExecutor tutel;
  MegatronExecutor cutlass = MakeMegatronCutlass();
  const double comet_us = comet.Run(w, cluster, ExecMode::kTimedOnly).duration_us;
  EXPECT_LT(comet_us, tutel.Run(w, cluster, ExecMode::kTimedOnly).duration_us);
  EXPECT_LT(comet_us,
            cutlass.Run(w, cluster, ExecMode::kTimedOnly).duration_us);
}

// ---- functional traffic accounting ---------------------------------------------

TEST(TrafficAccounting, CometMovesExactlyThePlannedDispatchBytes) {
  // Run the functional executor and compare the symmetric heap's dispatch
  // traffic against the plan's communication matrix (f32 rows).
  ModelConfig model;
  model.name = "traffic";
  model.layers = 1;
  model.num_experts = 4;
  model.topk = 2;
  model.embedding = 16;
  model.ffn_hidden = 32;
  WorkloadOptions options;
  options.seed = 3;
  const MoeWorkload w = MakeWorkload(model, ParallelConfig{1, 4}, 32, options);

  // Mirror the executor's dispatch reads through a fresh heap.
  SymmetricHeap heap(4);
  const auto buf = heap.Allocate("in", Shape{8, 16});
  for (int r = 0; r < 4; ++r) {
    heap.Local(buf, r) = w.inputs[static_cast<size_t>(r)];
  }
  std::vector<float> dst(16);
  for (int r = 0; r < 4; ++r) {
    for (const auto& slice : w.plan.ForRank(r).experts) {
      for (const auto& row : slice.rows) {
        const int64_t local =
            row.token - w.placement.FirstTokenOfGroup(row.source_group);
        heap.CopyRow(buf, r, row.source_group, local, dst);
      }
    }
  }
  const auto planned = w.plan.DispatchBytes(16.0 * 4.0);  // N * sizeof(float)
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(heap.Traffic(i, j),
                       planned[static_cast<size_t>(i)][static_cast<size_t>(j)])
          << i << "->" << j;
    }
  }
}

// ---- end-to-end training step ---------------------------------------------------

TEST(TrainingStep, CometStepBeatsSequentialStep) {
  ModelRunConfig config;
  config.model = Mixtral8x7B();
  config.parallel = ParallelConfig{1, 8};
  config.total_tokens = 8192;
  const auto cluster = H800Cluster(8);

  CometExecutor comet;
  MegatronExecutor megatron = MakeMegatronCutlass();
  const TrainStepResult ours = RunTrainingStep(
      comet, MoeBackwardKind::kComet, config, cluster);
  const TrainStepResult base = RunTrainingStep(
      megatron, MoeBackwardKind::kSequential, config, cluster);
  // Attention is identical; only the MoE fwd+bwd differ.
  EXPECT_DOUBLE_EQ(ours.attention_fwd_us, base.attention_fwd_us);
  EXPECT_DOUBLE_EQ(ours.attention_bwd_us, 2.0 * ours.attention_fwd_us);
  EXPECT_LT(ours.moe_fwd_us, base.moe_fwd_us);
  EXPECT_LT(ours.moe_bwd_us, base.moe_bwd_us);
  EXPECT_LT(ours.total_ms, base.total_ms);
}

TEST(TrainingStep, BackwardCostsMoreThanForward) {
  ModelRunConfig config;
  config.model = Mixtral8x7B();
  config.parallel = ParallelConfig{1, 8};
  config.total_tokens = 8192;
  CometExecutor comet;
  const TrainStepResult run = RunTrainingStep(
      comet, MoeBackwardKind::kComet, config, H800Cluster(8));
  EXPECT_GT(run.moe_bwd_us, run.moe_fwd_us);
  EXPECT_NEAR(run.total_ms,
              32.0 * (run.attention_fwd_us + run.attention_bwd_us +
                      run.moe_fwd_us + run.moe_bwd_us) / 1000.0,
              1e-9);
}

}  // namespace
}  // namespace comet
