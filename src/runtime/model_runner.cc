#include "runtime/model_runner.h"

#include "core/comet_backward.h"
#include "exec/op_costs.h"
#include "util/check.h"

namespace comet {

ModelRunResult RunModel(MoeLayerExecutor& executor,
                        const ModelRunConfig& config,
                        const ClusterSpec& cluster) {
  COMET_CHECK_GT(config.total_tokens, 0);
  COMET_CHECK(executor.Supports(config.parallel))
      << executor.name() << " does not support "
      << config.parallel.ToString();

  WorkloadOptions options;
  options.seed = config.seed;
  options.load_std = config.load_std;
  // The runner only exercises the timing plane; materializing weights for a
  // paper-scale model would cost gigabytes for nothing.
  options.materialize = false;
  const MoeWorkload workload = MakeWorkload(config.model, config.parallel,
                                            config.total_tokens, options);

  const OpCostModel costs(cluster);
  // Tokens per device outside the MoE layer: the EP-group shard (replicated
  // across TP lanes).
  const int64_t device_tokens = workload.placement.tokens_per_group();
  // Attention block: QKV + core attention + projection kernels (identical
  // across mechanisms), plus a handful of launches.
  const double attention_us =
      costs.AttentionUs(device_tokens, config.model.embedding,
                        config.parallel.tp) +
      6.0 * costs.LaunchUs();

  ModelRunResult result;
  result.executor = executor.name();
  result.moe_layer = executor.Run(workload, cluster, ExecMode::kTimedOnly);
  result.attention_us = attention_us;
  result.moe_us = result.moe_layer.duration_us;
  const double layers = static_cast<double>(config.model.layers);
  result.total_ms = layers * (attention_us + result.moe_us) / 1000.0;
  result.moe_only_ms = layers * result.moe_us / 1000.0;
  return result;
}

TrainStepResult RunTrainingStep(MoeLayerExecutor& executor,
                                MoeBackwardKind backward,
                                const ModelRunConfig& config,
                                const ClusterSpec& cluster) {
  COMET_CHECK_GT(config.total_tokens, 0);
  WorkloadOptions options;
  options.seed = config.seed;
  options.load_std = config.load_std;
  options.materialize = false;
  const MoeWorkload workload = MakeWorkload(config.model, config.parallel,
                                            config.total_tokens, options);
  const OpCostModel costs(cluster);
  const int64_t device_tokens = workload.placement.tokens_per_group();
  const double attention_fwd =
      costs.AttentionUs(device_tokens, config.model.embedding,
                        config.parallel.tp) +
      6.0 * costs.LaunchUs();

  TrainStepResult result;
  result.name = executor.name() + (backward == MoeBackwardKind::kComet
                                       ? "+Comet-bwd"
                                       : "+seq-bwd");
  result.attention_fwd_us = attention_fwd;
  result.attention_bwd_us = 2.0 * attention_fwd;
  result.moe_fwd_us =
      executor.Run(workload, cluster, ExecMode::kTimedOnly).duration_us;
  const std::vector<Tensor> no_dout;
  result.moe_bwd_us =
      backward == MoeBackwardKind::kComet
          ? CometBackward(workload, cluster, no_dout, ExecMode::kTimedOnly)
                .duration_us
          : SequentialBackward(workload, cluster, no_dout,
                               ExecMode::kTimedOnly)
                .duration_us;
  const double layers = static_cast<double>(config.model.layers);
  const double per_layer = result.attention_fwd_us + result.attention_bwd_us +
                           result.moe_fwd_us + result.moe_bwd_us;
  result.total_ms = layers * per_layer / 1000.0;
  result.moe_only_ms =
      layers * (result.moe_fwd_us + result.moe_bwd_us) / 1000.0;
  return result;
}

}  // namespace comet
