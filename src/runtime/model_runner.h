// End-to-end MoE model execution (paper Figure 9 and Figure 1(a)).
//
// A transformer layer is attention + one MoE layer. Attention is identical
// across all mechanisms (the hatched region of Figure 9): only the MoE layer
// differs, so the runner prices attention once through the shared cost model
// and multiplies the per-layer total by L.
#pragma once

#include <cstdint>
#include <memory>

#include "exec/execution.h"

namespace comet {

struct ModelRunConfig {
  ModelConfig model;
  ParallelConfig parallel;
  int64_t total_tokens = 0;  // M
  uint64_t seed = 1;
  double load_std = 0.0;
};

struct ModelRunResult {
  std::string executor;
  // Per-layer numbers, us.
  double attention_us = 0.0;
  double moe_us = 0.0;
  // Whole model (L layers), ms.
  double total_ms = 0.0;
  double moe_only_ms = 0.0;
  // The MoE layer execution (timing detail of the critical rank).
  LayerExecution moe_layer;
};

// Runs `config.model` end-to-end on `cluster` with the given executor.
ModelRunResult RunModel(MoeLayerExecutor& executor,
                        const ModelRunConfig& config,
                        const ClusterSpec& cluster);

// Which backward implementation a training step uses for the MoE layers.
enum class MoeBackwardKind {
  kComet,       // mirrored fused kernels (core/comet_backward)
  kSequential,  // Megatron-style one-kernel-per-op backward
};

struct TrainStepResult {
  std::string name;
  // Per transformer layer, us.
  double attention_fwd_us = 0.0;
  double attention_bwd_us = 0.0;
  double moe_fwd_us = 0.0;
  double moe_bwd_us = 0.0;
  // Whole model (L layers), ms.
  double total_ms = 0.0;
  double moe_only_ms = 0.0;
};

// Times one full training step (forward + backward over all L layers).
// Attention backward is priced at 2x forward (dgrad + wgrad re-walk the same
// GEMMs), identical across mechanisms; only the MoE layers differ.
TrainStepResult RunTrainingStep(MoeLayerExecutor& executor,
                                MoeBackwardKind backward,
                                const ModelRunConfig& config,
                                const ClusterSpec& cluster);

}  // namespace comet
