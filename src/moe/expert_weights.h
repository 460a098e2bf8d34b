// Expert feed-forward weights and their tensor-parallel shards.
//
// Expert e owns W0_e of shape (N, K) for layer0 and W1_e of shape (K, N) for
// layer1 (paper Figure 2). Under tensor parallelism the hidden dimension K
// is split: TP rank t holds columns [t*K/TP, (t+1)*K/TP) of W0 and the
// matching rows of W1, so layer1 outputs are partial sums reduced across the
// TP group. Shards are materialized once so executors index them directly.
#pragma once

#include <cstdint>
#include <vector>

#include "moe/config.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace comet {

class ExpertWeights {
 public:
  // Random N(0, stddev) weights for all E experts. At a 2-byte dtype the
  // draw is quantized (RNE) after sampling, so the low-precision weights are
  // exactly the rounded f32 weights of the same rng state.
  static ExpertWeights Random(const ModelConfig& model, Rng& rng,
                              float stddev = 0.05f,
                              DType dtype = DType::kF32);

  int64_t num_experts() const { return static_cast<int64_t>(w0_.size()); }
  int64_t embedding() const;
  int64_t ffn_hidden() const;

  const Tensor& W0(int64_t expert) const;  // (N, K)
  const Tensor& W1(int64_t expert) const;  // (K, N)

  // Mutable access for optimizer steps and finite-difference tests. After
  // mutating, rebuild any ShardedExpertWeights derived from this object.
  Tensor& MutableW0(int64_t expert);
  Tensor& MutableW1(int64_t expert);

 private:
  std::vector<Tensor> w0_;
  std::vector<Tensor> w1_;
};

// Column/row shards of the full weights for a TP degree.
class ShardedExpertWeights {
 public:
  ShardedExpertWeights(const ExpertWeights& full, int tp);

  // W0 shard of `expert` on TP rank `tp_rank`: (N, K/TP).
  const Tensor& W0Shard(int64_t expert, int tp_rank) const;
  // W1 shard of `expert` on TP rank `tp_rank`: (K/TP, N).
  const Tensor& W1Shard(int64_t expert, int tp_rank) const;

 private:
  int tp_;
  int64_t num_experts_;
  std::vector<Tensor> w0_shards_;  // expert-major, then tp
  std::vector<Tensor> w1_shards_;
};

}  // namespace comet
