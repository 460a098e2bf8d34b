#include "moe/expert_weights.h"

#include "util/check.h"

namespace comet {

ExpertWeights ExpertWeights::Random(const ModelConfig& model, Rng& rng,
                                    float stddev, DType dtype) {
  ExpertWeights w;
  w.w0_.reserve(static_cast<size_t>(model.num_experts));
  w.w1_.reserve(static_cast<size_t>(model.num_experts));
  for (int64_t e = 0; e < model.num_experts; ++e) {
    w.w0_.push_back(Tensor::Randn(Shape{model.embedding, model.ffn_hidden},
                                  rng, stddev, dtype));
    w.w1_.push_back(Tensor::Randn(Shape{model.ffn_hidden, model.embedding},
                                  rng, stddev, dtype));
  }
  return w;
}

int64_t ExpertWeights::embedding() const {
  COMET_CHECK(!w0_.empty());
  return w0_[0].rows();
}

int64_t ExpertWeights::ffn_hidden() const {
  COMET_CHECK(!w0_.empty());
  return w0_[0].cols();
}

const Tensor& ExpertWeights::W0(int64_t expert) const {
  COMET_CHECK_GE(expert, 0);
  COMET_CHECK_LT(expert, num_experts());
  return w0_[static_cast<size_t>(expert)];
}

const Tensor& ExpertWeights::W1(int64_t expert) const {
  COMET_CHECK_GE(expert, 0);
  COMET_CHECK_LT(expert, num_experts());
  return w1_[static_cast<size_t>(expert)];
}

Tensor& ExpertWeights::MutableW0(int64_t expert) {
  COMET_CHECK_GE(expert, 0);
  COMET_CHECK_LT(expert, num_experts());
  return w0_[static_cast<size_t>(expert)];
}

Tensor& ExpertWeights::MutableW1(int64_t expert) {
  COMET_CHECK_GE(expert, 0);
  COMET_CHECK_LT(expert, num_experts());
  return w1_[static_cast<size_t>(expert)];
}

ShardedExpertWeights::ShardedExpertWeights(const ExpertWeights& full, int tp)
    : tp_(tp), num_experts_(full.num_experts()) {
  COMET_CHECK_GT(tp_, 0);
  const int64_t k = full.ffn_hidden();
  const int64_t n = full.embedding();
  COMET_CHECK_EQ(k % tp_, 0);
  const int64_t shard_k = k / tp_;

  w0_shards_.reserve(static_cast<size_t>(num_experts_ * tp_));
  w1_shards_.reserve(static_cast<size_t>(num_experts_ * tp_));
  for (int64_t e = 0; e < num_experts_; ++e) {
    const Tensor& w0 = full.W0(e);
    const Tensor& w1 = full.W1(e);
    for (int t = 0; t < tp_; ++t) {
      const int64_t col0 = static_cast<int64_t>(t) * shard_k;
      // Shards inherit the full weights' dtype: copies of representable
      // values stay representable.
      Tensor s0(Shape{n, shard_k}, w0.dtype());
      for (int64_t r = 0; r < n; ++r) {
        s0.SetRow(r, w0.row(r).subspan(static_cast<size_t>(col0),
                                       static_cast<size_t>(shard_k)));
      }
      w0_shards_.push_back(std::move(s0));

      Tensor s1(Shape{shard_k, n}, w1.dtype());
      for (int64_t r = 0; r < shard_k; ++r) {
        s1.SetRow(r, w1.row(col0 + r));
      }
      w1_shards_.push_back(std::move(s1));
    }
  }
}

const Tensor& ShardedExpertWeights::W0Shard(int64_t expert, int tp_rank) const {
  COMET_CHECK_GE(expert, 0);
  COMET_CHECK_LT(expert, num_experts_);
  COMET_CHECK_GE(tp_rank, 0);
  COMET_CHECK_LT(tp_rank, tp_);
  return w0_shards_[static_cast<size_t>(expert * tp_ + tp_rank)];
}

const Tensor& ShardedExpertWeights::W1Shard(int64_t expert, int tp_rank) const {
  COMET_CHECK_GE(expert, 0);
  COMET_CHECK_LT(expert, num_experts_);
  COMET_CHECK_GE(tp_rank, 0);
  COMET_CHECK_LT(tp_rank, tp_);
  return w1_shards_[static_cast<size_t>(expert * tp_ + tp_rank)];
}

}  // namespace comet
