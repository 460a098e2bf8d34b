#include "moe/backward.h"

#include "moe/group_gemm.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace comet {
namespace {

// Row of the per-group dout stack for global token `t`.
std::span<const float> DoutRow(const MoeWorkload& w,
                               const std::vector<Tensor>& dout, int64_t t) {
  const int group = w.placement.HomeGroupOfToken(t);
  const int64_t local = t - w.placement.FirstTokenOfGroup(group);
  return dout[static_cast<size_t>(group)].row(local);
}

void CheckDoutShape(const MoeWorkload& w, const std::vector<Tensor>& dout) {
  COMET_CHECK_EQ(static_cast<int>(dout.size()), w.placement.parallel().ep);
  for (const Tensor& t : dout) {
    COMET_CHECK_EQ(t.rows(), w.placement.tokens_per_group());
    COMET_CHECK_EQ(t.cols(), w.model().embedding);
  }
}

MoeGradients ZeroGradients(const MoeWorkload& w) {
  MoeGradients grads;
  const int ep = w.placement.parallel().ep;
  grads.dinput.reserve(static_cast<size_t>(ep));
  for (int g = 0; g < ep; ++g) {
    grads.dinput.emplace_back(
        Shape{w.placement.tokens_per_group(), w.model().embedding});
  }
  grads.dw0.reserve(static_cast<size_t>(w.model().num_experts));
  grads.dw1.reserve(static_cast<size_t>(w.model().num_experts));
  for (int64_t e = 0; e < w.model().num_experts; ++e) {
    grads.dw0.emplace_back(Shape{w.model().embedding, w.model().ffn_hidden});
    grads.dw1.emplace_back(Shape{w.model().ffn_hidden, w.model().embedding});
  }
  grads.dgate = Tensor(Shape{w.placement.total_tokens(), w.model().topk});
  return grads;
}

float Dot(std::span<const float> a, std::span<const float> b) {
  COMET_CHECK_EQ(a.size(), b.size());
  float acc = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

// Scales each row i of `dy` by weights[i] from `dout` rows. At a 2-byte
// compute dtype each product rounds on store (the combine-backward kernel
// writes dY into the 2-byte dispatch buffer), so what feeds the dgrad GEMMs
// is representable.
Tensor WeightedDout(const MoeWorkload& w, const std::vector<Tensor>& dout,
                    const ExpertBatch& batch,
                    DType compute_dtype = DType::kF32) {
  Tensor dy(Shape{static_cast<int64_t>(batch.tokens.size()),
                  w.model().embedding},
            compute_dtype);
  ParallelFor(0, static_cast<int64_t>(batch.tokens.size()), 16, [&](int64_t i) {
    const auto src = DoutRow(w, dout, batch.tokens[static_cast<size_t>(i)]);
    auto dst = dy.row(i);
    const float weight = batch.weights[static_cast<size_t>(i)];
    for (size_t c = 0; c < dst.size(); ++c) {
      dst[c] = weight * src[c];
    }
    QuantizeSpan(dst, compute_dtype);
  });
  return dy;
}

}  // namespace

ExpertForwardStash ForwardWithStash(const MoeWorkload& w, int64_t expert) {
  COMET_CHECK(w.weights != nullptr)
      << "backward needs a materialized workload";
  ExpertForwardStash stash;
  stash.batch = GatherExpertBatch(w, expert);
  const int64_t rows = static_cast<int64_t>(stash.batch.tokens.size());
  stash.hidden_pre = Tensor(Shape{rows, w.model().ffn_hidden});
  if (rows == 0) {
    return stash;
  }
  Gemm(stash.batch.rows, w.weights->W0(expert), stash.hidden_pre);
  stash.hidden_post = stash.hidden_pre;  // copy, then activate in place
  ApplyActivation(stash.hidden_post, w.activation);
  stash.output = Tensor(Shape{rows, w.model().embedding});
  Gemm(stash.hidden_post, w.weights->W1(expert), stash.output);
  return stash;
}

MoeGradients ReferenceMoeBackward(const MoeWorkload& w,
                                  const std::vector<Tensor>& dout) {
  COMET_CHECK(w.weights != nullptr)
      << "backward needs a materialized workload";
  CheckDoutShape(w, dout);
  MoeGradients grads = ZeroGradients(w);

  const int64_t m = w.placement.total_tokens();
  const int64_t n = w.model().embedding;
  const int64_t topk = w.model().topk;

  // dinput contributions per (token, slot), reduced slot-ascending at the
  // end -- the exact mirror of the forward's canonical combine.
  Tensor contributions(Shape{m * topk, n});

  for (int64_t e = 0; e < w.model().num_experts; ++e) {
    const ExpertForwardStash stash = ForwardWithStash(w, e);
    const auto& batch = stash.batch;
    const int64_t rows = static_cast<int64_t>(batch.tokens.size());
    if (rows == 0) {
      continue;
    }

    // Combine backward: dY_i = weight_i * dout(t_i); dgate = <dout, Y_i>.
    const Tensor dy = WeightedDout(w, dout, batch);
    for (int64_t i = 0; i < rows; ++i) {
      const int64_t t = batch.tokens[static_cast<size_t>(i)];
      const int64_t slot = batch.slots[static_cast<size_t>(i)];
      grads.dgate.at({t, slot}) =
          Dot(DoutRow(w, dout, t), stash.output.row(i));
    }

    // Layer1 backward.
    GemmTN(stash.hidden_post, dy, grads.dw1[static_cast<size_t>(e)]);
    Tensor dz(Shape{rows, w.model().ffn_hidden});
    GemmNT(dy, w.weights->W1(e), dz);

    // Activation backward.
    ApplyActivationGrad(dz, stash.hidden_pre, w.activation);

    // Layer0 backward.
    GemmTN(batch.rows, dz, grads.dw0[static_cast<size_t>(e)]);
    Tensor da(Shape{rows, n});
    GemmNT(dz, w.weights->W0(e), da);
    for (int64_t i = 0; i < rows; ++i) {
      const int64_t t = batch.tokens[static_cast<size_t>(i)];
      const int64_t slot = batch.slots[static_cast<size_t>(i)];
      contributions.AccumulateRow(t * topk + slot, da.row(i), 1.0f);
    }
  }

  // Undispatch: sum the per-slot contributions in canonical slot order.
  // Each token owns one dinput row, so tokens fan out across the pool.
  ParallelFor(0, m, 8, [&](int64_t t) {
    const int group = w.placement.HomeGroupOfToken(t);
    const int64_t local = t - w.placement.FirstTokenOfGroup(group);
    for (int64_t k = 0; k < topk; ++k) {
      grads.dinput[static_cast<size_t>(group)].AccumulateRow(
          local, contributions.row(t * topk + k), 1.0f);
    }
  });
  return grads;
}

MoeGradients ShardedReferenceMoeBackward(const MoeWorkload& w,
                                         const std::vector<Tensor>& dout) {
  return ShardedReferenceMoeBackward(w, dout, w.dtype());
}

MoeGradients ShardedReferenceMoeBackward(const MoeWorkload& w,
                                         const std::vector<Tensor>& dout,
                                         DType compute_dtype) {
  COMET_CHECK(w.sharded_weights != nullptr)
      << "backward needs a materialized workload";
  CheckDoutShape(w, dout);
  MoeGradients grads = ZeroGradients(w);

  const int64_t m = w.placement.total_tokens();
  const int64_t n = w.model().embedding;
  const int64_t topk = w.model().topk;
  const int tp = w.placement.parallel().tp;
  const int64_t k_shard = w.placement.HiddenPerTpRank();

  // One dA partial per TP lane, reduced canonically (slot-major outer, lane
  // inner) -- mirrors ShardedReferenceMoeLayer's combine.
  std::vector<Tensor> partials;
  partials.reserve(static_cast<size_t>(tp));
  for (int t = 0; t < tp; ++t) {
    partials.emplace_back(Shape{m * topk, n});
  }

  for (int64_t e = 0; e < w.model().num_experts; ++e) {
    const ExpertBatch batch = GatherExpertBatch(w, e);
    const int64_t rows = static_cast<int64_t>(batch.tokens.size());
    if (rows == 0) {
      continue;
    }
    const Tensor dy = WeightedDout(w, dout, batch, compute_dtype);

    for (int lane = 0; lane < tp; ++lane) {
      // Recompute the lane's forward slice (what the distributed runtime
      // stashes per rank) at the compute dtype: GEMM/activation round on
      // store when it is 2-byte.
      Tensor h_pre(Shape{rows, k_shard}, compute_dtype);
      Gemm(batch.rows, w.sharded_weights->W0Shard(e, lane), h_pre);
      Tensor h_post = h_pre;
      ApplyActivation(h_post, w.activation);
      Tensor y(Shape{rows, n}, compute_dtype);
      Gemm(h_post, w.sharded_weights->W1Shard(e, lane), y);

      // dgate: per-lane local dots, all-reduced lane-ascending.
      for (int64_t i = 0; i < rows; ++i) {
        const int64_t t = batch.tokens[static_cast<size_t>(i)];
        const int64_t slot = batch.slots[static_cast<size_t>(i)];
        grads.dgate.at({t, slot}) += Dot(DoutRow(w, dout, t), y.row(i));
      }

      // dW1 shard -> rows [lane*k_shard, (lane+1)*k_shard) of the full dW1.
      Tensor dw1_shard(Shape{k_shard, n});
      GemmTN(h_post, dy, dw1_shard);
      for (int64_t r = 0; r < k_shard; ++r) {
        grads.dw1[static_cast<size_t>(e)].SetRow(lane * k_shard + r,
                                                 dw1_shard.row(r));
      }

      // dZ through the lane's W1 shard, then the activation.
      Tensor dz(Shape{rows, k_shard}, compute_dtype);
      GemmNT(dy, w.sharded_weights->W1Shard(e, lane), dz);
      ApplyActivationGrad(dz, h_pre, w.activation);

      // dW0 shard -> columns [lane*k_shard, (lane+1)*k_shard) of full dW0.
      Tensor dw0_shard(Shape{n, k_shard});
      GemmTN(batch.rows, dz, dw0_shard);
      Tensor& dw0 = grads.dw0[static_cast<size_t>(e)];
      for (int64_t r = 0; r < n; ++r) {
        auto dst = dw0.row(r);
        const auto src = dw0_shard.row(r);
        std::copy(src.begin(), src.end(),
                  dst.begin() + static_cast<size_t>(lane * k_shard));
      }

      // Partial dA of this lane.
      Tensor da(Shape{rows, n}, compute_dtype);
      GemmNT(dz, w.sharded_weights->W0Shard(e, lane), da);
      for (int64_t i = 0; i < rows; ++i) {
        const int64_t t = batch.tokens[static_cast<size_t>(i)];
        const int64_t slot = batch.slots[static_cast<size_t>(i)];
        partials[static_cast<size_t>(lane)].AccumulateRow(t * topk + slot,
                                                          da.row(i), 1.0f);
      }
    }
  }

  ParallelFor(0, m, 8, [&](int64_t t) {
    const int group = w.placement.HomeGroupOfToken(t);
    const int64_t local = t - w.placement.FirstTokenOfGroup(group);
    for (int64_t k = 0; k < topk; ++k) {
      for (int lane = 0; lane < tp; ++lane) {
        grads.dinput[static_cast<size_t>(group)].AccumulateRow(
            local, partials[static_cast<size_t>(lane)].row(t * topk + k),
            1.0f);
      }
    }
    // One rounding per dinput row, after the full canonical reduction.
    QuantizeSpan(grads.dinput[static_cast<size_t>(group)].row(local),
                 compute_dtype);
  });
  return grads;
}

}  // namespace comet
