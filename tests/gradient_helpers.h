// Test helpers for the MoE backward passes: a reproducible loss gradient to
// feed them and a max-difference over every gradient field to compare them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "moe/backward.h"
#include "moe/workload.h"
#include "tensor/tensor.h"
#include "util/check.h"
#include "util/rng.h"

namespace comet {

// Synthesizes a reproducible loss gradient (iid N(0,1)) shaped like the
// forward output: one (M/EP, N) tensor per EP group, at the workload's
// storage dtype (quantized like every other low-precision operand).
inline std::vector<Tensor> MakeLossGradient(const MoeWorkload& w,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> dout;
  dout.reserve(static_cast<size_t>(w.placement.parallel().ep));
  for (int g = 0; g < w.placement.parallel().ep; ++g) {
    dout.push_back(Tensor::Randn(
        Shape{w.placement.tokens_per_group(), w.model().embedding}, rng, 1.0f,
        w.dtype()));
  }
  return dout;
}

// Max |a - b| over every gradient field; shapes must match.
inline float MaxGradientDiff(const MoeGradients& a, const MoeGradients& b) {
  COMET_CHECK_EQ(a.dinput.size(), b.dinput.size());
  COMET_CHECK_EQ(a.dw0.size(), b.dw0.size());
  COMET_CHECK_EQ(a.dw1.size(), b.dw1.size());
  float worst = Tensor::MaxAbsDiff(a.dgate, b.dgate);
  for (size_t i = 0; i < a.dinput.size(); ++i) {
    worst = std::max(worst, Tensor::MaxAbsDiff(a.dinput[i], b.dinput[i]));
  }
  for (size_t i = 0; i < a.dw0.size(); ++i) {
    worst = std::max(worst, Tensor::MaxAbsDiff(a.dw0[i], b.dw0[i]));
    worst = std::max(worst, Tensor::MaxAbsDiff(a.dw1[i], b.dw1[i]));
  }
  return worst;
}

}  // namespace comet
