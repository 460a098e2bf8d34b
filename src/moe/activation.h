// Elementwise activations applied between the two expert feed-forward layers.
#pragma once

#include "tensor/tensor.h"

namespace comet {

// The one activation of COMET's expert FFN (the tanh approximation of GELU
// that the evaluated models use, with tanh defined as fdlibm's tanhf; see
// TanhScalar). The kind stays an argument so call sites name what they run.
enum class ActivationKind {
  kGelu,
};

// Applies the activation in place over the whole tensor.
void ApplyActivation(Tensor& t, ActivationKind kind);

// Applies the activation in place over rows [row_begin, row_end) x cols
// [col_begin, col_end) only; used by tile-granular executors. The GELU row
// loop is vectorized yet returns exactly GeluScalar's bits per element; at
// 2-byte dtypes each result is then rounded on store (RNE).
void ApplyActivationTile(Tensor& t, ActivationKind kind, int64_t row_begin,
                         int64_t row_end, int64_t col_begin, int64_t col_end);

// Scalar versions, exposed for tests.
//
// TanhScalar is fdlibm's tanhf (glibc's s_tanhf.c with the s_expm1f.c paths
// it reaches), transcribed branch-free: bit-identical to that algorithm for
// every f32 input, independent of the host libm. GeluScalar and the GELU
// derivative use it; the vectorized GELU row loop inlines the same code.
// Exactness needs -ffp-contract=off, which the build sets globally.
float TanhScalar(float x);
float GeluScalar(float x);

// Derivative of the activation at pre-activation value `x`.
float ActivationGradScalar(ActivationKind kind, float x);

// Backward through the activation: grad[r, c] *= act'(pre[r, c]) over the
// tile. `pre` holds the PRE-activation values (the GEMM output before the
// forward applied the activation in place); shapes must match.
void ApplyActivationGradTile(Tensor& grad, const Tensor& pre,
                             ActivationKind kind, int64_t row_begin,
                             int64_t row_end, int64_t col_begin,
                             int64_t col_end);

// Whole-tensor convenience wrapper of ApplyActivationGradTile.
void ApplyActivationGrad(Tensor& grad, const Tensor& pre, ActivationKind kind);

}  // namespace comet
