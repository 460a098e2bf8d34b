#include "moe/activation.h"

#include <bit>
#include <cstdint>

#include "util/check.h"
#include "util/thread_pool.h"

namespace comet {

namespace {

// ---- fdlibm tanhf, branch-free ----------------------------------------------
//
// GELU is defined by fdlibm's tanhf (glibc sysdeps/ieee754/flt-32 s_tanhf.c
// and the s_expm1f.c paths it reaches), not by whatever tanhf the host libm
// ships, so no result depends on the host. The functions below evaluate
// every branch of that algorithm for every input, with the original's float
// operations in the original's order, and pick the taken branch with an
// integer bit-mask select, so each output carries the bits the branchy
// original returns. (Three spots compute a value the original builds another
// way, each provably the same bits: see the comments at them.) Being
// branch-free is what lets GCC's loop vectorizer turn the GELU row loop into
// 16-lane AVX-512 code (SSE2 code at COMET_NATIVE_ARCH=OFF). What keeps it
// vectorizable and exact:
//  - selects are integer mask ops: a ?: between floats stays control flow
//    under -ftrapping-math and the loop stays scalar;
//  - every helper is [[gnu::always_inline]]: one call left in the loop body
//    blocks vectorization;
//  - untaken lanes stay defined: the expm1 argument is forced to a finite
//    in-domain dummy before the float->int conversion, and exponent
//    arithmetic on k is done in uint32_t (wrapping, never UB) with constant
//    shifts only, so it is valid for whatever k an untaken lane holds.
// Bit-exactness relies on the global -ffp-contract=off (CMakeLists.txt): a
// fused multiply-add anywhere here would merge roundings the original
// performs separately. tests/gelu_exhaustive.cc checks all 2^32 inputs.

[[gnu::always_inline]] inline uint32_t Bits(float f) {
  return std::bit_cast<uint32_t>(f);
}

[[gnu::always_inline]] inline float FromBits(uint32_t u) {
  return std::bit_cast<float>(u);
}

// All-ones where `cond` holds, zero elsewhere.
[[gnu::always_inline]] inline uint32_t Mask(bool cond) {
  return 0u - static_cast<uint32_t>(cond);
}

[[gnu::always_inline]] inline uint32_t Select(uint32_t mask, uint32_t a,
                                              uint32_t b) {
  return (a & mask) | (b & ~mask);
}

[[gnu::always_inline]] inline float Select(uint32_t mask, float a, float b) {
  return FromBits(Select(mask, Bits(a), Bits(b)));
}

// fdlibm expm1f restricted to the arguments tanhf passes it: finite, with
// 2^-54 <= |a| and -2 < a < 44. On that domain the |a| >= 27 ln2 filter
// never returns (no overflow, no negative saturation) and the k = +1
// reduction is unreachable (a positive a is >= 2, so k >= 3); the k = 0,
// -1, <= -2, [3, 23), [23, 56] and > 56 result paths and the tiny-|a|
// return are all live.
[[gnu::always_inline]] inline float ExpM1ForTanh(float a) {
  constexpr float kOne = 1.0f;
  constexpr float kLn2Hi = 6.9313812256e-01f;   // 0x3f317180
  constexpr float kLn2Lo = 9.0580006145e-06f;   // 0x3717f7d1
  constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
  constexpr float kQ1 = -3.3333335072e-02f;     // 0xbd088889
  constexpr float kQ2 = 1.5873016091e-03f;      // 0x3ad00d01
  constexpr float kQ3 = -7.9365076090e-05f;     // 0xb8a670cd
  constexpr float kQ4 = 4.0082177293e-06f;      // 0x36867e54
  constexpr float kQ5 = -2.0109921195e-07f;     // 0xb457edbb

  const uint32_t ua = Bits(a);
  const uint32_t sign = ua & 0x80000000u;
  const int32_t hx = static_cast<int32_t>(ua & 0x7fffffffu);

  // Argument reduction: a = k ln2 + x (+ c, the rounding error of x).
  // |a| <= 0.5 ln2 keeps k = 0 with hi = a, lo = 0 (so x = a, c = 0);
  // |a| < 1.5 ln2 (negative here) is k = -1; the rest rounds a / ln2.
  const int32_t k_round = static_cast<int32_t>(
      kInvLn2 * a + FromBits(0x3f000000u | sign));  // +-0.5 toward a's sign
  const float tk = static_cast<float>(k_round);
  const uint32_t reduce = Mask(hx > 0x3eb17218);
  const uint32_t minus_one = reduce & Mask(hx < 0x3f851592);
  const float hi = Select(reduce, Select(minus_one, a + kLn2Hi, a - tk * kLn2Hi),
                          a);
  const float lo = Select(reduce, Select(minus_one, -kLn2Lo, tk * kLn2Lo),
                          0.0f);
  const int32_t k = static_cast<int32_t>(
      Select(reduce,
             Select(minus_one, static_cast<uint32_t>(-1),
                    static_cast<uint32_t>(k_round)),
             0u));
  const float x = hi - lo;
  const float c = (hi - x) - lo;

  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      kOne + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const float t = 3.0f - r1 * hfx;
  const float e0 = hxs * ((r1 - t) / (6.0f - x * t));
  const float y_k0 = x - (x * e0 - hxs);
  const float e = (x * (e0 - c) - c) - hxs;
  const float y_km1 = 0.5f * (x - e) - 0.5f;
  // The remaining paths add k to the exponent of a y near 1.
  const uint32_t k_exp = static_cast<uint32_t>(k) << 23;
  const float y_far = FromBits(Bits(kOne - (e - x)) + k_exp) - kOne;
  // 2^-k; the original builds 1 - 2^-k as 0x3f800000 - (0x1000000 >> k),
  // which equals the exact float difference below for k < 23.
  const float p2mk = FromBits((0x7fu - static_cast<uint32_t>(k)) << 23);
  const float y_mid = FromBits(Bits((kOne - p2mk) - (e - x)) + k_exp);
  const float y_big = FromBits(Bits((x - (e + p2mk)) + kOne) + k_exp);

  float y = Select(Mask(k < 23), y_mid, y_big);
  y = Select(Mask(k <= -2) | Mask(k > 56), y_far, y);
  y = Select(Mask(k == -1), y_km1, y);
  y = Select(Mask(k == 0), y_k0, y);
  // |a| < 2^-25: expm1(a) rounds to a.
  return Select(Mask(hx < 0x33000000), a, y);
}

[[gnu::always_inline]] inline float Tanh(float x) {
  constexpr float kOne = 1.0f;
  constexpr float kTiny = 1.0e-30f;
  const uint32_t jx = Bits(x);
  const uint32_t sign = jx & 0x80000000u;
  const int32_t ix = static_cast<int32_t>(jx & 0x7fffffffu);
  const float one_signed = FromBits(0x3f800000u | sign);

  // 2^-55 <= |x| < 22: expm1-based. Other inputs (NaN and inf included)
  // feed expm1 |x| = 1 instead, so its argument is always in domain.
  const uint32_t mid = Mask(ix >= 0x24000000) & Mask(ix < 0x41b00000);
  const uint32_t abs_bits = Select(mid, static_cast<uint32_t>(ix), 0x3f800000u);
  const uint32_t ge_one = Mask(abs_bits >= 0x3f800000u);
  // expm1(2|x|) when |x| >= 1, else expm1(-2|x|).
  const float arg =
      FromBits(Bits(2.0f * FromBits(abs_bits)) | (~ge_one & 0x80000000u));
  const float t = ExpM1ForTanh(arg);
  // z = 1 - 2/(t+2) or -t/(t+2): one division on the selected numerator.
  const float q = Select(ge_one, 2.0f, -t) / (t + 2.0f);
  const float z = Select(ge_one, kOne - q, q);
  const float r_mid = FromBits(Bits(z) ^ sign);  // z > 0; -z for x < 0

  // tanh(+-inf) = one/x +- one = +-1. For a NaN the original returns x's
  // quieted NaN, which x + x yields without a division.
  float r = Select(Mask(ix > 0x7f800000), x + x, one_signed);
  // |x| >= 22: +-(1 - tiny), which rounds to +-1.
  r = Select(Mask(ix < 0x7f800000), FromBits(Bits(kOne - kTiny) ^ sign), r);
  r = Select(mid, r_mid, r);
  // |x| < 2^-55 (incl. +-0): x (1 + x).
  return Select(Mask(ix < 0x24000000), x * (kOne + x), r);
}

// tanh approximation: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).
[[gnu::always_inline]] inline float Gelu(float x) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  const float inner = kC * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + Tanh(inner));
}

}  // namespace

float TanhScalar(float x) { return Tanh(x); }

float GeluScalar(float x) { return Gelu(x); }

void ApplyActivationTile(Tensor& t, ActivationKind /*kind*/,
                         int64_t row_begin, int64_t row_end, int64_t col_begin,
                         int64_t col_end) {
  COMET_CHECK_EQ(t.shape().rank(), 2u);
  COMET_CHECK_GE(row_begin, 0);
  COMET_CHECK_LE(row_end, t.rows());
  COMET_CHECK_GE(col_begin, 0);
  COMET_CHECK_LE(col_end, t.cols());
  // Each row is one straight GELU loop (it vectorizes), then at 2-byte
  // dtypes a separate round-on-store pass (RNE) -- same contract as the GEMM
  // epilogue. Both passes are per-element pure, so tiling/threading never
  // changes results.
  const DType dtype = t.dtype();
  for (int64_t r = row_begin; r < row_end; ++r) {
    const std::span<float> cols =
        t.row(r).subspan(static_cast<size_t>(col_begin),
                         static_cast<size_t>(col_end - col_begin));
    for (float& x : cols) x = Gelu(x);
    QuantizeSpan(cols, dtype);
  }
}

void ApplyActivation(Tensor& t, ActivationKind kind) {
  // Elementwise, so a row partition is trivially order-preserving.
  const int64_t cols = t.cols();
  ParallelForChunks(0, t.rows(), 16, [&](int64_t rb, int64_t re) {
    ApplyActivationTile(t, kind, rb, re, 0, cols);
  });
}

float ActivationGradScalar(ActivationKind /*kind*/, float x) {
  // d/dx of the tanh approximation used by GeluScalar.
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  const float x3 = x * x * x;
  const float inner = kC * (x + 0.044715f * x3);
  const float t = Tanh(inner);
  const float sech2 = 1.0f - t * t;
  const float dinner = kC * (1.0f + 3.0f * 0.044715f * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * sech2 * dinner;
}

void ApplyActivationGradTile(Tensor& grad, const Tensor& pre,
                             ActivationKind kind, int64_t row_begin,
                             int64_t row_end, int64_t col_begin,
                             int64_t col_end) {
  COMET_CHECK_EQ(grad.shape().rank(), 2u);
  COMET_CHECK(grad.shape() == pre.shape())
      << "activation grad/pre shape mismatch";
  COMET_CHECK_GE(row_begin, 0);
  COMET_CHECK_LE(row_end, grad.rows());
  COMET_CHECK_GE(col_begin, 0);
  COMET_CHECK_LE(col_end, grad.cols());
  // f32 multiply, round on store at 2-byte dtypes (per-element pure; see
  // ApplyActivationTile).
  const DType dtype = grad.dtype();
  for (int64_t r = row_begin; r < row_end; ++r) {
    auto grow = grad.row(r);
    const auto prow = pre.row(r);
    for (int64_t c = col_begin; c < col_end; ++c) {
      float& g = grow[static_cast<size_t>(c)];
      g *= ActivationGradScalar(kind, prow[static_cast<size_t>(c)]);
      if (dtype != DType::kF32) {
        g = QuantizeScalar(g, dtype);
      }
    }
  }
}

void ApplyActivationGrad(Tensor& grad, const Tensor& pre,
                         ActivationKind kind) {
  const int64_t cols = grad.cols();
  ParallelForChunks(0, grad.rows(), 16, [&](int64_t rb, int64_t re) {
    ApplyActivationGradTile(grad, pre, kind, rb, re, 0, cols);
  });
}

}  // namespace comet
