// The precision tier: pins the mixed-precision (BF16/FP16) data plane.
//
// Three layers of guarantees, from the codec up:
//  1. Codec exactness -- every one of the 2^16 encodings of each 16-bit
//     format round-trips, rounding is to-nearest-even (ties checked
//     explicitly), subnormals/infinities/NaNs behave, and quantization is
//     idempotent (a quantized value re-quantizes to itself bitwise).
//  2. Kernel contract -- low-precision GEMM output is EXACTLY the f32
//     computation rounded once per element on store, independent of tiling
//     and thread count (the per-element rounding is a pure function of
//     coordinates, so the f32 plane's bit-exactness arguments survive).
//  3. Plane differential -- the bf16/f16 functional plane is bit-identical
//     across thread counts {1, 8} and EP {1, 4}, bit-identical to the
//     same-dtype sharded reference (forward AND backward), and within a
//     principled error bound of the f32-compute reference over the same
//     quantized operands.
//
// Error bound: each low-precision store rounds once, contributing at most
// 0.5 * eps_dtype relative to the magnitude of the quantity being stored
// (eps = 2^-8 for bf16's 7 mantissa bits + implicit one, 2^-11 for f16).
// A forward output element passes <= 6 such stores (layer0 GEMM,
// activation, layer1 GEMM, combine; transport moves already-representable
// rows); backward <= 8. Magnitudes along the path are bounded by a few
// times the output scale for these workloads, so we assert
//   max|lp - f32| <= kRoundingBudget * eps_dtype * max|f32|
// with kRoundingBudget = 16 (2x headroom over the worst path length).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>

#include "core/comet_backward.h"
#include "core/comet_executor.h"
#include "moe/backward.h"
#include "moe/group_gemm.h"
#include "moe/reference_layer.h"
#include "tensor/dtype.h"
#include "tests/gradient_helpers.h"
#include "util/check.h"
#include "util/rng.h"

namespace comet {
namespace {

// ---- 1. codec exactness ----------------------------------------------------

TEST(Bf16Codec, AllEncodingsRoundTrip) {
  // decode -> encode is the identity for every non-NaN encoding: each 16-bit
  // word names exactly one f32, and that f32's nearest bf16 is itself.
  for (uint32_t u = 0; u <= 0xffffu; ++u) {
    const uint16_t bits = static_cast<uint16_t>(u);
    const float f = Bf16ToF32(bits);
    if (std::isnan(f)) {
      EXPECT_TRUE(std::isnan(Bf16ToF32(F32ToBf16(f)))) << "bits " << u;
      continue;
    }
    EXPECT_EQ(F32ToBf16(f), bits) << "bits " << u;
  }
}

TEST(F16Codec, AllEncodingsRoundTrip) {
  for (uint32_t u = 0; u <= 0xffffu; ++u) {
    const uint16_t bits = static_cast<uint16_t>(u);
    const float f = F16ToF32(bits);
    if (std::isnan(f)) {
      EXPECT_TRUE(std::isnan(F16ToF32(F32ToF16(f)))) << "bits " << u;
      continue;
    }
    EXPECT_EQ(F32ToF16(f), bits) << "bits " << u;
  }
}

TEST(Bf16Codec, RoundsToNearestEven) {
  // 1.0 = 0x3F80. The f32 exactly halfway to the next bf16 (0x3F808000)
  // ties to the EVEN encoding 0x3F80; anything above goes up.
  EXPECT_EQ(F32ToBf16(std::bit_cast<float>(0x3F808000u)), 0x3F80);
  EXPECT_EQ(F32ToBf16(std::bit_cast<float>(0x3F808001u)), 0x3F81);
  // Halfway between 0x3F81 (odd) and 0x3F82 (even) ties UP to 0x3F82.
  EXPECT_EQ(F32ToBf16(std::bit_cast<float>(0x3F818000u)), 0x3F82);
  EXPECT_EQ(F32ToBf16(std::bit_cast<float>(0x3F817fffu)), 0x3F81);
  // Below halfway rounds down; sign rides along unchanged.
  EXPECT_EQ(F32ToBf16(std::bit_cast<float>(0xBF808000u)), 0xBF80);
  EXPECT_EQ(F32ToBf16(std::bit_cast<float>(0xBF818000u)), 0xBF82);
  // A carry out of the mantissa rounds into the next binade: the largest
  // f32 below 2.0 is within half a bf16-ulp of 2.0.
  EXPECT_EQ(F32ToBf16(std::bit_cast<float>(0x3FFFFFFFu)), 0x4000);
}

TEST(F16Codec, RoundsToNearestEven) {
  // f16 ulp at 2048 is 2: 2049 ties to even 2048, 2051 ties up to 2052.
  EXPECT_EQ(F16ToF32(F32ToF16(2049.0f)), 2048.0f);
  EXPECT_EQ(F16ToF32(F32ToF16(2051.0f)), 2052.0f);
  EXPECT_EQ(F16ToF32(F32ToF16(2049.001f)), 2050.0f);
  EXPECT_EQ(F16ToF32(F32ToF16(-2049.0f)), -2048.0f);
  // 1.0 + 2^-11 (f32 mantissa 0x1000) ties to 1.0 (even); one f32 ulp above
  // goes to 1.0 + 2^-10 (f16 mantissa 1 = f32 mantissa 0x2000).
  EXPECT_EQ(F16ToF32(F32ToF16(std::bit_cast<float>(0x3F801000u))), 1.0f);
  EXPECT_EQ(F16ToF32(F32ToF16(std::bit_cast<float>(0x3F801001u))),
            std::bit_cast<float>(0x3F802000u));
}

TEST(F16Codec, Subnormals) {
  const float kMinSub = std::ldexp(1.0f, -24);  // smallest f16 subnormal
  EXPECT_EQ(F32ToF16(kMinSub), 0x0001);
  EXPECT_EQ(F16ToF32(uint16_t{0x0001}), kMinSub);
  // Half the smallest subnormal ties to even zero; just above rounds up.
  EXPECT_EQ(F32ToF16(std::ldexp(1.0f, -25)), 0x0000);
  EXPECT_EQ(F32ToF16(std::ldexp(1.5f, -25)), 0x0001);
  EXPECT_EQ(F32ToF16(-std::ldexp(1.0f, -25)), 0x8000);
  // Largest subnormal: 1023 * 2^-24 = 0x03FF; the next f16 is the smallest
  // normal 2^-14 = 0x0400, and rounding can carry across that boundary.
  EXPECT_EQ(F32ToF16(1023.0f * kMinSub), 0x03FF);
  EXPECT_EQ(F16ToF32(uint16_t{0x03FF}), 1023.0f * kMinSub);
  EXPECT_EQ(F32ToF16(1023.6f * kMinSub), 0x0400);
  EXPECT_EQ(F16ToF32(uint16_t{0x0400}), std::ldexp(1.0f, -14));
  // Subnormal RNE tie: 2.5 * 2^-24 is halfway between 2 and 3 ulps -> 2.
  EXPECT_EQ(F32ToF16(2.5f * kMinSub), 0x0002);
  EXPECT_EQ(F32ToF16(3.5f * kMinSub), 0x0004);
}

TEST(Codecs, InfinityAndNaN) {
  const float inf = std::numeric_limits<float>::infinity();
  const float qnan = std::numeric_limits<float>::quiet_NaN();

  EXPECT_EQ(F32ToBf16(inf), 0x7F80);
  EXPECT_EQ(F32ToBf16(-inf), 0xFF80);
  EXPECT_EQ(Bf16ToF32(uint16_t{0x7F80}), inf);
  EXPECT_TRUE(std::isnan(Bf16ToF32(F32ToBf16(qnan))));
  EXPECT_TRUE(std::isnan(Bf16ToF32(F32ToBf16(-qnan))));
  // A NaN whose payload lives entirely in the dropped bits must STAY NaN
  // (truncation alone would produce an infinity).
  EXPECT_TRUE(std::isnan(Bf16ToF32(
      F32ToBf16(std::bit_cast<float>(0x7F800001u)))));

  EXPECT_EQ(F32ToF16(inf), 0x7C00);
  EXPECT_EQ(F32ToF16(-inf), 0xFC00);
  EXPECT_EQ(F16ToF32(uint16_t{0x7C00}), inf);
  EXPECT_TRUE(std::isnan(F16ToF32(F32ToF16(qnan))));
  EXPECT_TRUE(std::isnan(F16ToF32(
      F32ToF16(std::bit_cast<float>(0x7F800001u)))));
}

TEST(Codecs, OverflowAndLimits) {
  // bf16 shares the f32 exponent range: only the top half-ulp overflows.
  EXPECT_EQ(Bf16ToF32(uint16_t{0x7F7F}),
            std::bit_cast<float>(0x7F7F0000u));  // max finite bf16
  EXPECT_EQ(F32ToBf16(std::numeric_limits<float>::max()), 0x7F80);  // -> inf
  EXPECT_EQ(F32ToBf16(std::bit_cast<float>(0x7F7F0000u)), 0x7F7F);

  // f16 overflows at 65520 (the tie with 2^16); 65504 is the max finite.
  EXPECT_EQ(F16ToF32(uint16_t{0x7BFF}), 65504.0f);
  EXPECT_EQ(F32ToF16(65504.0f), 0x7BFF);
  EXPECT_EQ(F32ToF16(65519.996f), 0x7BFF);
  EXPECT_EQ(F32ToF16(65520.0f), 0x7C00);
  EXPECT_EQ(F32ToF16(-65520.0f), 0xFC00);
  EXPECT_EQ(F32ToF16(1e30f), 0x7C00);
  // Signed zeros survive both codecs.
  EXPECT_EQ(F32ToBf16(-0.0f), 0x8000);
  EXPECT_EQ(F32ToF16(-0.0f), 0x8000);
  EXPECT_TRUE(std::signbit(Bf16ToF32(uint16_t{0x8000})));
  EXPECT_TRUE(std::signbit(F16ToF32(uint16_t{0x8000})));
}

TEST(Codecs, QuantizeIsIdempotent) {
  Rng rng(7);
  for (const DType dtype : {DType::kBF16, DType::kF16}) {
    for (int i = 0; i < 10000; ++i) {
      // Mix magnitudes from subnormal to overflow territory.
      const float x = static_cast<float>(rng.Normal(0.0, 1.0)) *
                      std::ldexp(1.0f, (i % 61) - 30);
      const float q = QuantizeScalar(x, dtype);
      EXPECT_EQ(std::bit_cast<uint32_t>(QuantizeScalar(q, dtype)),
                std::bit_cast<uint32_t>(q))
          << DTypeName(dtype) << " x=" << x;
    }
  }
  // Exhaustively: every decoded encoding is a fixed point.
  for (uint32_t u = 0; u <= 0xffffu; ++u) {
    const float b = Bf16ToF32(static_cast<uint16_t>(u));
    if (!std::isnan(b)) {
      EXPECT_EQ(QuantizeScalar(b, DType::kBF16), b);
    }
    const float h = F16ToF32(static_cast<uint16_t>(u));
    if (!std::isnan(h)) {
      EXPECT_EQ(QuantizeScalar(h, DType::kF16), h);
    }
  }
}

TEST(Codecs, QuantizeIsF32Identity) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const float x = static_cast<float>(rng.Normal(0.0, 100.0));
    EXPECT_EQ(QuantizeScalar(x, DType::kF32), x);
  }
}

// ---- 2. dtype-aware tensors and the GEMM store contract --------------------

TEST(TensorDType, FillConstructorsEstablishRepresentability) {
  Rng rng(11);
  const Tensor t = Tensor::Randn(Shape{8, 16}, rng, 1.0f, DType::kBF16);
  for (const float v : t.data()) {
    EXPECT_EQ(QuantizeScalar(v, DType::kBF16), v);
  }
  const Tensor f = Tensor::Full(Shape{4, 4}, 0.1f, DType::kF16);
  EXPECT_EQ(f.data()[0], QuantizeScalar(0.1f, DType::kF16));
  const Tensor i = Tensor::Iota(Shape{64, 64}, 0.333f, DType::kF16);
  for (const float v : i.data()) {
    EXPECT_EQ(QuantizeScalar(v, DType::kF16), v);
  }
}

TEST(TensorDType, AsTypeRoundsAndWideningIsLossless) {
  Rng rng(12);
  const Tensor t = Tensor::Randn(Shape{4, 8}, rng);
  const Tensor b = t.AsType(DType::kBF16);
  EXPECT_EQ(b.dtype(), DType::kBF16);
  for (size_t i = 0; i < t.data().size(); ++i) {
    EXPECT_EQ(b.data()[i], QuantizeScalar(t.data()[i], DType::kBF16));
  }
  const Tensor wide = b.AsType(DType::kF32);
  EXPECT_EQ(wide.dtype(), DType::kF32);
  EXPECT_EQ(Tensor::MaxAbsDiff(wide, b), 0.0f);
}

// Low-precision GEMM == f32 GEMM + one rounding per element, and the result
// is independent of tiling (the store-rounding commutes with any disjoint
// partition of C).
TEST(MixedPrecisionGemm, EqualsQuantizedF32AndTilingInvariant) {
  for (const DType dtype : {DType::kBF16, DType::kF16}) {
    Rng rng(13);
    const int64_t m = 33, k = 40, n = 29;  // deliberately off-block sizes
    const Tensor a = Tensor::Randn(Shape{m, k}, rng, 1.0f, dtype);
    const Tensor b = Tensor::Randn(Shape{k, n}, rng, 0.2f, dtype);

    Tensor c_f32(Shape{m, n});
    Gemm(a, b, c_f32);
    c_f32 = c_f32.AsType(dtype);

    Tensor c_lp(Shape{m, n}, dtype);
    Gemm(a, b, c_lp);
    EXPECT_EQ(Tensor::MaxAbsDiff(c_lp, c_f32), 0.0f) << DTypeName(dtype);

    Tensor c_tiled(Shape{m, n}, dtype);
    for (int64_t r = 0; r < m; r += 8) {
      for (int64_t cc = 0; cc < n; cc += 8) {
        GemmTile(a, b, c_tiled, r, std::min(r + 8, m), cc,
                 std::min(cc + 8, n));
      }
    }
    EXPECT_EQ(Tensor::MaxAbsDiff(c_tiled, c_lp), 0.0f) << DTypeName(dtype);
  }
}

TEST(MixedPrecisionGemm, NtAndTnRoundOnStore) {
  const DType dtype = DType::kBF16;
  Rng rng(14);
  const int64_t m = 17, k = 23, n = 19;
  const Tensor a = Tensor::Randn(Shape{m, k}, rng, 1.0f, dtype);
  const Tensor b = Tensor::Randn(Shape{n, k}, rng, 1.0f, dtype);

  Tensor c_f32(Shape{m, n});
  GemmNT(a, b, c_f32);
  Tensor c_lp(Shape{m, n}, dtype);
  GemmNT(a, b, c_lp);
  EXPECT_EQ(Tensor::MaxAbsDiff(c_lp, c_f32.AsType(dtype)), 0.0f);

  const Tensor bt(Tensor::Randn(Shape{m, n}, rng, 1.0f, dtype));
  Tensor d_f32(Shape{k, n});
  GemmTN(a, bt, d_f32);
  Tensor d_lp(Shape{k, n}, dtype);
  GemmTN(a, bt, d_lp);
  EXPECT_EQ(Tensor::MaxAbsDiff(d_lp, d_f32.AsType(dtype)), 0.0f);
}

// ---- 3. the differential / bit-exactness tier ------------------------------

// Fig01-style single-MoE-layer workload, scaled to functional size: gelu
// experts, top-2 routing, mild imbalance.
ModelConfig PrecisionModel() {
  ModelConfig model;
  model.name = "precision";
  model.layers = 1;
  model.num_experts = 8;
  model.topk = 2;
  model.embedding = 32;
  model.ffn_hidden = 64;
  return model;
}

MoeWorkload PrecisionWorkload(DType dtype, int ep, uint64_t seed = 51) {
  WorkloadOptions options;
  options.seed = seed;
  options.load_std = 0.02;
  options.dtype = dtype;
  return MakeWorkload(PrecisionModel(), ParallelConfig{1, ep}, 64, options);
}

CometOptions PrecisionOptions(DType dtype, int threads) {
  CometOptions options;
  options.tile_m = 8;
  options.tile_n = 8;
  options.num_threads = threads;
  options.compute_dtype = dtype;
  return options;
}

double Eps(DType dtype) {
  return dtype == DType::kBF16 ? std::ldexp(1.0, -8) : std::ldexp(1.0, -11);
}

constexpr double kRoundingBudget = 16.0;

float MaxAbs(const Tensor& t) {
  float worst = 0.0f;
  for (const float v : t.data()) {
    worst = std::max(worst, std::abs(v));
  }
  return worst;
}

using DtEpThreads = std::tuple<DType, int /*ep*/, int /*threads*/>;

class PrecisionPlane : public ::testing::TestWithParam<DtEpThreads> {};

TEST_P(PrecisionPlane, ForwardBitExactVsSameDtypeReference) {
  const auto [dtype, ep, threads] = GetParam();
  const MoeWorkload w = PrecisionWorkload(dtype, ep);
  const auto reference = ShardedReferenceMoeLayer(w, dtype);
  CometExecutor comet{PrecisionOptions(dtype, threads)};
  const auto run = comet.Run(w, H800Cluster(ep), ExecMode::kFunctional);
  ASSERT_EQ(run.outputs.size(), reference.size());
  for (size_t g = 0; g < reference.size(); ++g) {
    EXPECT_EQ(Tensor::MaxAbsDiff(run.outputs[g], reference[g]), 0.0f)
        << DTypeName(dtype) << " group " << g << " EP=" << ep
        << " threads=" << threads;
  }
}

TEST_P(PrecisionPlane, ForwardWithinBoundOfF32Reference) {
  const auto [dtype, ep, threads] = GetParam();
  const MoeWorkload w = PrecisionWorkload(dtype, ep);
  // f32 compute over the SAME quantized operands: isolates the plane's
  // store-rounding error from the operand quantization error.
  const auto f32_ref = ShardedReferenceMoeLayer(w, DType::kF32);
  CometExecutor comet{PrecisionOptions(dtype, threads)};
  const auto run = comet.Run(w, H800Cluster(ep), ExecMode::kFunctional);
  ASSERT_EQ(run.outputs.size(), f32_ref.size());
  float total_diff = 0.0f;
  for (size_t g = 0; g < f32_ref.size(); ++g) {
    const float diff = Tensor::MaxAbsDiff(run.outputs[g], f32_ref[g]);
    const double bound = kRoundingBudget * Eps(dtype) *
                         static_cast<double>(MaxAbs(f32_ref[g]));
    EXPECT_LE(diff, bound)
        << DTypeName(dtype) << " group " << g << " EP=" << ep;
    total_diff += diff;
  }
  // The plane must actually be computing in low precision: a zero total
  // diff would mean the dtype never engaged.
  EXPECT_GT(total_diff, 0.0f);
}

TEST_P(PrecisionPlane, BackwardBitExactVsSameDtypeReference) {
  const auto [dtype, ep, threads] = GetParam();
  const MoeWorkload w = PrecisionWorkload(dtype, ep);
  const auto dout = MakeLossGradient(w, 91);
  const MoeGradients expected = ShardedReferenceMoeBackward(w, dout, dtype);
  const auto run = CometBackward(w, H800Cluster(ep), dout,
                                 ExecMode::kFunctional,
                                 PrecisionOptions(dtype, threads));
  EXPECT_EQ(MaxGradientDiff(run.grads, expected), 0.0f)
      << DTypeName(dtype) << " EP=" << ep << " threads=" << threads;
}

TEST_P(PrecisionPlane, BackwardWithinBoundOfF32Reference) {
  const auto [dtype, ep, threads] = GetParam();
  const MoeWorkload w = PrecisionWorkload(dtype, ep);
  const auto dout = MakeLossGradient(w, 91);
  const MoeGradients f32_ref =
      ShardedReferenceMoeBackward(w, dout, DType::kF32);
  const auto run = CometBackward(w, H800Cluster(ep), dout,
                                 ExecMode::kFunctional,
                                 PrecisionOptions(dtype, threads));
  for (size_t g = 0; g < f32_ref.dinput.size(); ++g) {
    EXPECT_LE(Tensor::MaxAbsDiff(run.grads.dinput[g], f32_ref.dinput[g]),
              kRoundingBudget * Eps(dtype) *
                  static_cast<double>(MaxAbs(f32_ref.dinput[g])))
        << DTypeName(dtype) << " dinput group " << g;
  }
  for (size_t e = 0; e < f32_ref.dw0.size(); ++e) {
    EXPECT_LE(Tensor::MaxAbsDiff(run.grads.dw0[e], f32_ref.dw0[e]),
              kRoundingBudget * Eps(dtype) *
                  static_cast<double>(MaxAbs(f32_ref.dw0[e])))
        << DTypeName(dtype) << " dw0 expert " << e;
    EXPECT_LE(Tensor::MaxAbsDiff(run.grads.dw1[e], f32_ref.dw1[e]),
              kRoundingBudget * Eps(dtype) *
                  static_cast<double>(MaxAbs(f32_ref.dw1[e])))
        << DTypeName(dtype) << " dw1 expert " << e;
  }
  EXPECT_LE(Tensor::MaxAbsDiff(run.grads.dgate, f32_ref.dgate),
            kRoundingBudget * Eps(dtype) *
                static_cast<double>(MaxAbs(f32_ref.dgate)));
}

INSTANTIATE_TEST_SUITE_P(
    DtypeByEpByThreads, PrecisionPlane,
    ::testing::Combine(::testing::Values(DType::kBF16, DType::kF16),
                       ::testing::Values(1, 4), ::testing::Values(1, 8)),
    [](const ::testing::TestParamInfo<DtEpThreads>& info) {
      return DTypeName(std::get<0>(info.param)) + "_EP" +
             std::to_string(std::get<1>(info.param)) + "x" +
             std::to_string(std::get<2>(info.param)) + "threads";
    });

// The EP axis itself must not move a bit: the EP=1 and EP=4 plane outputs
// concatenate to the same global matrix (the workloads share routing,
// inputs and weights; only placement differs).
TEST(PrecisionPlaneCrossEp, Ep1AndEp4BitIdentical) {
  for (const DType dtype : {DType::kBF16, DType::kF16}) {
    const MoeWorkload w1 = PrecisionWorkload(dtype, 1);
    const MoeWorkload w4 = PrecisionWorkload(dtype, 4);
    CometExecutor comet1{PrecisionOptions(dtype, 1)};
    CometExecutor comet4{PrecisionOptions(dtype, 4)};
    const auto run1 = comet1.Run(w1, H800Cluster(1), ExecMode::kFunctional);
    const auto run4 = comet4.Run(w4, H800Cluster(4), ExecMode::kFunctional);
    ASSERT_EQ(run1.outputs.size(), 1u);
    ASSERT_EQ(run4.outputs.size(), 4u);
    const int64_t rows_per_group = run4.outputs[0].rows();
    for (size_t g = 0; g < 4; ++g) {
      for (int64_t r = 0; r < rows_per_group; ++r) {
        const auto a = run4.outputs[g].row(r);
        const auto b = run1.outputs[0].row(
            static_cast<int64_t>(g) * rows_per_group + r);
        for (size_t c = 0; c < a.size(); ++c) {
          ASSERT_EQ(a[c], b[c])
              << DTypeName(dtype) << " group " << g << " row " << r;
        }
      }
    }
  }
}

// TP lanes at a 2-byte dtype: the lane-matched dispatch and lane-inner
// combine keep their bit-exactness under quantization.
TEST(PrecisionPlaneHybrid, ForwardAndBackwardTp2Ep2) {
  WorkloadOptions options;
  options.seed = 52;
  options.load_std = 0.02;
  options.dtype = DType::kBF16;
  const MoeWorkload w =
      MakeWorkload(PrecisionModel(), ParallelConfig{2, 2}, 64, options);
  const auto reference = ShardedReferenceMoeLayer(w, DType::kBF16);
  CometExecutor comet{PrecisionOptions(DType::kBF16, 8)};
  const auto run = comet.Run(w, H800Cluster(4), ExecMode::kFunctional);
  ASSERT_EQ(run.outputs.size(), reference.size());
  for (size_t g = 0; g < reference.size(); ++g) {
    EXPECT_EQ(Tensor::MaxAbsDiff(run.outputs[g], reference[g]), 0.0f);
  }

  const auto dout = MakeLossGradient(w, 93);
  const MoeGradients expected =
      ShardedReferenceMoeBackward(w, dout, DType::kBF16);
  const auto bwd = CometBackward(w, H800Cluster(4), dout,
                                 ExecMode::kFunctional,
                                 PrecisionOptions(DType::kBF16, 8));
  EXPECT_EQ(MaxGradientDiff(bwd.grads, expected), 0.0f);
}

// Mismatched workload/compute dtypes must fail loudly, not quantize
// silently.
TEST(PrecisionPlane, MismatchedDtypeIsAnError) {
  const MoeWorkload w = PrecisionWorkload(DType::kF32, 1);
  CometExecutor comet{PrecisionOptions(DType::kBF16, 1)};
  EXPECT_THROW(comet.Run(w, H800Cluster(1), ExecMode::kFunctional),
               CheckError);
}

}  // namespace
}  // namespace comet
