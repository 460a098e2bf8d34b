// Branch-free fdlibm log, sin and cos: the transcendentals of Box-Muller.
//
// Normal draws (util/rng.h) are defined by these kernels -- transcriptions
// of fdlibm 5.3's e_log.c, k_sin.c, k_cos.c, s_sin.c / s_cos.c and the
// n = 1 and medium-range paths of e_rem_pio2.c -- not by whatever the host
// libm ships, so every synthesized token value is a pure function of this
// repository's source. Like the GELU tanhf (moe/activation.cc), each kernel
// evaluates every branch of the original for every input, with the
// original's double operations in the original's order, and picks the
// taken branch with an integer bit-mask select, so it returns the bits the
// branchy original returns (tests/fdlibm_reference.h holds that original;
// util_test compares them around every threshold).
//
// Each kernel is written once, as a template over V: `double`, or
// `DoubleLanes` -- kDoubleLanes doubles, one vector register of the compile
// target (eight at AVX-512, four at AVX, two at SSE2). A lane computes
// exactly what the scalar instantiation computes, so the width never
// changes a bit. Exactness relies on the global -ffp-contract=off
// (CMakeLists.txt): a fused multiply-add would merge roundings the original
// performs separately.
//
// Domains -- what Box-Muller needs (u1 = m 2^-53 in (0, 1) and
// theta = 2 pi u2 in [0, 2 pi)) and a little more:
//  - Log: finite x >= 2^-1022 (no zero, negative, subnormal, inf or NaN);
//  - SinCos: 0 <= x <= 2^19 pi/2, fdlibm's medium range (no Payne-Hanek
//    reduction, no negative arguments).
// Outside them the result is unspecified, but never undefined behavior.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace comet::fdlibm {

#if defined(__AVX512F__)
inline constexpr int kDoubleLanes = 8;
#elif defined(__AVX__)
inline constexpr int kDoubleLanes = 4;
#else
inline constexpr int kDoubleLanes = 2;
#endif

typedef double DoubleLanes
    __attribute__((vector_size(kDoubleLanes * sizeof(double))));
typedef int64_t Int64Lanes
    __attribute__((vector_size(kDoubleLanes * sizeof(int64_t))));
typedef uint64_t Uint64Lanes
    __attribute__((vector_size(kDoubleLanes * sizeof(uint64_t))));

// The per-width pieces the kernels need: the integer types of a lane,
// comparison results as all-ones/zero masks, and int <-> double
// conversions (truncating, like C casts).
template <class V>
struct Lane;

template <>
struct Lane<double> {
  using I = int64_t;
  using U = uint64_t;
  [[gnu::always_inline]] static U Mask(bool c) {
    return 0 - static_cast<U>(c);
  }
  [[gnu::always_inline]] static double ToDouble(I i) {
    return static_cast<double>(i);
  }
  [[gnu::always_inline]] static I Trunc(double d) { return static_cast<I>(d); }
  [[gnu::always_inline]] static double Sqrt(double d) { return std::sqrt(d); }
};

template <>
struct Lane<DoubleLanes> {
  using I = Int64Lanes;
  using U = Uint64Lanes;
  [[gnu::always_inline]] static U Mask(I c) { return (U)c; }
  [[gnu::always_inline]] static DoubleLanes ToDouble(I i) {
    return __builtin_convertvector(i, DoubleLanes);
  }
  [[gnu::always_inline]] static I Trunc(DoubleLanes d) {
    return __builtin_convertvector(d, I);
  }
  [[gnu::always_inline]] static DoubleLanes Sqrt(DoubleLanes d) {
#if defined(__AVX512F__)
    // The zero-masked form: GCC 12 warns that _mm512_sqrt_pd's undefined
    // pass-through operand may be used uninitialized.
    return _mm512_maskz_sqrt_pd(0xff, d);
#elif defined(__AVX__)
    return _mm256_sqrt_pd(d);
#elif defined(__SSE2__)
    return _mm_sqrt_pd(d);
#else
    for (int l = 0; l < kDoubleLanes; ++l) d[l] = std::sqrt(d[l]);
    return d;
#endif
  }
};

template <class V>
using LaneI = typename Lane<V>::I;
template <class V>
using LaneU = typename Lane<V>::U;

template <class V>
[[gnu::always_inline]] inline LaneU<V> Bits(V v) {
  return std::bit_cast<LaneU<V>>(v);
}

template <class V>
[[gnu::always_inline]] inline V FromBits(LaneU<V> u) {
  return std::bit_cast<V>(u);
}

// GET_HIGH_WORD: the upper 32 bits, as a non-negative integer.
template <class V>
[[gnu::always_inline]] inline LaneI<V> HighWord(V v) {
  return (LaneI<V>)(Bits(v) >> 32);
}

// Every lane equal to `c`.
template <class V>
[[gnu::always_inline]] inline V Splat(double c) {
  return V{} + c;
}

// `a` where the mask is all ones, `b` where it is zero. Bitwise, so it is
// never a branch and never touches the floating-point environment.
template <class V>
[[gnu::always_inline]] inline V Select(LaneU<V> m, V a, V b) {
  return FromBits<V>((Bits(a) & m) | (Bits(b) & ~m));
}

// fdlibm e_log.c (__ieee754_log) on finite x >= 2^-1022: the zero,
// negative, subnormal and inf/NaN filters are outside the domain.
template <class V>
[[gnu::always_inline]] inline V Log(V x) {
  using L = Lane<V>;
  using I = LaneI<V>;
  using U = LaneU<V>;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 3fe62e42 fee00000
  constexpr double kLn2Lo = 1.90821492927058770002e-10;  // 3dea39ef 35793c76
  constexpr double kLg1 = 6.666666666666735130e-01;      // 3FE55555 55555593
  constexpr double kLg2 = 3.999999999940941908e-01;      // 3FD99999 9997FA04
  constexpr double kLg3 = 2.857142874366239149e-01;      // 3FD24924 94229359
  constexpr double kLg4 = 2.222219843214978396e-01;      // 3FCC71C5 1D8E78AF
  constexpr double kLg5 = 1.818357216161805012e-01;      // 3FC74664 96CB03DE
  constexpr double kLg6 = 1.531383769920937332e-01;      // 3FC39A09 D078C69F
  constexpr double kLg7 = 1.479819860511658591e-01;      // 3FC2F112 DF3E5244

  const U bits = Bits(x);
  I hx = HighWord(x);
  I k = (hx >> 20) - 1023;
  hx &= 0x000fffff;
  const I i_norm = (hx + 0x95f64) & 0x100000;
  // SET_HIGH_WORD: x or x/2 normalized into [sqrt(2)/2, sqrt(2)), low word
  // kept.
  const V xn = FromBits<V>(((U)(hx | (i_norm ^ 0x3ff00000)) << 32) |
                           (bits & 0xffffffffu));
  k += i_norm >> 20;
  const V f = xn - 1.0;
  const V dk = L::ToDouble(k);
  const U k_zero = L::Mask(k == 0);

  // -2^-20 <= f < 2^-20: f = 0 exactly, else a short series.
  const V exact = Select(k_zero, V{}, dk * kLn2Hi + dk * kLn2Lo);
  const V r_tiny = f * f * (0.5 - 0.33333333333333333 * f);
  const V tiny = Select(k_zero, f - r_tiny,
                        dk * kLn2Hi - ((r_tiny - dk * kLn2Lo) - f));

  const V s = f / (2.0 + f);
  const V z = s * s;
  I i = hx - 0x6147a;
  const V w = z * z;
  const I j = 0x6b851 - hx;
  const V t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const V t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  i |= j;
  const V r = t2 + t1;
  // 0x6147a <= hx <= 0x6b851 (i > 0): the hfsq form.
  const V hfsq = 0.5 * f * f;
  const V near =
      Select(k_zero, f - (hfsq - s * (hfsq + r)),
             dk * kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f));
  const V far = Select(k_zero, f - s * (f - r),
                       dk * kLn2Hi - ((s * (f - r) - dk * kLn2Lo) - f));

  const V series = Select(L::Mask(f == 0.0), exact, tiny);
  return Select(L::Mask((0x000fffff & (2 + hx)) < 3), series,
                Select(L::Mask(i > 0), near, far));
}

// fdlibm k_sin.c (__kernel_sin) on |x| <= ~pi/4; `iy` is all ones where
// y (the tail of x) is significant, zero where it is 0.
template <class V>
[[gnu::always_inline]] inline V KernelSin(V x, V y, LaneU<V> iy) {
  using L = Lane<V>;
  constexpr double kHalf = 5.00000000000000000000e-01;  // 3FE00000 00000000
  constexpr double kS1 = -1.66666666666666324348e-01;   // BFC55555 55555549
  constexpr double kS2 = 8.33333333332248946124e-03;    // 3F811111 1110F8A6
  constexpr double kS3 = -1.98412698298579493134e-04;   // BF2A01A0 19C161D5
  constexpr double kS4 = 2.75573137070700676789e-06;    // 3EC71DE3 57B1FE7D
  constexpr double kS5 = -2.50507602534068634195e-08;   // BE5AE5E6 8A2B9CEB
  constexpr double kS6 = 1.58969099521155010221e-10;    // 3DE5D93A 5ACFD57C

  const LaneI<V> ix = HighWord(x) & 0x7fffffff;
  const V z = x * x;
  const V v = z * x;
  const V r = kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)));
  const V with_y = x - ((z * (kHalf * y - v * r) - y) - v * kS1);
  const V without_y = x + v * (kS1 + z * r);
  // |x| < 2^-27: sin x rounds to x.
  return Select(L::Mask(ix < 0x3e400000), x, Select(iy, with_y, without_y));
}

// fdlibm k_cos.c (__kernel_cos) on |x| <= ~pi/4.
template <class V>
[[gnu::always_inline]] inline V KernelCos(V x, V y) {
  using L = Lane<V>;
  using U = LaneU<V>;
  constexpr double kOne = 1.00000000000000000000e+00;  // 3FF00000 00000000
  constexpr double kC1 = 4.16666666666666019037e-02;   // 3FA55555 5555554C
  constexpr double kC2 = -1.38888888888741095749e-03;  // BF56C16C 16C15177
  constexpr double kC3 = 2.48015872894767294178e-05;   // 3EFA01A0 19CB1590
  constexpr double kC4 = -2.75573143513906633035e-07;  // BE927E4F 809C52AD
  constexpr double kC5 = 2.08757232129817482790e-09;   // 3E21EE9E BDB4B1C4
  constexpr double kC6 = -1.13596475577881948265e-11;  // BDA8FAE9 BE8838D4

  const LaneI<V> ix = HighWord(x) & 0x7fffffff;
  const V z = x * x;
  const V r =
      z * (kC1 + z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 + z * kC6)))));
  // |x| < 0.3.
  const V near = kOne - (0.5 * z - (z * r - x * y));
  // Otherwise subtract qx = x/4 (INSERT_WORDS(qx, ix - 0x00200000, 0)), or
  // 0.28125 above 0.78125, exactly from both terms.
  const V qx = Select(L::Mask(ix > 0x3fe90000), Splat<V>(0.28125),
                      FromBits<V>((U)(ix - 0x00200000) << 32));
  const V hz = 0.5 * z - qx;
  const V a = kOne - qx;
  const V far = a - (hz - (z * r - x * y));
  // |x| < 2^-27: cos x rounds to 1.
  return Select(L::Mask(ix < 0x3e400000), Splat<V>(kOne),
                Select(L::Mask(ix < 0x3FD33333), near, far));
}

// sin x and cos x for 0 <= x <= 2^19 pi/2: fdlibm s_sin.c / s_cos.c over
// one shared e_rem_pio2.c reduction x = n pi/2 + (y0 + y1).
template <class V>
[[gnu::always_inline]] inline void SinCos(V x, V& sin_x, V& cos_x) {
  using L = Lane<V>;
  using I = LaneI<V>;
  using U = LaneU<V>;
  constexpr double kHalf = 5.00000000000000000000e-01;     // 3FE00000 00000000
  constexpr double kInvPio2 = 6.36619772367581382433e-01;  // 3FE45F30 6DC9C883
  constexpr double kPio2_1 = 1.57079632673412561417e+00;   // 3FF921FB 54400000
  constexpr double kPio2_1t = 6.07710050650619224932e-11;  // 3DD0B461 1A626331
  constexpr double kPio2_2 = 6.07710050630396597660e-11;   // 3DD0B461 1A600000
  constexpr double kPio2_2t = 2.02226624879595063154e-21;  // 3BA3198A 2E037073
  constexpr double kPio2_3 = 2.02226624871116645580e-21;   // 3BA3198A 2E000000
  constexpr double kPio2_3t = 8.47842766036889956997e-32;  // 397B839A 252049C1
  constexpr double kPio2 = 1.57079632679489655800e+00;     // 3FF921FB 54442D18

  const I ix = HighWord(x);
  // |x| <= ~pi/4: no reduction, and sin uses the y-free kernel form.
  const U small = L::Mask(ix <= 0x3fe921fb);
  // pi/4 < |x| < 3pi/4: e_rem_pio2's n = 1 special case, which is the
  // medium path's first step at the n = 1 its rounding yields there, except
  // that near pi/2 (high word 0x3ff921fb) it always takes the second step.
  // That step subtracts pio2_2 exactly there (x - pio2_1 is a multiple of
  // 2^-52 below 2^-20, pio2_2 one of 2^-65), so its
  // w = fn*pio2_2t - ((t-r)-w) is exactly pio2_2t, as in the special
  // case's z -= pio2_2; y0 = z - pio2_2t.
  const U n_one = L::Mask(ix < 0x4002d97c);

  // Medium path: every refinement step computed, the needed one picked.
  const I n = L::Trunc(x * kInvPio2 + kHalf);
  const V fn = L::ToDouble(n);
  const I j = ix >> 20;
  const V r1 = x - fn * kPio2_1;
  const V w1 = fn * kPio2_1t;  // 1st round good to 85 bits
  const V y1_0 = r1 - w1;
  const I i1 = j - ((HighWord(y1_0) >> 20) & 0x7ff);
  const V p2 = fn * kPio2_2;  // 2nd round good to 118 bits
  const V r2 = r1 - p2;
  const V w2 = fn * kPio2_2t - ((r1 - r2) - p2);
  const V y2_0 = r2 - w2;
  const I i2 = j - ((HighWord(y2_0) >> 20) & 0x7ff);
  const V p3 = fn * kPio2_3;  // 3rd round, 151 bits: covers all cases
  const V r3 = r2 - p3;
  const V w3 = fn * kPio2_3t - ((r2 - r3) - p3);
  const V y3_0 = r3 - w3;
  // fdlibm skips the cancellation check when n < 32 and x's high word
  // differs from npio2_hw[n-1], the high word of n pi/2 -- which is the
  // high word of the double fn * pio2 for every such n (util_test checks).
  const U quick = L::Mask(n < 32) & L::Mask(ix != HighWord(fn * kPio2));
  const U step2 = (n_one & L::Mask(ix == 0x3ff921fb)) |
                  (~n_one & ~quick & L::Mask(i1 > 16));
  const U step3 = ~n_one & step2 & L::Mask(i2 > 49);
  const V r = Select(step3, r3, Select(step2, r2, r1));
  const V w = Select(step3, w3, Select(step2, w2, w1));
  const V y0 = Select(small, x, Select(step3, y3_0, Select(step2, y2_0, y1_0)));
  const V y1 = Select(small, V{}, (r - y0) - w);
  const U quadrant = (U)n & 3 & ~small;

  const V ks = KernelSin(y0, y1, ~small);
  const V kc = KernelCos(y0, y1);
  // sin: ks, kc, -ks, -kc and cos: kc, -ks, -kc, ks for n & 3 = 0..3.
  const U odd = L::Mask((quadrant & 1) != 0);
  sin_x = FromBits<V>(Bits(Select(odd, kc, ks)) ^ ((quadrant & 2) << 62));
  cos_x = FromBits<V>(Bits(Select(odd, ks, kc)) ^ (((quadrant + 1) & 2) << 62));
}

}  // namespace comet::fdlibm
