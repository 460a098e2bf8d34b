// Test-only reference: glibc's fdlibm tanhf (sysdeps/ieee754/flt-32/
// s_tanhf.c) and expm1f (s_expm1f.c), transcribed verbatim with their
// branches, the code glibc 2.36 ships on x86-64 (no ifunc variants, no FMA).
// GET_FLOAT_WORD/SET_FLOAT_WORD become std::bit_cast; errno and
// floating-point-exception side effects are dropped, since only the returned
// value is compared. The production kernel (src/moe/activation.cc) is a
// branch-free rewrite of the same algorithm and must match it bit for bit.
// Like the kernel, this relies on -ffp-contract=off.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

namespace comet::fdlibm_reference {

inline int32_t GetFloatWord(float x) { return std::bit_cast<int32_t>(x); }
inline float SetFloatWord(int32_t i) { return std::bit_cast<float>(i); }

inline float Expm1f(float x) {
  static constexpr float one = 1.0, huge = 1.0e+30, tiny = 1.0e-30,
                         o_threshold = 8.8721679688e+01, /* 0x42b17180 */
      ln2_hi = 6.9313812256e-01,                         /* 0x3f317180 */
      ln2_lo = 9.0580006145e-06,                         /* 0x3717f7d1 */
      invln2 = 1.4426950216e+00,                         /* 0x3fb8aa3b */
      /* scaled coefficients related to expm1 */
      Q1 = -3.3333335072e-02, /* 0xbd088889 */
      Q2 = 1.5873016091e-03,  /* 0x3ad00d01 */
      Q3 = -7.9365076090e-05, /* 0xb8a670cd */
      Q4 = 4.0082177293e-06,  /* 0x36867e54 */
      Q5 = -2.0109921195e-07; /* 0xb457edbb */

  float y, hi, lo, c = 0.0f, t, e, hxs, hfx, r1;
  int32_t k, xsb;
  uint32_t hx;

  hx = static_cast<uint32_t>(GetFloatWord(x));
  xsb = static_cast<int32_t>(hx & 0x80000000); /* sign bit of x */
  if (xsb == 0)
    y = x;
  else
    y = -x; /* y = |x| */
  (void)y;
  hx &= 0x7fffffff; /* high word of |x| */

  /* filter out huge and non-finite argument */
  if (hx >= 0x4195b844) {   /* if |x|>=27*ln2 */
    if (hx >= 0x42b17218) { /* if |x|>=88.721... */
      if (hx > 0x7f800000) return x + x; /* NaN */
      if (hx == 0x7f800000)
        return (xsb == 0) ? x : -1.0f; /* exp(+-inf)={inf,-1} */
      if (x > o_threshold) return huge * huge; /* overflow */
    }
    if (xsb != 0) {     /* x < -27*ln2, return -1.0 with inexact */
      return tiny - one; /* return -1 */
    }
  }

  /* argument reduction */
  if (hx > 0x3eb17218) {   /* if  |x| > 0.5 ln2 */
    if (hx < 0x3F851592) { /* and |x| < 1.5 ln2 */
      if (xsb == 0) {
        hi = x - ln2_hi;
        lo = ln2_lo;
        k = 1;
      } else {
        hi = x + ln2_hi;
        lo = -ln2_lo;
        k = -1;
      }
    } else {
      k = static_cast<int32_t>(invln2 * x + ((xsb == 0) ? 0.5f : -0.5f));
      t = static_cast<float>(k);
      hi = x - t * ln2_hi; /* t*ln2_hi is exact here */
      lo = t * ln2_lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000) { /* when |x|<2**-25, return x */
    t = huge + x; /* return x with inexact flags when x!=0 */
    return x - (t - (huge + x));
  } else
    k = 0;

  /* x is now in primary range */
  hfx = 0.5f * x;
  hxs = x * hfx;
  r1 = one + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
  t = 3.0f - r1 * hfx;
  e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs); /* c is 0 */
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f)
      return -2.0f * (e - (x + 0.5f));
    else
      return one + 2.0f * (x - e);
  }
  if (k <= -2 || k > 56) { /* suffice to return exp(x)-1 */
    y = one - (e - x);
    const int32_t i = GetFloatWord(y);
    /* add k to y's exponent */
    y = SetFloatWord(static_cast<int32_t>(static_cast<uint32_t>(i) +
                                          (static_cast<uint32_t>(k) << 23)));
    return y - one;
  }
  t = one;
  if (k < 23) {
    t = SetFloatWord(0x3f800000 - (0x1000000 >> k)); /* t=1-2^-k */
    y = t - (e - x);
    const int32_t i = GetFloatWord(y);
    y = SetFloatWord(i + (k << 23)); /* add k to y's exponent */
  } else {
    t = SetFloatWord((0x7f - k) << 23); /* 2^-k */
    y = x - (e + t);
    y += one;
    const int32_t i = GetFloatWord(y);
    y = SetFloatWord(i + (k << 23)); /* add k to y's exponent */
  }
  return y;
}

inline float Tanhf(float x) {
  static constexpr float one = 1.0, two = 2.0, tiny = 1.0e-30;
  float t, z;
  int32_t jx, ix;

  jx = GetFloatWord(x);
  ix = jx & 0x7fffffff;

  /* x is INF or NaN */
  if (ix >= 0x7f800000) {
    if (jx >= 0)
      return one / x + one; /* tanh(+-inf)=+-1 */
    else
      return one / x - one; /* tanh(NaN) = NaN */
  }

  /* |x| < 22 */
  if (ix < 0x41b00000) { /* |x|<22 */
    if (ix == 0) return x;     /* x == +-0 */
    if (ix < 0x24000000)       /* |x|<2**-55 */
      return x * (one + x);    /* tanh(small) = small */
    if (ix >= 0x3f800000) {    /* |x|>=1  */
      t = Expm1f(two * std::fabs(x));
      z = one - two / (t + two);
    } else {
      t = Expm1f(-two * std::fabs(x));
      z = -t / (t + two);
    }
    /* |x| > 22, return +-1 */
  } else {
    z = one - tiny; /* raised inexact flag */
  }
  return (jx >= 0) ? z : -z;
}

// GELU (tanh approximation) evaluated exactly as the production kernel
// writes it, on top of the reference tanhf.
inline float Gelu(float x) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  const float inner = kC * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + Tanhf(inner));
}

}  // namespace comet::fdlibm_reference
