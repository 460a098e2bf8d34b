// Test-only reference: fdlibm routines transcribed verbatim with their
// branches. glibc's fdlibm tanhf (sysdeps/ieee754/flt-32/s_tanhf.c) and
// expm1f (s_expm1f.c), the code glibc 2.36 ships on x86-64 (no ifunc
// variants, no FMA), define GELU; fdlibm 5.3's e_log.c, k_sin.c, k_cos.c,
// s_sin.c, s_cos.c and e_rem_pio2.c (up to its medium range) define
// Box-Muller's normals. GET_FLOAT_WORD/SET_FLOAT_WORD and the double
// word macros become std::bit_cast; errno and floating-point-exception side
// effects are dropped, since only the returned value is compared. The
// production kernels (src/moe/activation.cc, src/util/fdlibm.h) are
// branch-free rewrites of the same algorithms and must match them bit for
// bit. Like the kernels, this relies on -ffp-contract=off.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>

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

// ---- fdlibm 5.3 double routines (Box-Muller) ------------------------------

inline int32_t GetHighWord(double x) {
  return static_cast<int32_t>(std::bit_cast<uint64_t>(x) >> 32);
}
inline uint32_t GetLowWord(double x) {
  return static_cast<uint32_t>(std::bit_cast<uint64_t>(x));
}
inline double SetHighWord(double x, int32_t hi) {
  return std::bit_cast<double>(
      (static_cast<uint64_t>(static_cast<uint32_t>(hi)) << 32) | GetLowWord(x));
}
inline double InsertWords(int32_t hi, uint32_t lo) {
  return std::bit_cast<double>(
      (static_cast<uint64_t>(static_cast<uint32_t>(hi)) << 32) | lo);
}

// e_log.c
inline double Log(double x) {
  static constexpr double
      ln2_hi = 6.93147180369123816490e-01, /* 3fe62e42 fee00000 */
      ln2_lo = 1.90821492927058770002e-10, /* 3dea39ef 35793c76 */
      two54 = 1.80143985094819840000e+16,  /* 43500000 00000000 */
      Lg1 = 6.666666666666735130e-01,      /* 3FE55555 55555593 */
      Lg2 = 3.999999999940941908e-01,      /* 3FD99999 9997FA04 */
      Lg3 = 2.857142874366239149e-01,      /* 3FD24924 94229359 */
      Lg4 = 2.222219843214978396e-01,      /* 3FCC71C5 1D8E78AF */
      Lg5 = 1.818357216161805012e-01,      /* 3FC74664 96CB03DE */
      Lg6 = 1.531383769920937332e-01,      /* 3FC39A09 D078C69F */
      Lg7 = 1.479819860511658591e-01;      /* 3FC2F112 DF3E5244 */
  static const double zero = 0.0;

  double hfsq, f, s, z, R, w, t1, t2, dk;
  int32_t k, hx, i, j;
  uint32_t lx;

  hx = GetHighWord(x);
  lx = GetLowWord(x);

  k = 0;
  if (hx < 0x00100000) { /* x < 2**-1022  */
    if (((hx & 0x7fffffff) | lx) == 0) return -two54 / zero; /* log(+-0)=-inf */
    if (hx < 0) return (x - x) / zero; /* log(-#) = NaN */
    k -= 54;
    x *= two54; /* subnormal number, scale up x */
    hx = GetHighWord(x);
  }
  if (hx >= 0x7ff00000) return x + x;
  k += (hx >> 20) - 1023;
  hx &= 0x000fffff;
  i = (hx + 0x95f64) & 0x100000;
  x = SetHighWord(x, hx | (i ^ 0x3ff00000)); /* normalize x or x/2 */
  k += (i >> 20);
  f = x - 1.0;
  if ((0x000fffff & (2 + hx)) < 3) { /* -2**-20 <= f < 2**-20 */
    if (f == zero) {
      if (k == 0) {
        return zero;
      } else {
        dk = static_cast<double>(k);
        return dk * ln2_hi + dk * ln2_lo;
      }
    }
    R = f * f * (0.5 - 0.33333333333333333 * f);
    if (k == 0) {
      return f - R;
    } else {
      dk = static_cast<double>(k);
      return dk * ln2_hi - ((R - dk * ln2_lo) - f);
    }
  }
  s = f / (2.0 + f);
  dk = static_cast<double>(k);
  z = s * s;
  i = hx - 0x6147a;
  w = z * z;
  j = 0x6b851 - hx;
  t1 = w * (Lg2 + w * (Lg4 + w * Lg6));
  t2 = z * (Lg1 + w * (Lg3 + w * (Lg5 + w * Lg7)));
  i |= j;
  R = t2 + t1;
  if (i > 0) {
    hfsq = 0.5 * f * f;
    if (k == 0)
      return f - (hfsq - s * (hfsq + R));
    else
      return dk * ln2_hi - ((hfsq - (s * (hfsq + R) + dk * ln2_lo)) - f);
  } else {
    if (k == 0)
      return f - s * (f - R);
    else
      return dk * ln2_hi - ((s * (f - R) - dk * ln2_lo) - f);
  }
}

// k_sin.c
inline double KernelSin(double x, double y, int iy) {
  static constexpr double
      half = 5.00000000000000000000e-01, /* 0x3FE00000, 0x00000000 */
      S1 = -1.66666666666666324348e-01,  /* 0xBFC55555, 0x55555549 */
      S2 = 8.33333333332248946124e-03,   /* 0x3F811111, 0x1110F8A6 */
      S3 = -1.98412698298579493134e-04,  /* 0xBF2A01A0, 0x19C161D5 */
      S4 = 2.75573137070700676789e-06,   /* 0x3EC71DE3, 0x57B1FE7D */
      S5 = -2.50507602534068634195e-08,  /* 0xBE5AE5E6, 0x8A2B9CEB */
      S6 = 1.58969099521155010221e-10;   /* 0x3DE5D93A, 0x5ACFD57C */
  double z, r, v;
  int32_t ix;
  ix = GetHighWord(x) & 0x7fffffff; /* high word of x */
  if (ix < 0x3e400000) {             /* |x| < 2**-27 */
    if (static_cast<int>(x) == 0) return x; /* generate inexact */
  }
  z = x * x;
  v = z * x;
  r = S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)));
  if (iy == 0)
    return x + v * (S1 + z * r);
  else
    return x - ((z * (half * y - v * r) - y) - v * S1);
}

// k_cos.c
inline double KernelCos(double x, double y) {
  static constexpr double
      one = 1.00000000000000000000e+00, /* 0x3FF00000, 0x00000000 */
      C1 = 4.16666666666666019037e-02,  /* 0x3FA55555, 0x5555554C */
      C2 = -1.38888888888741095749e-03, /* 0xBF56C16C, 0x16C15177 */
      C3 = 2.48015872894767294178e-05,  /* 0x3EFA01A0, 0x19CB1590 */
      C4 = -2.75573143513906633035e-07, /* 0xBE927E4F, 0x809C52AD */
      C5 = 2.08757232129817482790e-09,  /* 0x3E21EE9E, 0xBDB4B1C4 */
      C6 = -1.13596475577881948265e-11; /* 0xBDA8FAE9, 0xBE8838D4 */
  double a, hz, z, r, qx;
  int32_t ix;
  ix = GetHighWord(x) & 0x7fffffff; /* ix = |x|'s high word*/
  if (ix < 0x3e400000) {             /* if x < 2**27 */
    if ((static_cast<int>(x)) == 0) return one; /* generate inexact */
  }
  z = x * x;
  r = z * (C1 + z * (C2 + z * (C3 + z * (C4 + z * (C5 + z * C6)))));
  if (ix < 0x3FD33333) /* if |x| < 0.3 */
    return one - (0.5 * z - (z * r - x * y));
  else {
    if (ix > 0x3fe90000) { /* x > 0.78125 */
      qx = 0.28125;
    } else {
      qx = InsertWords(ix - 0x00200000, 0); /* x/4 */
    }
    hz = 0.5 * z - qx;
    a = one - qx;
    return a - (hz - (z * r - x * y));
  }
}

/* High words of n*pi/2, n = 1..32: the medium path's cancellation check. */
inline constexpr int32_t npio2_hw[] = {
    0x3FF921FB, 0x400921FB, 0x4012D97C, 0x401921FB, 0x401F6A7A, 0x4022D97C,
    0x4025FDBB, 0x402921FB, 0x402C463A, 0x402F6A7A, 0x4031475C, 0x4032D97C,
    0x40346B9C, 0x4035FDBB, 0x40378FDB, 0x403921FB, 0x403AB41B, 0x403C463A,
    0x403DD85A, 0x403F6A7A, 0x40407E4C, 0x4041475C, 0x4042106C, 0x4042D97C,
    0x4043A28C, 0x40446B9C, 0x404534AC, 0x4045FDBB, 0x4046C6CB, 0x40478FDB,
    0x404858EB, 0x404921FB,
};

// e_rem_pio2.c for |x| <= 2^19 pi/2 (the __kernel_rem_pio2 path for larger
// arguments is not transcribed; the reference aborts there).
inline int32_t RemPio2(double x, double* y) {
  static constexpr double
      half = 5.00000000000000000000e-01,    /* 0x3FE00000, 0x00000000 */
      invpio2 = 6.36619772367581382433e-01, /* 0x3FE45F30, 0x6DC9C883 */
      pio2_1 = 1.57079632673412561417e+00,  /* 0x3FF921FB, 0x54400000 */
      pio2_1t = 6.07710050650619224932e-11, /* 0x3DD0B461, 0x1A626331 */
      pio2_2 = 6.07710050630396597660e-11,  /* 0x3DD0B461, 0x1A600000 */
      pio2_2t = 2.02226624879595063154e-21, /* 0x3BA3198A, 0x2E037073 */
      pio2_3 = 2.02226624871116645580e-21,  /* 0x3BA3198A, 0x2E000000 */
      pio2_3t = 8.47842766036889956997e-32; /* 0x397B839A, 0x252049C1 */
  double z, w, t, r, fn;
  int32_t i, j, n, ix, hx;

  hx = GetHighWord(x); /* high word of x */
  ix = hx & 0x7fffffff;
  if (ix <= 0x3fe921fb) { /* |x| ~<= pi/4 , no need for reduction */
    y[0] = x;
    y[1] = 0;
    return 0;
  }
  if (ix < 0x4002d97c) { /* |x| < 3pi/4, special case with n=+-1 */
    if (hx > 0) {
      z = x - pio2_1;
      if (ix != 0x3ff921fb) { /* 33+53 bit pi is good enough */
        y[0] = z - pio2_1t;
        y[1] = (z - y[0]) - pio2_1t;
      } else { /* near pi/2, use 33+33+53 bit pi */
        z -= pio2_2;
        y[0] = z - pio2_2t;
        y[1] = (z - y[0]) - pio2_2t;
      }
      return 1;
    } else { /* negative x */
      z = x + pio2_1;
      if (ix != 0x3ff921fb) { /* 33+53 bit pi is good enough */
        y[0] = z + pio2_1t;
        y[1] = (z - y[0]) + pio2_1t;
      } else { /* near pi/2, use 33+33+53 bit pi */
        z += pio2_2;
        y[0] = z + pio2_2t;
        y[1] = (z - y[0]) + pio2_2t;
      }
      return -1;
    }
  }
  if (ix <= 0x413921fb) { /* |x| ~<= 2^19*(pi/2), medium size */
    t = std::fabs(x);
    n = static_cast<int32_t>(t * invpio2 + half);
    fn = static_cast<double>(n);
    r = t - fn * pio2_1;
    w = fn * pio2_1t; /* 1st round good to 85 bit */
    if (n < 32 && ix != npio2_hw[n - 1]) {
      y[0] = r - w; /* quick check no cancellation */
    } else {
      uint32_t high;
      j = ix >> 20;
      y[0] = r - w;
      high = static_cast<uint32_t>(GetHighWord(y[0]));
      i = j - ((high >> 20) & 0x7ff);
      if (i > 16) { /* 2nd iteration needed, good to 118 */
        t = r;
        w = fn * pio2_2;
        r = t - w;
        w = fn * pio2_2t - ((t - r) - w);
        y[0] = r - w;
        high = static_cast<uint32_t>(GetHighWord(y[0]));
        i = j - ((high >> 20) & 0x7ff);
        if (i > 49) { /* 3rd iteration need, 151 bits acc */
          t = r;      /* will cover all possible cases */
          w = fn * pio2_3;
          r = t - w;
          w = fn * pio2_3t - ((t - r) - w);
          y[0] = r - w;
        }
      }
    }
    y[1] = (r - y[0]) - w;
    if (hx < 0) {
      y[0] = -y[0];
      y[1] = -y[1];
      return -n;
    } else
      return n;
  }
  std::abort(); /* large arguments: __kernel_rem_pio2, not transcribed */
}

// s_sin.c
inline double Sin(double x) {
  double y[2], z = 0.0;
  int32_t n, ix;
  ix = GetHighWord(x);
  ix &= 0x7fffffff;
  if (ix <= 0x3fe921fb)
    return KernelSin(x, z, 0);
  else if (ix >= 0x7ff00000)
    return x - x;
  else {
    n = RemPio2(x, y);
    switch (n & 3) {
      case 0:
        return KernelSin(y[0], y[1], 1);
      case 1:
        return KernelCos(y[0], y[1]);
      case 2:
        return -KernelSin(y[0], y[1], 1);
      default:
        return -KernelCos(y[0], y[1]);
    }
  }
}

// s_cos.c
inline double Cos(double x) {
  double y[2], z = 0.0;
  int32_t n, ix;
  ix = GetHighWord(x);
  ix &= 0x7fffffff;
  if (ix <= 0x3fe921fb)
    return KernelCos(x, z);
  else if (ix >= 0x7ff00000)
    return x - x;
  else {
    n = RemPio2(x, y);
    switch (n & 3) {
      case 0:
        return KernelCos(y[0], y[1]);
      case 1:
        return -KernelSin(y[0], y[1], 1);
      case 2:
        return -KernelCos(y[0], y[1]);
      default:
        return KernelSin(y[0], y[1], 1);
    }
  }
}

}  // namespace comet::fdlibm_reference
