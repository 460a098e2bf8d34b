// Unit tests for the utility substrate: checks, RNG, statistics, tables,
// metadata store and string helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <numbers>
#include <vector>

#include "tests/fdlibm_reference.h"
#include "util/check.h"
#include "util/fdlibm.h"
#include "util/metadata_store.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/units.h"

namespace comet {
namespace {

// ---- check ----------------------------------------------------------------

TEST(Check, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(COMET_CHECK(1 + 1 == 2) << "math works");
}

TEST(Check, FailingCheckThrowsWithContext) {
  try {
    COMET_CHECK_EQ(2, 3) << "custom context";
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom context"), std::string::npos);
    EXPECT_NE(what.find("util_test.cc"), std::string::npos);
  }
}

TEST(Check, ComparisonMacros) {
  EXPECT_THROW(COMET_CHECK_LT(3, 3), CheckError);
  EXPECT_NO_THROW(COMET_CHECK_LE(3, 3));
  EXPECT_THROW(COMET_CHECK_GT(2, 3), CheckError);
  EXPECT_NO_THROW(COMET_CHECK_GE(3, 3));
  EXPECT_THROW(COMET_CHECK_NE(5, 5), CheckError);
}

// ---- rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  std::vector<double> samples;
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(rng.Normal(3.0, 2.0));
    sum += samples.back();
  }
  EXPECT_NEAR(sum / static_cast<double>(samples.size()), 3.0, 0.1);
  EXPECT_NEAR(PopulationStddev(samples), 2.0, 0.1);
}

// FillUniform is NextDouble a span at a time: the same doubles, and the
// same generator state afterwards.
TEST(Rng, FillUniformMatchesNextDouble) {
  Rng fill(9);
  Rng scalar(9);
  std::vector<double> got;
  for (size_t n = 0; n <= 70; ++n) {
    got.assign(n, -1.0);
    fill.FillUniform(got);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got[i]),
                std::bit_cast<uint64_t>(scalar.NextDouble()))
          << "n " << n << " i " << i;
    }
    ASSERT_EQ(fill.NextU64(), scalar.NextU64()) << "n " << n;
  }
}

TEST(Rng, LoadVectorZeroStdIsUniform) {
  Rng rng(8);
  const auto v = rng.LoadVectorWithStd(8, 0.0);
  for (double p : v) {
    EXPECT_DOUBLE_EQ(p, 1.0 / 8.0);
  }
}

TEST(Rng, LoadVectorHitsTargetStd) {
  Rng rng(9);
  for (double target : {0.01, 0.032, 0.05}) {
    const auto v = rng.LoadVectorWithStd(8, target);
    double sum = 0.0;
    for (double p : v) {
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_NEAR(PopulationStddev(v), target, target * 0.25 + 1e-9);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(10);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto copy = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

// FillNormal is Normal a span at a time: the same floats, and the same
// generator state afterwards (a cached second value included), whatever the
// span length, the entry cache and the calls around it.
TEST(Rng, FillNormalMatchesScalarNormal) {
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 70; ++len) lengths.push_back(len);
  lengths.push_back(4096);
  const std::pair<double, double> params[] = {{0.0, 1.0}, {0.0, 0.02},
                                              {3.0, 2.0}};
  uint64_t seed = 100;
  for (const auto& [mean, stddev] : params) {
    for (const bool cached : {false, true}) {
      for (const size_t len : lengths) {
        SCOPED_TRACE(testing::Message() << "mean " << mean << " stddev "
                                        << stddev << " cached " << cached
                                        << " len " << len);
        Rng fill(++seed);
        Rng scalar(seed);
        if (cached) {  // one draw leaves the pair's second value cached
          EXPECT_EQ(std::bit_cast<uint64_t>(fill.Normal(mean, stddev)),
                    std::bit_cast<uint64_t>(scalar.Normal(mean, stddev)));
        }
        // Fill, a few scalar draws, a second (short) fill: all must agree.
        for (const size_t n : {len, size_t{3}, len % 7 + 1}) {
          std::vector<float> got(n);
          fill.FillNormal(got, mean, stddev);
          int mismatches = 0;
          for (size_t i = 0; i < n; ++i) {
            const float want = static_cast<float>(scalar.Normal(mean, stddev));
            mismatches += std::bit_cast<uint32_t>(got[i]) !=
                          std::bit_cast<uint32_t>(want);
          }
          ASSERT_EQ(mismatches, 0) << "fill of " << n;
          for (int k = 0; k < 3; ++k) {
            ASSERT_EQ(std::bit_cast<uint64_t>(fill.Normal(mean, stddev)),
                      std::bit_cast<uint64_t>(scalar.Normal(mean, stddev)));
          }
        }
        ASSERT_EQ(fill.NextU64(), scalar.NextU64());
      }
    }
  }
}

// Box-Muller's log, sin and cos kernels (util/fdlibm.h), at scalar and at
// lane width, return the bits of the branchy fdlibm transcription
// (tests/fdlibm_reference.h) over a stride sweep of the Box-Muller inputs
// and +-4096 ulps around every branch threshold of the reference.
TEST(Rng, BoxMullerKernelsMatchFdlibmReference) {
  namespace ref = fdlibm_reference;
  using fdlibm::DoubleLanes;
  using fdlibm::kDoubleLanes;
  constexpr int64_t kUlps = 4096;
  constexpr double kPio2 = std::numbers::pi / 2;
  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  const auto from_bits = [](uint64_t u) { return std::bit_cast<double>(u); };
  const auto window = [&](std::vector<double>& xs, double center) {
    const uint64_t c = std::bit_cast<uint64_t>(center);
    for (int64_t d = -kUlps; d <= kUlps; ++d) {
      xs.push_back(from_bits(c + static_cast<uint64_t>(d)));
    }
  };

  // The kernel computes fdlibm's npio2_hw[n - 1] as the high word of the
  // double n * pi/2.
  for (int n = 1; n <= 32; ++n) {
    EXPECT_EQ(ref::GetHighWord(n * kPio2), ref::npio2_hw[n - 1]) << n;
  }

  // Box-Muller inputs: u1 = m 2^-53 in (0, 1), theta = 2 pi m 2^-53.
  constexpr uint64_t kTop = uint64_t{1} << 53;
  std::vector<double> unit;
  for (uint64_t m = 1; m < kTop; m += 8589934583) unit.push_back(m * 0x1p-53);
  for (uint64_t m = 1; m <= 4096; ++m) {
    unit.push_back(m * 0x1p-53);
    unit.push_back((kTop - m) * 0x1p-53);
  }
  std::vector<double> log_in = unit;
  std::vector<double> trig_in{0.0};
  for (const double u : unit) trig_in.push_back(kTwoPi * u);

  // log: f == 0 (powers of two), the -2^-20 <= f < 2^-20 window's edges,
  // the 0x95f64 normalization carry and the i = (hx - 0x6147a) |
  // (0x6b851 - hx) > 0 split, over the Box-Muller exponents and a few
  // others.
  std::vector<int> exponents = {-1022, -1021, 0, 1, 2, 100, 1023};
  for (int e = -60; e <= -1; ++e) exponents.push_back(e);
  for (const int e : exponents) {
    for (const uint64_t mh :
         {0x00000u, 0xffffeu, 0x00002u, 0x6a09cu, 0x6147au, 0x6b852u}) {
      const uint64_t center = (static_cast<uint64_t>(e + 1023) << 52) |
                              (mh << 32);
      std::vector<double> xs;
      window(xs, from_bits(center));
      for (const double x : xs) {
        if (x >= 0x1p-1022 && std::isfinite(x)) log_in.push_back(x);
      }
    }
  }

  // rem_pio2: the pi/4 cut, the n = 1 case's 3pi/4 cut and its pi/2 word
  // (0x3ff921fb), n pi/2 (the i > 16 and i > 49 cancellation steps) and
  // its high word's edges (the quick check, n < 32 included), the
  // quadrant-rounding midpoints (n + 1/2) pi/2, and the medium range's
  // top. kernel_sin/cos: the 2^-27, 0.3 (0x3FD33333) and 0.78125
  // (0x3fe90000) cuts, reached directly and through each reduction.
  std::vector<double> centers = {
      std::numbers::pi / 4,  from_bits(0x3fe921fc00000000),
      from_bits(0x4002d97c00000000), from_bits(0x3ff921fb00000000),
      from_bits(0x3ff921fc00000000), from_bits(0x413921fb00000000)};
  for (int n = 1; n <= 33; ++n) {
    const double npio2 = n * kPio2;
    const uint64_t hw = std::bit_cast<uint64_t>(npio2) >> 32;
    centers.push_back(npio2);
    centers.push_back(from_bits(hw << 32));
    centers.push_back(from_bits((hw + 1) << 32));
    centers.push_back((n - 0.5) * kPio2);
  }
  // i > 16 at a first-step y0 of ~2^-16 x needs the slow path without
  // sharing n pi/2's high word, so only n >= 31 reaches it.
  for (int n = 30; n <= 34; ++n) {
    const double npio2 = n * kPio2;
    for (int k = 15; k <= 18; ++k) {
      const double d = std::ldexp(1.0, std::ilogb(npio2) - k);
      centers.push_back(npio2 - d);
      centers.push_back(npio2 + d);
    }
  }
  for (const uint64_t cut :
       {0x3e40000000000000u, 0x3FD3333400000000u, 0x3fe9000100000000u}) {
    for (int n = 0; n <= 4; ++n) {
      centers.push_back(n * kPio2 + from_bits(cut));
      if (n > 0) centers.push_back(n * kPio2 - from_bits(cut));
    }
  }
  for (const double c : centers) window(trig_in, c);

  // Each function at scalar width and at lane width against the reference.
  const auto check = [&](const char* name, const std::vector<double>& xs,
                         auto&& kernel, auto&& reference) {
    int64_t scalar_bad = 0;
    int64_t lane_bad = 0;
    for (size_t i = 0; i < xs.size(); i += kDoubleLanes) {
      DoubleLanes v;
      for (int l = 0; l < kDoubleLanes; ++l) {
        v[l] = xs[std::min(i + static_cast<size_t>(l), xs.size() - 1)];
      }
      const DoubleLanes lanes = kernel(v);
      for (int l = 0; l < kDoubleLanes && i + l < xs.size(); ++l) {
        const uint64_t want = std::bit_cast<uint64_t>(reference(v[l]));
        scalar_bad += std::bit_cast<uint64_t>(kernel(v[l])) != want;
        lane_bad += std::bit_cast<uint64_t>(lanes[l]) != want;
      }
    }
    EXPECT_EQ(scalar_bad, 0) << name << " scalar, of " << xs.size();
    EXPECT_EQ(lane_bad, 0) << name << " lanes, of " << xs.size();
  };
  const auto sin = [](auto x) {
    decltype(x) s, c;
    fdlibm::SinCos(x, s, c);
    return s;
  };
  const auto cos = [](auto x) {
    decltype(x) s, c;
    fdlibm::SinCos(x, s, c);
    return c;
  };
  check("log", log_in, [](auto x) { return fdlibm::Log(x); }, ref::Log);
  check("sin", trig_in, sin, ref::Sin);
  check("cos", trig_in, cos, ref::Cos);

  // Informational: how often the host libm differs from fdlibm on the
  // Box-Muller inputs, and whether any normal changes after the float cast.
  int64_t host_log = 0;
  int64_t host_sin = 0;
  int64_t host_cos = 0;
  int64_t host_float = 0;
  for (size_t i = 0; i < unit.size(); ++i) {
    const double u1 = unit[i];
    const double theta = kTwoPi * unit[unit.size() - 1 - i];
    const double l = ref::Log(u1);
    const double s = ref::Sin(theta);
    const double c = ref::Cos(theta);
    host_log += std::log(u1) != l;
    host_sin += std::sin(theta) != s;
    host_cos += std::cos(theta) != c;
    const double r = std::sqrt(-2.0 * l);
    const double host_r = std::sqrt(-2.0 * std::log(u1));
    host_float += static_cast<float>(r * c) !=
                  static_cast<float>(host_r * std::cos(theta));
    host_float += static_cast<float>(r * s) !=
                  static_cast<float>(host_r * std::sin(theta));
  }
  std::printf(
      "host libm vs fdlibm over %zu Box-Muller inputs: log %lld, sin %lld, "
      "cos %lld differ; %lld of %zu float normals differ\n",
      unit.size(), static_cast<long long>(host_log),
      static_cast<long long>(host_sin), static_cast<long long>(host_cos),
      static_cast<long long>(host_float), 2 * unit.size());
}

// ---- stats -----------------------------------------------------------------

TEST(Stats, PercentileNearestRankOddCount) {
  // Sorted: {10, 20, 30, 40, 50}. rank = ceil(p/100 * 5).
  const std::vector<double> v{30.0, 10.0, 50.0, 20.0, 40.0};
  EXPECT_DOUBLE_EQ(PercentileNearestRank(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(v, 50.0), 30.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(v, 95.0), 50.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(v, 99.0), 50.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(v, 100.0), 50.0);
}

TEST(Stats, PercentileNearestRankEvenCountNeverInterpolates) {
  // p50 over an even count picks the LOWER middle (rank ceil(0.5*4) = 2),
  // never the mean of the middles -- the result is always a real sample.
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(PercentileNearestRank(v, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(v, 75.0), 3.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(v, 76.0), 4.0);
}

TEST(Stats, PercentileNearestRankExactIntegerRanks) {
  // p*n/100 lands exactly on an integer rank: the naive (p/100)*n float
  // ordering overshoots by one (0.55*20 = 11.000000000000002). rank must
  // be exactly 11 -> the 11th smallest = 11.0.
  std::vector<double> v;
  for (int i = 1; i <= 20; ++i) {
    v.push_back(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(PercentileNearestRank(v, 55.0), 11.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(v, 20.0), 4.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(v, 5.0), 1.0);
}

TEST(Stats, PercentileNearestRankSingletonAndTies) {
  EXPECT_DOUBLE_EQ(PercentileNearestRank(std::vector<double>{7.0}, 99.0), 7.0);
  const std::vector<double> ties{5.0, 5.0, 5.0, 9.0};
  EXPECT_DOUBLE_EQ(PercentileNearestRank(ties, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(ties, 75.0), 5.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(ties, 80.0), 9.0);
}

TEST(Stats, PercentileNearestRankMatchesBruteForce) {
  // Cross-check the rank formula against the definition: the smallest
  // sample with at least ceil(p/100 * n) samples <= it.
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> v;
    const int n = static_cast<int>(rng.UniformInt(1, 40));
    for (int i = 0; i < n; ++i) {
      v.push_back(rng.Uniform(-10.0, 10.0));
    }
    for (double p : {0.0, 12.5, 50.0, 90.0, 95.0, 99.0, 100.0}) {
      const double got = PercentileNearestRank(v, p);
      std::vector<double> sorted = v;
      std::sort(sorted.begin(), sorted.end());
      const auto need = static_cast<size_t>(
          std::ceil(p * static_cast<double>(n) / 100.0));
      double expected = sorted.back();
      for (double x : sorted) {
        size_t at_most = 0;
        for (double y : sorted) {
          if (y <= x) ++at_most;
        }
        if (at_most >= std::max<size_t>(need, 1)) {
          expected = x;
          break;
        }
      }
      EXPECT_DOUBLE_EQ(got, expected) << "n=" << n << " p=" << p;
    }
  }
}

TEST(Stats, PercentileNearestRankRejectsBadInput) {
  EXPECT_THROW(PercentileNearestRank(std::vector<double>{}, 50.0), CheckError);
  EXPECT_THROW(PercentileNearestRank(std::vector<double>{1.0}, -1.0),
               CheckError);
  EXPECT_THROW(PercentileNearestRank(std::vector<double>{1.0}, 101.0),
               CheckError);
}

TEST(Stats, SummarizeLatency) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) {
    v.push_back(static_cast<double>(i));
  }
  const LatencySummary s = SummarizeLatency(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);

  const LatencySummary empty = SummarizeLatency(std::vector<double>{});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.p99, 0.0);
}

// ---- histogram -------------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  // Bucket 0: everything <= 1, including zero, negatives and NaN.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(-5.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(std::nan("")), 0u);
  // Bucket i holds (2^(i-1), 2^i]: upper bounds are inclusive.
  EXPECT_EQ(Histogram::BucketIndex(1.0001), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2.0), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2.0001), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4.0), 2u);
  EXPECT_EQ(Histogram::BucketIndex(1024.0), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1025.0), 11u);
  // Overflow bucket: above 2^62, including +inf.
  EXPECT_EQ(Histogram::BucketIndex(0x1p62), 62u);
  EXPECT_EQ(Histogram::BucketIndex(0x1p63),
            Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<double>::infinity()),
            Histogram::kBuckets - 1);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(0), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(10), 1024.0);
  EXPECT_TRUE(
      std::isinf(Histogram::BucketUpperBound(Histogram::kBuckets - 1)));
}

TEST(Histogram, ExactCountAndSum) {
  Histogram h;
  double want_sum = 0.0;
  Rng rng(31);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.Uniform(0.0, 1e6);
    h.Add(v);
    want_sum += v;
  }
  EXPECT_EQ(h.count(), 500u);
  // Count and sum are exact (same fp additions, same order), only the
  // percentile view is bucketed.
  EXPECT_DOUBLE_EQ(h.sum(), want_sum);
  EXPECT_DOUBLE_EQ(h.mean(), want_sum / 500.0);
  uint64_t total = 0;
  for (size_t b = 0; b < Histogram::kBuckets; ++b) {
    total += h.bucket_count(b);
  }
  EXPECT_EQ(total, 500u);
}

TEST(Histogram, PercentileMatchesBruteForce) {
  // The estimate must equal BucketUpperBound(BucketIndex(x)) where x is the
  // EXACT nearest-rank sample: bucketing is monotonic, so the rank-th sample
  // and the rank-th bucketed sample land in the same bucket.
  Rng rng(47);
  for (int trial = 0; trial < 25; ++trial) {
    Histogram h;
    std::vector<double> v;
    const int n = static_cast<int>(rng.UniformInt(1, 200));
    for (int i = 0; i < n; ++i) {
      // Mix scales so many buckets participate, including bucket 0.
      const double x = std::exp(rng.Uniform(-2.0, 18.0));
      h.Add(x);
      v.push_back(x);
    }
    for (double p : {0.0, 12.5, 50.0, 90.0, 95.0, 99.0, 100.0}) {
      const double exact = PercentileNearestRank(v, p);
      EXPECT_DOUBLE_EQ(h.PercentileUpperBound(p),
                       Histogram::BucketUpperBound(Histogram::BucketIndex(
                           exact)))
          << "n=" << n << " p=" << p;
      // And the bound is in fact an upper bound on the exact percentile.
      EXPECT_GE(h.PercentileUpperBound(p), exact);
    }
  }
}

TEST(Histogram, FromBucketsRoundTrips) {
  Histogram h;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    h.Add(rng.Uniform(0.0, 5000.0));
  }
  const Histogram copy = Histogram::FromBuckets(h.buckets(), h.sum());
  EXPECT_EQ(copy.count(), h.count());
  EXPECT_DOUBLE_EQ(copy.sum(), h.sum());
  for (double p : {50.0, 95.0, 99.0}) {
    EXPECT_DOUBLE_EQ(copy.PercentileUpperBound(p), h.PercentileUpperBound(p));
  }
}

TEST(Histogram, ClearResets) {
  Histogram h;
  h.Add(3.0);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_THROW(h.PercentileUpperBound(50.0), CheckError);
}

TEST(Stats, GeometricMean) {
  EXPECT_NEAR(GeometricMean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_NEAR(GeometricMean({1.5}), 1.5, 1e-12);
  EXPECT_THROW(GeometricMean({1.0, -1.0}), CheckError);
}

TEST(Stats, PopulationStddev) {
  EXPECT_DOUBLE_EQ(PopulationStddev({1.0, 1.0, 1.0}), 0.0);
  EXPECT_NEAR(PopulationStddev({1.0, 3.0}), 1.0, 1e-12);
}

// ---- table -----------------------------------------------------------------

TEST(AsciiTable, RendersAlignedColumns) {
  AsciiTable t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22"});
  const std::string rendered = t.Render();
  EXPECT_NE(rendered.find("name  | value"), std::string::npos);
  EXPECT_NE(rendered.find("alpha | 1"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(AsciiTable, PadsShortRows) {
  AsciiTable t({"a", "b", "c"});
  t.AddRow({"only"});
  EXPECT_NO_THROW(t.Render());
}

TEST(Format, Helpers) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatUsAsMs(1234.0), "1.234");
  EXPECT_EQ(FormatSpeedup(1.959), "1.96x");
  EXPECT_EQ(FormatPercent(0.865), "86.5%");
}

// ---- units -----------------------------------------------------------------

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(GBps(1.0), 1000.0);         // 1 GB/s = 1000 B/us
  EXPECT_DOUBLE_EQ(TFlops(1.0), 1e6);          // 1 TFLOP/s = 1e6 flop/us
  EXPECT_DOUBLE_EQ(kBytesPerMiB, 1048576.0);
}

// ---- metadata store --------------------------------------------------------

class MetadataStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("comet_meta_test_" + std::to_string(::getpid()) + ".txt");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(MetadataStoreTest, RoundTrip) {
  MetadataStore store;
  store.Put("cluster|model|layer0", "26");
  store.PutInt("nc", 46);
  store.PutDouble("duration", 123.456);
  store.Save(path_.string());

  const MetadataStore loaded = MetadataStore::Load(path_.string());
  EXPECT_EQ(loaded.Get("cluster|model|layer0"), "26");
  EXPECT_EQ(loaded.GetInt("nc"), 46);
  EXPECT_NEAR(*loaded.GetDouble("duration"), 123.456, 1e-9);
  EXPECT_EQ(loaded.size(), 3u);
}

TEST_F(MetadataStoreTest, MissingFileYieldsEmptyStore) {
  const MetadataStore loaded = MetadataStore::Load("/nonexistent/meta.txt");
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_FALSE(loaded.Get("anything").has_value());
}

TEST_F(MetadataStoreTest, RejectsKeysWithEquals) {
  MetadataStore store;
  EXPECT_THROW(store.Put("bad=key", "v"), CheckError);
}

// ---- string utils ----------------------------------------------------------

TEST(StringUtil, SplitAndJoin) {
  const auto parts = Split("a|b||c", '|');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

}  // namespace
}  // namespace comet
