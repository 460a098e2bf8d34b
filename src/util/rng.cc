#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <numeric>

#include "util/check.h"
#include "util/fdlibm.h"

namespace comet {
namespace {

// One Box-Muller pair per lane: r = sqrt(-2 log u1), theta = 2 pi u2.
template <class V>
[[gnu::always_inline]] inline void BoxMuller(V u1, V u2, V& r, V& cos_theta,
                                             V& sin_theta) {
  r = fdlibm::Lane<V>::Sqrt(-2.0 * fdlibm::Log(u1));
  fdlibm::SinCos(2.0 * std::numbers::pi * u2, sin_theta, cos_theta);
}

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) {
    s = SplitMix64(sm);
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

void Rng::FillUniform(std::span<double> out) {
  for (double& u : out) {
    u = NextDouble();
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  COMET_CHECK_LE(lo, hi);
  const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) {  // full 64-bit range
    return static_cast<int64_t>(NextU64());
  }
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t v;
  do {
    v = NextU64();
  } while (v >= limit);
  return lo + static_cast<int64_t>(v % range);
}

double Rng::Uniform(double lo, double hi) {
  COMET_CHECK_LE(lo, hi);
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextPositiveDouble() {
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return u;
}

double Rng::Normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  const double u1 = NextPositiveDouble();
  const double u2 = NextDouble();
  double r, cos_theta, sin_theta;
  BoxMuller(u1, u2, r, cos_theta, sin_theta);
  cached_normal_ = r * sin_theta;
  has_cached_normal_ = true;
  return mean + stddev * r * cos_theta;
}

void Rng::FillNormal(std::span<float> out, double mean, double stddev) {
  using fdlibm::DoubleLanes;
  using fdlibm::kDoubleLanes;
  // Pairs per batch. The uniforms are drawn serially, in Normal's order;
  // the kernels then run kDoubleLanes pairs at a time.
  constexpr size_t kBatch = 16 * kDoubleLanes;
  size_t i = 0;
  if (has_cached_normal_ && !out.empty()) {
    has_cached_normal_ = false;
    out[i++] = static_cast<float>(mean + stddev * cached_normal_);
  }
  while (i < out.size()) {
    const size_t pairs = std::min(kBatch, (out.size() - i + 1) / 2);
    alignas(sizeof(DoubleLanes)) double u1[kBatch], u2[kBatch];
    for (size_t p = 0; p < pairs; ++p) {
      u1[p] = NextPositiveDouble();
      u2[p] = NextDouble();
    }
    // Pad the last vector with an in-domain pair whose results go unused.
    const size_t padded =
        (pairs + kDoubleLanes - 1) / kDoubleLanes * kDoubleLanes;
    std::fill(u1 + pairs, u1 + padded, 0.5);
    std::fill(u2 + pairs, u2 + padded, 0.0);
    alignas(sizeof(DoubleLanes)) double first[kBatch], sin_part[kBatch];
    for (size_t p = 0; p < padded; p += kDoubleLanes) {
      DoubleLanes vu1, vu2, r, cos_theta, sin_theta;
      std::memcpy(&vu1, u1 + p, sizeof(vu1));
      std::memcpy(&vu2, u2 + p, sizeof(vu2));
      BoxMuller(vu1, vu2, r, cos_theta, sin_theta);
      const DoubleLanes vfirst = mean + stddev * r * cos_theta;
      const DoubleLanes vsin = r * sin_theta;
      std::memcpy(first + p, &vfirst, sizeof(vfirst));
      std::memcpy(sin_part + p, &vsin, sizeof(vsin));
    }
    for (size_t p = 0; p < pairs; ++p) {
      out[i++] = static_cast<float>(first[p]);
      if (i == out.size()) {
        cached_normal_ = sin_part[p];
        has_cached_normal_ = true;
        break;
      }
      out[i++] = static_cast<float>(mean + stddev * sin_part[p]);
    }
  }
}

std::vector<double> Rng::LoadVectorWithStd(size_t n, double target_std) {
  COMET_CHECK_GT(n, 0u);
  COMET_CHECK_GE(target_std, 0.0);
  const double mean = 1.0 / static_cast<double>(n);
  std::vector<double> v(n, mean);
  if (target_std == 0.0 || n == 1) {
    return v;
  }
  // Start from a random direction orthogonal to the all-ones vector, then
  // scale it to the requested population std and clamp to non-negative.
  std::vector<double> dir(n);
  double dir_mean = 0.0;
  for (auto& d : dir) {
    d = Normal();
    dir_mean += d;
  }
  dir_mean /= static_cast<double>(n);
  double norm2 = 0.0;
  for (auto& d : dir) {
    d -= dir_mean;  // orthogonal to ones => perturbation preserves the sum
    norm2 += d * d;
  }
  const double dir_std = std::sqrt(norm2 / static_cast<double>(n));
  if (dir_std == 0.0) {
    return v;
  }
  for (size_t i = 0; i < n; ++i) {
    v[i] = mean + dir[i] / dir_std * target_std;
  }
  // Clamp and renormalize; for the std ranges the paper sweeps (<= 0.05 with
  // n = 8 experts) clamping rarely triggers, so the resulting std stays close
  // to the target.
  double sum = 0.0;
  for (auto& x : v) {
    x = std::max(x, 0.0);
    sum += x;
  }
  for (auto& x : v) {
    x /= sum;
  }
  return v;
}

}  // namespace comet
