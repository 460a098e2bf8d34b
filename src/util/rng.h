// Deterministic pseudo-random number generation for workload synthesis.
//
// All randomness in the repository flows through comet::Rng so that every
// experiment (routing tables, token values, imbalance patterns) is exactly
// reproducible from a seed. The core generator is xoshiro256**, seeded via
// splitmix64 as recommended by its authors; distribution helpers cover the
// cases the benches need (uniform, normal, Dirichlet-like expert-load
// vectors with a target standard deviation).
//
// Normals are Box-Muller over this repository's branch-free fdlibm log, sin
// and cos (util/fdlibm.h), never the host libm, so every drawn value -- and
// every token, weight and load vector synthesized from it -- is a pure
// function of the seed and this source.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace comet {

// xoshiro256** generator with distribution helpers. Copyable; copies diverge
// independently from the point of the copy.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed5eed5eed5eedULL);

  // Raw 64 random bits.
  uint64_t NextU64();

  // Uniform in [0, 1).
  double NextDouble();

  // out[i] = NextDouble() for every i in order, with the generator step
  // inlined (the synthetic router draws a block of tokens' uniforms at
  // once). Never allocates.
  void FillUniform(std::span<double> out);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform real in [lo, hi).
  double Uniform(double lo, double hi);

  // N(mean, stddev^2) via Box-Muller: one pair per two calls. A pair draws
  // u1 (redrawn while <= 0) then u2, sets r = sqrt(-2 log u1) and
  // theta = 2 pi u2, returns mean + stddev * r * cos(theta) and caches the
  // standard r * sin(theta), which the next call returns as
  // mean + stddev * (r * sin(theta)) with that call's mean and stddev.
  double Normal(double mean = 0.0, double stddev = 1.0);

  // out[i] = static_cast<float>(Normal(mean, stddev)) for every i in order,
  // leaving the generator (cached value included) exactly as those calls
  // would, but evaluating the pairs' log, sin and cos a vector at a time.
  // Never allocates.
  void FillNormal(std::span<float> out, double mean, double stddev);

  // Produces a probability vector of length n whose standard deviation
  // (treating the entries as a population) is approximately `target_std`.
  // Used to reproduce the paper's Figure 14 x-axis: the std of the expert
  // load distribution. target_std == 0 yields the uniform vector 1/n.
  std::vector<double> LoadVectorWithStd(size_t n, double target_std);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  // Uniform in (0, 1): NextDouble redrawn while it is 0.
  double NextPositiveDouble();

  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace comet
