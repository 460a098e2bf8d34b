// Summary statistics used by the benchmark harnesses and the serving plane:
// log2 histograms, nearest-rank percentiles, and geometric-mean speedup
// aggregation as reported in the paper's §5.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace comet {

// Fixed-bucket log2 histogram: 64 buckets covering the full useful double
// range with O(1) memory and no per-sample allocation, plus an EXACT count
// and sum (the bucketing only coarsens percentiles, never totals).
//
// Bucket layout: bucket 0 holds v <= 1 (including zero and negatives);
// bucket i in [1, 62] holds 2^(i-1) < v <= 2^i; bucket 63 is the overflow
// bucket (v > 2^62, including +inf). Upper bounds are exact powers of two,
// so BucketIndex is pure integer bit arithmetic -- no libm on the hot path.
//
// This is the one histogram implementation in the repo: the telemetry
// registry's atomic histograms snapshot into a Histogram so percentile math
// exists exactly once (see src/obs/metrics.h).
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  // Bucket that `v` falls into (NaN maps to bucket 0 alongside <=1 values).
  static size_t BucketIndex(double v);
  // Inclusive upper bound of `bucket`: 2^bucket, +inf for the last bucket.
  static double BucketUpperBound(size_t bucket);

  void Add(double v);
  void Clear();

  size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const;
  uint64_t bucket_count(size_t bucket) const;
  std::span<const uint64_t> buckets() const { return buckets_; }

  // Nearest-rank percentile ESTIMATE: the upper bound of the bucket holding
  // the rank-ceil(p/100*count) sample. Because bucketing is monotonic this
  // always equals BucketUpperBound(BucketIndex(x)) where x is the exact
  // nearest-rank sample (cross-checked brute-force in util_test). Requires
  // non-empty, p in [0, 100].
  double PercentileUpperBound(double p) const;

  // Rebuilds a Histogram from raw bucket counts + exact sum -- the
  // telemetry registry snapshot path.
  static Histogram FromBuckets(std::span<const uint64_t> buckets, double sum);

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  size_t count_ = 0;
  double sum_ = 0.0;
};

// Exact nearest-rank percentile: the smallest sample x such that at least
// ceil(p/100 * n) of the samples are <= x (p == 0 returns the minimum).
// It never interpolates -- the result is always
// a value that actually occurred, which keeps aggregated latency metrics
// bit-reproducible across runs (the serving plane's determinism contract
// extends to its reported percentiles). Requires non-empty, p in [0, 100].
double PercentileNearestRank(std::span<const double> values, double p);

// p50/p95/p99 reduction of a latency sample set (nearest-rank, so the
// summary of a deterministic simulated-clock run is itself deterministic).
// All fields are 0 for an empty input.
struct LatencySummary {
  size_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

LatencySummary SummarizeLatency(std::span<const double> values);

// Geometric mean of a set of positive ratios; the paper's "1.71x average
// speedup" style aggregate. Requires all values > 0.
double GeometricMean(const std::vector<double>& values);

// Population standard deviation of a vector (used to report achieved expert
// load std in Figure 14 workloads).
double PopulationStddev(const std::vector<double>& values);

}  // namespace comet
