#include "util/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace comet {

size_t Histogram::BucketIndex(double v) {
  // !(v > 1.0) also routes NaN into bucket 0 instead of hitting the
  // float->integer cast below (which would be UB).
  if (!(v > 1.0)) {
    return 0;
  }
  if (v > 0x1p62) {  // overflow bucket: > 2^62, including +inf
    return kBuckets - 1;
  }
  // v in (1, 2^62]: ceil(v) is an integer in [2, 2^62], and the bucket with
  // upper bound 2^i holds exactly the values whose ceiling n satisfies
  // bit_width(n - 1) == i. Pure integer bit ops -- no log2 calls.
  const auto n = static_cast<uint64_t>(std::ceil(v));
  return static_cast<size_t>(std::bit_width(n - 1));
}

double Histogram::BucketUpperBound(size_t bucket) {
  COMET_CHECK_LT(bucket, kBuckets);
  if (bucket == kBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return std::ldexp(1.0, static_cast<int>(bucket));  // 2^bucket
}

void Histogram::Add(double v) {
  ++buckets_[BucketIndex(v)];
  ++count_;
  sum_ += v;
}

void Histogram::Clear() {
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0.0;
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

uint64_t Histogram::bucket_count(size_t bucket) const {
  COMET_CHECK_LT(bucket, kBuckets);
  return buckets_[bucket];
}

double Histogram::PercentileUpperBound(double p) const {
  COMET_CHECK_GT(count_, 0u);
  COMET_CHECK_GE(p, 0.0);
  COMET_CHECK_LE(p, 100.0);
  // Same rank arithmetic as NearestRankSorted: rank = ceil(p*n/100),
  // multiply before dividing, p == 0 maps to rank 1.
  auto rank = static_cast<uint64_t>(
      std::ceil(p * static_cast<double>(count_) / 100.0));
  rank = std::max<uint64_t>(rank, 1);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    cumulative += buckets_[b];
    if (cumulative >= rank) {
      return BucketUpperBound(b);
    }
  }
  return BucketUpperBound(kBuckets - 1);
}

Histogram Histogram::FromBuckets(std::span<const uint64_t> buckets,
                                 double sum) {
  COMET_CHECK_EQ(buckets.size(), kBuckets);
  Histogram out;
  for (size_t b = 0; b < kBuckets; ++b) {
    out.buckets_[b] = buckets[b];
    out.count_ += buckets[b];
  }
  out.sum_ = sum;
  return out;
}

namespace {

// Nearest-rank lookup over an already-sorted sample vector.
double NearestRankSorted(std::span<const double> sorted, double p) {
  COMET_CHECK(!sorted.empty());
  COMET_CHECK_GE(p, 0.0);
  COMET_CHECK_LE(p, 100.0);
  // rank = ceil(p*n/100), clamped to [1, n]; p == 0 maps to rank 1 (min).
  // Multiply BEFORE dividing: p*n is exact for integer-valued p (< 2^53),
  // and an integer quotient divides exactly, so ceil never overshoots a
  // rank the way ceil((p/100)*n) does (e.g. p=55, n=20: 0.55*20 rounds to
  // 11.000000000000002, whose ceil is 12).
  const auto rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size()) / 100.0));
  const size_t index = rank == 0 ? 0 : rank - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace

double PercentileNearestRank(std::span<const double> values, double p) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return NearestRankSorted(sorted, p);
}

LatencySummary SummarizeLatency(std::span<const double> values) {
  LatencySummary out;
  if (values.empty()) {
    return out;
  }
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  out.count = sorted.size();
  double sum = 0.0;
  for (double v : sorted) {
    sum += v;
  }
  out.mean = sum / static_cast<double>(sorted.size());
  out.min = sorted.front();
  out.max = sorted.back();
  out.p50 = NearestRankSorted(sorted, 50.0);
  out.p95 = NearestRankSorted(sorted, 95.0);
  out.p99 = NearestRankSorted(sorted, 99.0);
  return out;
}

double GeometricMean(const std::vector<double>& values) {
  COMET_CHECK(!values.empty());
  double log_sum = 0.0;
  for (double v : values) {
    COMET_CHECK_GT(v, 0.0);
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double PopulationStddev(const std::vector<double>& values) {
  COMET_CHECK(!values.empty());
  double mean = 0.0;
  for (double v : values) {
    mean += v;
  }
  mean /= static_cast<double>(values.size());
  double var = 0.0;
  for (double v : values) {
    var += (v - mean) * (v - mean);
  }
  return std::sqrt(var / static_cast<double>(values.size()));
}

}  // namespace comet
