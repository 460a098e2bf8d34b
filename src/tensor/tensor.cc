#include "tensor/tensor.h"

#include <cmath>
#include <sstream>

#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace comet {

Tensor::Tensor(Shape shape, DType logical_dtype)
    : shape_(std::move(shape)),
      dtype_(logical_dtype),
      data_(static_cast<size_t>(shape_.NumElements()), 0.0f) {}

Tensor Tensor::Zeros(Shape shape, DType logical_dtype) {
  return Tensor(std::move(shape), logical_dtype);
}

Tensor Tensor::Full(Shape shape, float value, DType logical_dtype) {
  Tensor t(std::move(shape), logical_dtype);
  const float v = QuantizeScalar(value, logical_dtype);
  for (auto& x : t.data_) {
    x = v;
  }
  return t;
}

Tensor Tensor::Randn(Shape shape, Rng& rng, float stddev, DType logical_dtype) {
  Tensor t(std::move(shape), logical_dtype);
  t.FillRandn(rng, stddev);
  return t;
}

Tensor Tensor::Iota(Shape shape, float scale, DType logical_dtype) {
  Tensor t(std::move(shape), logical_dtype);
  for (size_t i = 0; i < t.data_.size(); ++i) {
    t.data_[i] = scale * static_cast<float>(i);
  }
  t.Quantize();
  return t;
}

void Tensor::Quantize() {
  if (dtype_ == DType::kF32) {
    return;
  }
  QuantizeSpan(std::span<float>(data_), dtype_);
}

void Tensor::QuantizeRow(int64_t r) {
  if (dtype_ == DType::kF32) {
    return;
  }
  QuantizeSpan(row(r), dtype_);
}

Tensor Tensor::AsType(DType dtype) const {
  Tensor out = *this;
  out.dtype_ = dtype;
  out.Quantize();
  return out;
}

double Tensor::LogicalBytes() const {
  return static_cast<double>(NumElements()) *
         static_cast<double>(DTypeSize(dtype_));
}

float& Tensor::at(std::initializer_list<int64_t> index) {
  return at(std::span<const int64_t>(index.begin(), index.size()));
}

float Tensor::at(std::initializer_list<int64_t> index) const {
  return at(std::span<const int64_t>(index.begin(), index.size()));
}

float& Tensor::at(std::span<const int64_t> index) {
  return data_[static_cast<size_t>(shape_.FlatIndex(index))];
}

float Tensor::at(std::span<const int64_t> index) const {
  return data_[static_cast<size_t>(shape_.FlatIndex(index))];
}

int64_t Tensor::rows() const {
  COMET_CHECK_EQ(shape_.rank(), 2u) << "rows() requires a rank-2 tensor";
  return shape_.dim(0);
}

int64_t Tensor::cols() const {
  COMET_CHECK_EQ(shape_.rank(), 2u) << "cols() requires a rank-2 tensor";
  return shape_.dim(1);
}

std::span<float> Tensor::row(int64_t r) {
  COMET_CHECK_GE(r, 0);
  COMET_CHECK_LT(r, rows());
  return std::span<float>(data_).subspan(static_cast<size_t>(r * cols()),
                                         static_cast<size_t>(cols()));
}

std::span<const float> Tensor::row(int64_t r) const {
  COMET_CHECK_GE(r, 0);
  COMET_CHECK_LT(r, rows());
  return std::span<const float>(data_).subspan(static_cast<size_t>(r * cols()),
                                               static_cast<size_t>(cols()));
}

void Tensor::Reserve(int64_t num_elements) {
  COMET_CHECK_GE(num_elements, 0);
  data_.reserve(static_cast<size_t>(num_elements));
}

void Tensor::ResetFormat2D(int64_t rows, int64_t cols, DType dtype) {
  shape_.SetDims2(rows, cols);
  dtype_ = dtype;
  // resize within reserved capacity never reallocates; contents of reused
  // elements are intentionally left as-is (see header).
  data_.resize(static_cast<size_t>(rows * cols));
}

void Tensor::FillZero() {
  std::fill(data_.begin(), data_.end(), 0.0f);
}

void Tensor::FillZeroRows(int64_t row_begin, int64_t row_end) {
  COMET_CHECK_GE(row_begin, 0);
  COMET_CHECK_LE(row_begin, row_end);
  COMET_CHECK_LE(row_end, rows());
  std::fill(data_.begin() + row_begin * cols(),
            data_.begin() + row_end * cols(), 0.0f);
}

void Tensor::FillRandn(Rng& rng, float stddev) {
  rng.FillNormal(data_, 0.0, stddev);
  Quantize();
}

Tensor Tensor::GatherRows(const Tensor& src, const std::vector<int64_t>& indices) {
  COMET_CHECK_EQ(src.shape().rank(), 2u);
  Tensor out(Shape{static_cast<int64_t>(indices.size()), src.cols()},
             src.dtype());
  // Destination rows are disjoint; fan the copies across the pool.
  ParallelFor(0, static_cast<int64_t>(indices.size()), 32, [&](int64_t i) {
    out.SetRow(i, src.row(indices[static_cast<size_t>(i)]));
  });
  return out;
}

void Tensor::SetRow(int64_t r, std::span<const float> src_row) {
  auto dst = row(r);
  COMET_CHECK_EQ(dst.size(), src_row.size());
  std::copy(src_row.begin(), src_row.end(), dst.begin());
}

void Tensor::AccumulateRow(int64_t r, std::span<const float> src_row,
                           float weight) {
  auto dst = row(r);
  COMET_CHECK_EQ(dst.size(), src_row.size());
  for (size_t i = 0; i < dst.size(); ++i) {
    dst[i] += weight * src_row[i];
  }
}

float Tensor::MaxAbsDiff(const Tensor& a, const Tensor& b) {
  COMET_CHECK(a.shape() == b.shape())
      << a.shape().ToString() << " vs " << b.shape().ToString();
  float worst = 0.0f;
  for (size_t i = 0; i < a.data_.size(); ++i) {
    worst = std::max(worst, std::abs(a.data_[i] - b.data_[i]));
  }
  return worst;
}

bool Tensor::AllClose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  COMET_CHECK(a.shape() == b.shape())
      << a.shape().ToString() << " vs " << b.shape().ToString();
  for (size_t i = 0; i < a.data_.size(); ++i) {
    const float diff = std::abs(a.data_[i] - b.data_[i]);
    if (diff > atol + rtol * std::abs(b.data_[i])) {
      return false;
    }
  }
  return true;
}

std::string Tensor::DebugString(int64_t max_elements) const {
  std::ostringstream os;
  os << "Tensor" << shape_.ToString() << " " << DTypeName(dtype_) << " {";
  const int64_t n = std::min<int64_t>(max_elements, NumElements());
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) {
      os << ", ";
    }
    os << data_[static_cast<size_t>(i)];
  }
  if (n < NumElements()) {
    os << ", ...";
  }
  os << "}";
  return os.str();
}

}  // namespace comet
