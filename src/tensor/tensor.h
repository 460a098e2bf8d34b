// Owning dense tensor plus lightweight row views.
//
// Storage is an f32 master copy at every dtype (CPU arithmetic is float);
// for the 2-byte dtypes the tensor additionally maintains the REPRESENTABLE
// invariant: every stored value is exactly expressible in BF16/F16, so the
// f32 master and the 16-bit encoding name the same number. Fill constructors
// establish the invariant by rounding (RNE, tensor/dtype.h codecs);
// Quantize()/QuantizeRow() re-establish it at the compute plane's explicit
// rounding points (GEMM stores, activation stores, combine outputs). Raw
// writes through row()/at()/data() are intentionally unrounded -- f32
// accumulation between rounding points is exactly the tensor-core contract.
//
// The functional plane only needs: allocation, random/constant fill, 2-D
// row access (tokens are rows), row gather/scatter, and elementwise
// comparison with tolerance.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "tensor/dtype.h"
#include "tensor/shape.h"

namespace comet {

class Rng;

class Tensor {
 public:
  Tensor() = default;
  // Allocates zero-initialized storage of the given shape.
  explicit Tensor(Shape shape, DType logical_dtype = DType::kF32);

  static Tensor Zeros(Shape shape, DType logical_dtype = DType::kF32);
  static Tensor Full(Shape shape, float value, DType logical_dtype = DType::kF32);
  // iid N(0, stddev^2) entries.
  static Tensor Randn(Shape shape, Rng& rng, float stddev = 1.0f,
                      DType logical_dtype = DType::kF32);
  // Row-major iota scaled by `scale`; handy for deterministic tests.
  static Tensor Iota(Shape shape, float scale = 1.0f,
                     DType logical_dtype = DType::kF32);

  const Shape& shape() const { return shape_; }
  DType dtype() const { return dtype_; }
  // Rounds every element to this tensor's dtype (no-op at kF32). The
  // per-element rounding is pure, so parallel and serial calls agree.
  void Quantize();
  // Rounds one row (rank-2 tensors) -- the combine paths' store-rounding.
  void QuantizeRow(int64_t r);
  // Copy of this tensor relabeled AND rounded to `dtype`. The master values
  // of a widening copy (bf16 -> f32) are unchanged.
  Tensor AsType(DType dtype) const;
  int64_t NumElements() const { return shape_.NumElements(); }
  // Bytes this tensor would occupy at its *logical* dtype (used by the
  // memory planner and comm cost models).
  double LogicalBytes() const;

  std::span<float> data() { return std::span<float>(data_); }
  std::span<const float> data() const { return std::span<const float>(data_); }

  // Element access. Allocation-free: the index list is consumed as a span
  // (hot loops like dgate accumulation call this per element).
  float& at(std::initializer_list<int64_t> index);
  float at(std::initializer_list<int64_t> index) const;
  float& at(std::span<const int64_t> index);
  float at(std::span<const int64_t> index) const;

  // Rank-2 helpers. Row views are spans over contiguous storage.
  int64_t rows() const;
  int64_t cols() const;
  std::span<float> row(int64_t r);
  std::span<const float> row(int64_t r) const;

  // ---- in-place workspace API ----------------------------------------------
  // The serving plane's zero-allocation contract: a workspace tensor is
  // Reserve()d once at its run-level bound, then ResetFormat2D() retargets
  // it every iteration within that capacity -- no allocation, no implicit
  // zeroing. Contents after ResetFormat2D are UNSPECIFIED (whatever the
  // previous iteration left); callers either overwrite every row or
  // FillZero the slice they need. Fill{Zero,Randn} are the in-place
  // counterparts of Zeros/Randn and produce bit-identical values.

  // Grows storage capacity to `num_elements` floats (allocates; warm-up
  // only). Never shrinks, never changes shape or contents.
  void Reserve(int64_t num_elements);
  // Reshapes to (rows, cols) at `dtype` in place. Allocation-free whenever
  // rows * cols fits the reserved capacity and the tensor was already
  // rank-2 (or had rank >= 2 dims capacity).
  void ResetFormat2D(int64_t rows, int64_t cols, DType dtype);
  // Zeroes all elements / rows [row_begin, row_end) (rank-2).
  void FillZero();
  void FillZeroRows(int64_t row_begin, int64_t row_end);
  // Refills with iid N(0, stddev^2) (Rng::FillNormal), then rounds to dtype.
  // Randn is a fresh tensor plus this fill, so pooled and
  // freshly-constructed request tensors hold bit-identical values for the
  // same rng state.
  void FillRandn(Rng& rng, float stddev = 1.0f);

  // Gathers rows of `src` at `indices` into a new tensor (rank-2).
  static Tensor GatherRows(const Tensor& src, const std::vector<int64_t>& indices);

  // Copies `src_row` (a row span) into row `r` of this tensor.
  void SetRow(int64_t r, std::span<const float> src_row);

  // Adds `src_row` scaled by `weight` into row `r` (used by top-k combine).
  void AccumulateRow(int64_t r, std::span<const float> src_row, float weight);

  // Max absolute difference; shapes must match.
  static float MaxAbsDiff(const Tensor& a, const Tensor& b);
  // True if all elements differ by at most atol + rtol * |b|.
  static bool AllClose(const Tensor& a, const Tensor& b, float rtol = 1e-5f,
                       float atol = 1e-6f);

  std::string DebugString(int64_t max_elements = 16) const;

 private:
  Shape shape_;
  DType dtype_ = DType::kF32;
  std::vector<float> data_;
};

}  // namespace comet
