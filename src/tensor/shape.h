// Dense row-major shapes. Rank is small (<= 4 in practice: the MoE runtime
// deals in matrices and token batches) but the type is rank-generic.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace comet {

class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<int64_t> dims);
  explicit Shape(std::vector<int64_t> dims);

  size_t rank() const { return dims_.size(); }
  int64_t dim(size_t i) const;
  int64_t operator[](size_t i) const { return dim(i); }

  // Product of all dims; 1 for rank-0.
  int64_t NumElements() const;

  // Row-major strides in elements: stride(i) = product of dims after i.
  std::vector<int64_t> Strides() const;

  // Flat row-major offset for the given index vector (must match rank, each
  // index in range). The span overload is allocation-free (Horner form, no
  // materialized strides) -- the one hot paths like Tensor::at() use.
  int64_t FlatIndex(std::span<const int64_t> index) const;
  int64_t FlatIndex(const std::vector<int64_t>& index) const {
    return FlatIndex(std::span<const int64_t>(index));
  }

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  // In-place mutation to a rank-2 shape. Reuses dims_ capacity: on an
  // already-rank>=2 shape this never allocates, which is what lets the
  // serving plane's workspace tensors change row count every iteration
  // without touching the heap.
  void SetDims2(int64_t rows, int64_t cols);

  // "[128, 4096]"
  std::string ToString() const;

 private:
  std::vector<int64_t> dims_;
};

}  // namespace comet
