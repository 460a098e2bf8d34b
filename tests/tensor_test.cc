// Unit tests for the tensor substrate: dtypes, shapes, tensors and row ops.
#include <gtest/gtest.h>

#include "tensor/dtype.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"
#include "util/check.h"
#include "util/rng.h"

namespace comet {
namespace {

// ---- dtype -----------------------------------------------------------------

TEST(DType, Sizes) {
  EXPECT_EQ(DTypeSize(DType::kF32), 4u);
  EXPECT_EQ(DTypeSize(DType::kBF16), 2u);
  EXPECT_EQ(DTypeSize(DType::kF16), 2u);
}

TEST(DType, Names) {
  EXPECT_EQ(DTypeName(DType::kF32), "f32");
  EXPECT_EQ(DTypeName(DType::kBF16), "bf16");
}

// ---- shape -----------------------------------------------------------------

TEST(Shape, BasicProperties) {
  const Shape s{3, 4, 5};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.dim(1), 4);
  EXPECT_EQ(s.NumElements(), 60);
  EXPECT_EQ(s.ToString(), "[3, 4, 5]");
}

TEST(Shape, RankZero) {
  const Shape s;
  EXPECT_EQ(s.rank(), 0u);
  EXPECT_EQ(s.NumElements(), 1);
}

TEST(Shape, Strides) {
  const Shape s{3, 4, 5};
  const auto strides = s.Strides();
  ASSERT_EQ(strides.size(), 3u);
  EXPECT_EQ(strides[0], 20);
  EXPECT_EQ(strides[1], 5);
  EXPECT_EQ(strides[2], 1);
}

TEST(Shape, FlatIndex) {
  const Shape s{3, 4};
  EXPECT_EQ(s.FlatIndex({0, 0}), 0);
  EXPECT_EQ(s.FlatIndex({1, 2}), 6);
  EXPECT_EQ(s.FlatIndex({2, 3}), 11);
  EXPECT_THROW(s.FlatIndex({3, 0}), CheckError);
  EXPECT_THROW(s.FlatIndex({0}), CheckError);
}

TEST(Shape, RejectsNegativeDims) {
  EXPECT_THROW(Shape({2, -1}), CheckError);
}

TEST(Shape, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
}

// ---- tensor ----------------------------------------------------------------

TEST(Tensor, ZerosAndFull) {
  const Tensor z = Tensor::Zeros(Shape{2, 3});
  for (float v : z.data()) {
    EXPECT_EQ(v, 0.0f);
  }
  const Tensor f = Tensor::Full(Shape{2, 2}, 1.5f);
  for (float v : f.data()) {
    EXPECT_EQ(v, 1.5f);
  }
}

TEST(Tensor, IotaAndAt) {
  const Tensor t = Tensor::Iota(Shape{2, 3}, 2.0f);
  EXPECT_EQ(t.at({0, 0}), 0.0f);
  EXPECT_EQ(t.at({0, 2}), 4.0f);
  EXPECT_EQ(t.at({1, 0}), 6.0f);
}

TEST(Tensor, LogicalBytesUsesDtype) {
  const Tensor t = Tensor::Zeros(Shape{4, 8}, DType::kBF16);
  EXPECT_DOUBLE_EQ(t.LogicalBytes(), 64.0);  // 32 elements x 2 bytes
  const Tensor f = Tensor::Zeros(Shape{4, 8}, DType::kF32);
  EXPECT_DOUBLE_EQ(f.LogicalBytes(), 128.0);
}

TEST(Tensor, RowAccess) {
  Tensor t = Tensor::Iota(Shape{3, 4});
  auto row1 = t.row(1);
  ASSERT_EQ(row1.size(), 4u);
  EXPECT_EQ(row1[0], 4.0f);
  row1[0] = 99.0f;
  EXPECT_EQ(t.at({1, 0}), 99.0f);
  EXPECT_THROW(t.row(3), CheckError);
  EXPECT_THROW(t.row(-1), CheckError);
}

TEST(Tensor, RowOpsRequireRank2) {
  Tensor t = Tensor::Zeros(Shape{2, 3, 4});
  EXPECT_THROW(t.rows(), CheckError);
}

TEST(Tensor, SetAndAccumulateRow) {
  Tensor t = Tensor::Zeros(Shape{2, 3});
  const std::vector<float> src = {1.0f, 2.0f, 3.0f};
  t.SetRow(0, src);
  EXPECT_EQ(t.at({0, 1}), 2.0f);
  t.AccumulateRow(0, src, 0.5f);
  EXPECT_EQ(t.at({0, 1}), 3.0f);
}

TEST(Tensor, MaxAbsDiffAndAllClose) {
  Tensor a = Tensor::Full(Shape{2, 2}, 1.0f);
  Tensor b = Tensor::Full(Shape{2, 2}, 1.0f);
  EXPECT_EQ(Tensor::MaxAbsDiff(a, b), 0.0f);
  EXPECT_TRUE(Tensor::AllClose(a, b));
  b.at({1, 1}) = 1.1f;
  EXPECT_NEAR(Tensor::MaxAbsDiff(a, b), 0.1f, 1e-6f);
  EXPECT_FALSE(Tensor::AllClose(a, b));
  Tensor c = Tensor::Zeros(Shape{2, 3});
  EXPECT_THROW(Tensor::MaxAbsDiff(a, c), CheckError);
}

TEST(Tensor, RandnIsSeedDeterministic) {
  Rng r1(5);
  Rng r2(5);
  const Tensor a = Tensor::Randn(Shape{8, 8}, r1);
  const Tensor b = Tensor::Randn(Shape{8, 8}, r2);
  EXPECT_EQ(Tensor::MaxAbsDiff(a, b), 0.0f);
}

// ---- in-place workspace API (the serving plane's zero-alloc contract) ------

TEST(Shape, SetDims2RetargetsInPlace) {
  Shape s{3, 4, 5};
  s.SetDims2(6, 7);
  EXPECT_EQ(s.rank(), 2u);
  EXPECT_EQ(s[0], 6);
  EXPECT_EQ(s[1], 7);
  EXPECT_EQ(s.NumElements(), 42);
  // Rank can grow back from a lower-rank state too.
  Shape flat{10};
  flat.SetDims2(2, 5);
  EXPECT_EQ(flat.rank(), 2u);
  EXPECT_EQ(flat.NumElements(), 10);
}

TEST(Tensor, ReserveThenResetFormat2DDoesNotAllocate) {
  Tensor t;
  t.Reserve(8 * 16);
  t.ResetFormat2D(2, 4, DType::kF32);  // establish rank-2 dims capacity
  const float* storage = t.data().data();
  // Any 2-D shape within the reserved element count reuses the same block.
  t.ResetFormat2D(8, 16, DType::kBF16);
  EXPECT_EQ(t.rows(), 8);
  EXPECT_EQ(t.cols(), 16);
  EXPECT_EQ(t.dtype(), DType::kBF16);
  EXPECT_EQ(t.data().data(), storage);
  t.ResetFormat2D(3, 5, DType::kF32);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.data().data(), storage);
}

TEST(Tensor, FillZeroAndFillZeroRows) {
  Tensor t(Shape{4, 3});
  for (int64_t r = 0; r < 4; ++r) {
    for (int64_t c = 0; c < 3; ++c) {
      t.at({r, c}) = 1.0f + static_cast<float>(r * 3 + c);
    }
  }
  t.FillZeroRows(1, 3);
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_NE(t.at({0, c}), 0.0f);
    EXPECT_EQ(t.at({1, c}), 0.0f);
    EXPECT_EQ(t.at({2, c}), 0.0f);
    EXPECT_NE(t.at({3, c}), 0.0f);
  }
  t.FillZero();
  for (float v : t.data()) {
    EXPECT_EQ(v, 0.0f);
  }
}

// FillRandn into a reused workspace must consume the rng exactly like the
// Randn constructor: the serving plane's pooled request tensors depend on a
// pooled and a freshly-constructed prompt being bit-identical.
TEST(Tensor, FillRandnMatchesRandnBitForBit) {
  for (DType dtype : {DType::kF32, DType::kBF16, DType::kF16}) {
    Rng fresh(42);
    const Tensor constructed = Tensor::Randn(Shape{5, 7}, fresh, 0.5f, dtype);

    Tensor pooled;
    pooled.Reserve(9 * 11);  // stale, larger prior use
    pooled.ResetFormat2D(9, 11, DType::kF32);
    Rng reused(42);
    pooled.ResetFormat2D(5, 7, dtype);
    pooled.FillRandn(reused, 0.5f);

    EXPECT_EQ(Tensor::MaxAbsDiff(constructed, pooled), 0.0f)
        << DTypeName(dtype);
    // And the rngs must be in the same state afterwards (same draw count).
    EXPECT_EQ(fresh.NextU64(), reused.NextU64()) << DTypeName(dtype);
  }
}

TEST(Tensor, ResetFormat2DContentsAreOverwrittenNotTrusted) {
  // The contract: contents after ResetFormat2D are unspecified. Callers
  // either overwrite or FillZero -- this pins the supported recipe.
  Tensor t;
  t.Reserve(6);
  t.ResetFormat2D(2, 3, DType::kF32);
  t.FillZero();
  t.at({1, 2}) = 9.0f;
  t.ResetFormat2D(3, 2, DType::kF32);
  t.FillZeroRows(0, 3);
  for (float v : t.data()) {
    EXPECT_EQ(v, 0.0f);
  }
}

}  // namespace
}  // namespace comet
