// Tests of the MoE backward pass: transposed GEMM kernels, activation
// derivatives, finite-difference gradient checks of the dense reference, and
// dense-vs-sharded consistency.
#include <gtest/gtest.h>

#include <cmath>

#include "moe/activation.h"
#include "moe/backward.h"
#include "moe/group_gemm.h"
#include "moe/reference_layer.h"
#include "moe/workload.h"
#include "tests/gradient_helpers.h"
#include "util/check.h"
#include "util/rng.h"

namespace comet {
namespace {

ModelConfig TinyModel() {
  ModelConfig model;
  model.name = "bwd-tiny";
  model.layers = 1;
  model.num_experts = 4;
  model.topk = 2;
  model.embedding = 16;
  model.ffn_hidden = 24;
  return model;
}

MoeWorkload TinyWorkload(int tp, int ep, int64_t tokens, uint64_t seed = 3) {
  WorkloadOptions options;
  options.seed = seed;
  return MakeWorkload(TinyModel(), ParallelConfig{tp, ep}, tokens, options);
}

// Loss used by every finite-difference check: L = sum_g <dout_g, out_g>.
// Its gradient w.r.t. any parameter is exactly what the backward pass
// reports for that dout.
double Loss(const MoeWorkload& w, const std::vector<Tensor>& dout) {
  const std::vector<Tensor> out = ReferenceMoeLayer(w);
  double loss = 0.0;
  for (size_t g = 0; g < out.size(); ++g) {
    const auto a = dout[g].data();
    const auto b = out[g].data();
    for (size_t i = 0; i < a.size(); ++i) {
      loss += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    }
  }
  return loss;
}

// Returns a workload identical to `w` but with fresh (copied) weights that
// the caller may mutate through the returned pointer.
std::pair<MoeWorkload, std::shared_ptr<ExpertWeights>> CopyWithMutableWeights(
    const MoeWorkload& w) {
  auto weights = std::make_shared<ExpertWeights>(*w.weights);
  MoeWorkload copy = w;
  copy.weights = weights;
  copy.sharded_weights = std::make_shared<ShardedExpertWeights>(
      *weights, w.placement.parallel().tp);
  return {std::move(copy), std::move(weights)};
}

void ExpectGradMatches(double fd, double analytic) {
  EXPECT_NEAR(fd, analytic, 3e-3 + 5e-2 * std::abs(analytic))
      << "fd=" << fd << " analytic=" << analytic;
}

// ---- transposed GEMM kernels ------------------------------------------------

Tensor Transpose(const Tensor& t) {
  Tensor out(Shape{t.cols(), t.rows()});
  for (int64_t i = 0; i < t.rows(); ++i) {
    for (int64_t j = 0; j < t.cols(); ++j) {
      out.at({j, i}) = t.at({i, j});
    }
  }
  return out;
}

TEST(TransposedGemm, NTMatchesExplicitTranspose) {
  Rng rng(1);
  const Tensor a = Tensor::Randn(Shape{7, 5}, rng);
  const Tensor b = Tensor::Randn(Shape{9, 5}, rng);
  Tensor c(Shape{7, 9});
  GemmNT(a, b, c);
  Tensor expected(Shape{7, 9});
  Gemm(a, Transpose(b), expected);
  EXPECT_LT(Tensor::MaxAbsDiff(c, expected), 1e-5f);
}

TEST(TransposedGemm, TNMatchesExplicitTranspose) {
  Rng rng(2);
  const Tensor a = Tensor::Randn(Shape{8, 6}, rng);
  const Tensor b = Tensor::Randn(Shape{8, 4}, rng);
  Tensor c(Shape{6, 4});
  GemmTN(a, b, c);
  Tensor expected(Shape{6, 4});
  Gemm(Transpose(a), b, expected);
  EXPECT_LT(Tensor::MaxAbsDiff(c, expected), 1e-5f);
}

TEST(TransposedGemm, NTTilesComposeToWhole) {
  Rng rng(3);
  const Tensor a = Tensor::Randn(Shape{10, 6}, rng);
  const Tensor b = Tensor::Randn(Shape{12, 6}, rng);
  Tensor whole(Shape{10, 12});
  GemmNT(a, b, whole);
  Tensor tiled(Shape{10, 12});
  for (int64_t r = 0; r < 10; r += 4) {
    for (int64_t c = 0; c < 12; c += 5) {
      GemmNTTile(a, b, tiled, r, std::min<int64_t>(r + 4, 10), c,
                 std::min<int64_t>(c + 5, 12));
    }
  }
  EXPECT_EQ(Tensor::MaxAbsDiff(whole, tiled), 0.0f);
}

// ---- activation derivatives -------------------------------------------------

class ActivationGradTest
    : public ::testing::TestWithParam<ActivationKind> {};

TEST_P(ActivationGradTest, MatchesFiniteDifference) {
  const ActivationKind kind = GetParam();
  for (float x : {-2.5f, -1.0f, -0.3f, 0.2f, 0.9f, 2.0f, 4.0f}) {
    const float eps = 1e-3f;
    const float fd = (GeluScalar(x + eps) - GeluScalar(x - eps)) / (2.0f * eps);
    EXPECT_NEAR(ActivationGradScalar(kind, x), fd, 2e-3f) << "x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Gelu, ActivationGradTest,
                         ::testing::Values(ActivationKind::kGelu));

TEST(ActivationGrad, TileMatchesWhole) {
  Rng rng(5);
  const Tensor pre = Tensor::Randn(Shape{6, 8}, rng);
  Tensor whole = Tensor::Randn(Shape{6, 8}, rng);
  Tensor tiled = whole;
  ApplyActivationGrad(whole, pre, ActivationKind::kGelu);
  for (int64_t r = 0; r < 6; r += 2) {
    ApplyActivationGradTile(tiled, pre, ActivationKind::kGelu, r, r + 2, 0, 8);
  }
  EXPECT_EQ(Tensor::MaxAbsDiff(whole, tiled), 0.0f);
}

// ---- finite-difference checks of the dense reference -------------------------

class BackwardFdTest : public ::testing::Test {
 protected:
  const MoeWorkload w_ = TinyWorkload(1, 2, 12);
  const std::vector<Tensor> dout_ = MakeLossGradient(w_, 7);
  const MoeGradients grads_ = ReferenceMoeBackward(w_, dout_);
  static constexpr double kEps = 5e-3;
};

TEST_F(BackwardFdTest, WeightGradientsW0) {
  for (const auto& [e, r, c] : {std::tuple<int64_t, int64_t, int64_t>{0, 0, 0},
                                {1, 3, 7},
                                {2, 15, 23},
                                {3, 8, 11}}) {
    auto [plus, wplus] = CopyWithMutableWeights(w_);
    wplus->MutableW0(e).at({r, c}) += static_cast<float>(kEps);
    auto [minus, wminus] = CopyWithMutableWeights(w_);
    wminus->MutableW0(e).at({r, c}) -= static_cast<float>(kEps);
    const double fd = (Loss(plus, dout_) - Loss(minus, dout_)) / (2 * kEps);
    ExpectGradMatches(fd, grads_.dw0[static_cast<size_t>(e)].at({r, c}));
  }
}

TEST_F(BackwardFdTest, WeightGradientsW1) {
  for (const auto& [e, r, c] : {std::tuple<int64_t, int64_t, int64_t>{0, 0, 0},
                                {1, 9, 3},
                                {2, 23, 15},
                                {3, 12, 5}}) {
    auto [plus, wplus] = CopyWithMutableWeights(w_);
    wplus->MutableW1(e).at({r, c}) += static_cast<float>(kEps);
    auto [minus, wminus] = CopyWithMutableWeights(w_);
    wminus->MutableW1(e).at({r, c}) -= static_cast<float>(kEps);
    const double fd = (Loss(plus, dout_) - Loss(minus, dout_)) / (2 * kEps);
    ExpectGradMatches(fd, grads_.dw1[static_cast<size_t>(e)].at({r, c}));
  }
}

TEST_F(BackwardFdTest, InputGradients) {
  for (const auto& [g, r, c] : {std::tuple<int, int64_t, int64_t>{0, 0, 0},
                                {0, 5, 9},
                                {1, 2, 15},
                                {1, 4, 3}}) {
    MoeWorkload plus = w_;
    plus.inputs[static_cast<size_t>(g)].at({r, c}) +=
        static_cast<float>(kEps);
    MoeWorkload minus = w_;
    minus.inputs[static_cast<size_t>(g)].at({r, c}) -=
        static_cast<float>(kEps);
    const double fd = (Loss(plus, dout_) - Loss(minus, dout_)) / (2 * kEps);
    ExpectGradMatches(fd, grads_.dinput[static_cast<size_t>(g)].at({r, c}));
  }
}

TEST_F(BackwardFdTest, GateWeightGradients) {
  for (const auto& [t, slot] : {std::pair<int64_t, int64_t>{0, 0},
                                {3, 1},
                                {7, 0},
                                {11, 1}}) {
    MoeWorkload plus = w_;
    plus.routing.tokens[static_cast<size_t>(t)]
        .weights[static_cast<size_t>(slot)] += static_cast<float>(kEps);
    MoeWorkload minus = w_;
    minus.routing.tokens[static_cast<size_t>(t)]
        .weights[static_cast<size_t>(slot)] -= static_cast<float>(kEps);
    const double fd = (Loss(plus, dout_) - Loss(minus, dout_)) / (2 * kEps);
    ExpectGradMatches(fd, grads_.dgate.at({t, slot}));
  }
}

// ---- dense vs sharded -------------------------------------------------------

TEST(ShardedBackward, Tp1MatchesDenseBitExact) {
  const MoeWorkload w = TinyWorkload(1, 2, 16);
  const auto dout = MakeLossGradient(w, 11);
  const MoeGradients dense = ReferenceMoeBackward(w, dout);
  const MoeGradients sharded = ShardedReferenceMoeBackward(w, dout);
  EXPECT_EQ(MaxGradientDiff(dense, sharded), 0.0f);
}

class ShardedBackwardParamTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ShardedBackwardParamTest, MatchesDenseWithinTolerance) {
  const auto [tp, ep] = GetParam();
  const MoeWorkload w = TinyWorkload(tp, ep, 16);
  const auto dout = MakeLossGradient(w, 13);
  const MoeGradients dense = ReferenceMoeBackward(w, dout);
  const MoeGradients sharded = ShardedReferenceMoeBackward(w, dout);
  // Only FP reassociation across shards separates them.
  EXPECT_LT(MaxGradientDiff(dense, sharded), 5e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Parallelisms, ShardedBackwardParamTest,
    ::testing::Values(std::pair<int, int>{1, 1}, std::pair<int, int>{2, 1},
                      std::pair<int, int>{4, 1}, std::pair<int, int>{1, 4},
                      std::pair<int, int>{2, 2}, std::pair<int, int>{4, 2}));

// ---- structural properties ----------------------------------------------------

TEST(Backward, ZeroDoutGivesZeroGradients) {
  const MoeWorkload w = TinyWorkload(1, 2, 8);
  std::vector<Tensor> dout;
  for (int g = 0; g < 2; ++g) {
    dout.emplace_back(Shape{w.placement.tokens_per_group(),
                            w.model().embedding});
  }
  const MoeGradients grads = ReferenceMoeBackward(w, dout);
  const MoeGradients zeros = ReferenceMoeBackward(w, dout);
  EXPECT_EQ(MaxGradientDiff(grads, zeros), 0.0f);
  for (const Tensor& t : grads.dinput) {
    EXPECT_EQ(Tensor::MaxAbsDiff(t, Tensor::Zeros(t.shape())), 0.0f);
  }
  for (const Tensor& t : grads.dw0) {
    EXPECT_EQ(Tensor::MaxAbsDiff(t, Tensor::Zeros(t.shape())), 0.0f);
  }
}

TEST(Backward, Deterministic) {
  const MoeWorkload w = TinyWorkload(2, 2, 16);
  const auto dout = MakeLossGradient(w, 5);
  const MoeGradients a = ShardedReferenceMoeBackward(w, dout);
  const MoeGradients b = ShardedReferenceMoeBackward(w, dout);
  EXPECT_EQ(MaxGradientDiff(a, b), 0.0f);
}

TEST(Backward, GradientShapes) {
  const MoeWorkload w = TinyWorkload(2, 2, 16);
  const auto dout = MakeLossGradient(w, 5);
  const MoeGradients grads = ReferenceMoeBackward(w, dout);
  ASSERT_EQ(grads.dinput.size(), 2u);
  EXPECT_EQ(grads.dinput[0].rows(), 8);
  EXPECT_EQ(grads.dinput[0].cols(), 16);
  ASSERT_EQ(grads.dw0.size(), 4u);
  EXPECT_EQ(grads.dw0[0].rows(), 16);
  EXPECT_EQ(grads.dw0[0].cols(), 24);
  EXPECT_EQ(grads.dw1[0].rows(), 24);
  EXPECT_EQ(grads.dw1[0].cols(), 16);
  EXPECT_EQ(grads.dgate.rows(), 16);
  EXPECT_EQ(grads.dgate.cols(), 2);
}

TEST(Backward, LossGradientReproducible) {
  const MoeWorkload w = TinyWorkload(1, 2, 8);
  const auto a = MakeLossGradient(w, 21);
  const auto b = MakeLossGradient(w, 21);
  ASSERT_EQ(a.size(), b.size());
  for (size_t g = 0; g < a.size(); ++g) {
    EXPECT_EQ(Tensor::MaxAbsDiff(a[g], b[g]), 0.0f);
  }
  const auto c = MakeLossGradient(w, 22);
  EXPECT_GT(Tensor::MaxAbsDiff(a[0], c[0]), 0.0f);
}

TEST(Backward, RejectsWrongDoutShape) {
  const MoeWorkload w = TinyWorkload(1, 2, 8);
  std::vector<Tensor> dout;
  dout.emplace_back(Shape{3, 16});  // wrong rows, wrong count
  EXPECT_THROW(ReferenceMoeBackward(w, dout), CheckError);
}

TEST(Backward, RejectsUnmaterializedWorkload) {
  WorkloadOptions options;
  options.materialize = false;
  const MoeWorkload w =
      MakeWorkload(TinyModel(), ParallelConfig{1, 2}, 8, options);
  std::vector<Tensor> dout;
  for (int g = 0; g < 2; ++g) {
    dout.emplace_back(Shape{4, 16});
  }
  EXPECT_THROW(ReferenceMoeBackward(w, dout), CheckError);
}

}  // namespace
}  // namespace comet
