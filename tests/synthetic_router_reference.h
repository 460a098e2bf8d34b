// Test-only reference: the synthetic router's original scalar routing, one
// token and one categorical draw at a time. The production
// SyntheticRouter::RouteInto (src/moe/router.cc) routes
// fdlibm::kDoubleLanes tokens at once and must match it bit for bit: each
// lane performs this loop's double operations for its token in this loop's
// order, and the uniforms are drawn in this loop's order, so the tables and
// the generator state after every call are the same.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "moe/router.h"
#include "util/check.h"
#include "util/rng.h"

namespace comet::synthetic_router_reference {

// Samples an index in [0, weights.size()) proportionally to weights.
// Requires at least one strictly positive weight. Counts the draws whose r
// lands exactly on the total into `*fall_throughs`.
inline size_t Categorical(Rng& rng, const std::vector<double>& weights,
                          int64_t* fall_throughs) {
  COMET_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    COMET_CHECK_GE(w, 0.0);
    total += w;
  }
  COMET_CHECK_GT(total, 0.0) << "categorical weights must not all be zero";
  double r = rng.NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) {
      return i;
    }
  }
  // Numeric edge: r landed exactly on total. Take the last index with
  // weight, never a zero-weight (or already picked) one.
  ++*fall_throughs;
  size_t last = weights.size() - 1;
  while (weights[last] <= 0.0) {
    --last;
  }
  return last;
}

class SyntheticRouter {
 public:
  SyntheticRouter(std::vector<double> load, uint64_t seed)
      : load_(std::move(load)), rng_(seed) {
    COMET_CHECK(!load_.empty());
    double sum = 0.0;
    for (double p : load_) {
      COMET_CHECK_GE(p, 0.0);
      sum += p;
    }
    COMET_CHECK_GT(sum, 0.0);
    for (auto& p : load_) {
      p /= sum;
    }
    weights_scratch_.reserve(load_.size());
  }

  void RouteInto(int64_t num_tokens, int64_t topk, int64_t shift,
                 RoutingTable* table) {
    COMET_CHECK(table != nullptr);
    const int64_t e_total = static_cast<int64_t>(load_.size());
    COMET_CHECK_GT(topk, 0);
    COMET_CHECK_LE(topk, e_total);
    COMET_CHECK_GE(shift, 0);
    table->tokens.resize(static_cast<size_t>(num_tokens));
    for (int64_t m = 0; m < num_tokens; ++m) {
      // Sample topk distinct experts without replacement. The shift rotates
      // the STORED ids only, after sampling, so the rng consumption (and
      // hence every later draw) is independent of the drift phase.
      weights_scratch_.assign(load_.begin(), load_.end());
      TokenRoute& route = table->tokens[static_cast<size_t>(m)];
      route.experts.clear();
      route.weights.clear();
      for (int64_t k = 0; k < topk; ++k) {
        const size_t e = Categorical(rng_, weights_scratch_, &fall_throughs_);
        route.experts.push_back(
            (static_cast<int64_t>(e) + shift) % e_total);
        weights_scratch_[e] = 0.0;
      }
      // Random combine weights, renormalized.
      float sum = 0.0f;
      for (int64_t k = 0; k < topk; ++k) {
        const float w = static_cast<float>(rng_.Uniform(0.5, 1.5));
        route.weights.push_back(w);
        sum += w;
      }
      for (auto& w : route.weights) {
        w /= sum;
      }
    }
  }

  // Picks so far whose draw fell through every weight.
  int64_t fall_throughs() const { return fall_throughs_; }

 private:
  std::vector<double> load_;
  std::vector<double> weights_scratch_;  // per-token sampling weights
  Rng rng_;
  int64_t fall_throughs_ = 0;
};

}  // namespace comet::synthetic_router_reference
