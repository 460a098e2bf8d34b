#include "moe/router.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "moe/group_gemm.h"
#include "util/check.h"
#include "util/fdlibm.h"
#include "util/stats.h"

namespace comet {

std::vector<int64_t> RoutingTable::ExpertLoads(int64_t num_experts) const {
  std::vector<int64_t> loads;
  ExpertLoadsInto(num_experts, &loads);
  return loads;
}

void RoutingTable::ExpertLoadsInto(int64_t num_experts,
                                   std::vector<int64_t>* loads) const {
  COMET_CHECK(loads != nullptr);
  loads->assign(static_cast<size_t>(num_experts), 0);
  for (const auto& t : tokens) {
    for (int64_t e : t.experts) {
      COMET_CHECK_GE(e, 0);
      COMET_CHECK_LT(e, num_experts);
      ++(*loads)[static_cast<size_t>(e)];
    }
  }
}

double LoadStdFromCounts(std::span<const int64_t> loads) {
  int64_t total = 0;
  for (int64_t l : loads) {
    total += l;
  }
  if (total == 0) {
    return 0.0;
  }
  // The two passes below recompute each fraction on the fly in the exact
  // accumulation order PopulationStddev uses over a materialized fractions
  // vector, so the result is bit-identical to the allocating formulation.
  double mean = 0.0;
  for (int64_t l : loads) {
    mean += static_cast<double>(l) / static_cast<double>(total);
  }
  mean /= static_cast<double>(loads.size());
  double var = 0.0;
  for (int64_t l : loads) {
    const double f = static_cast<double>(l) / static_cast<double>(total);
    var += (f - mean) * (f - mean);
  }
  return std::sqrt(var / static_cast<double>(loads.size()));
}

double RoutingTable::LoadStd(int64_t num_experts) const {
  const auto loads = ExpertLoads(num_experts);
  return LoadStdFromCounts(loads);
}

void RoutingTable::Validate(int64_t num_experts, int64_t topk,
                            DType dtype) const {
  // Each combine weight is a correctly-rounded value at `dtype`, so the
  // worst-case drift of a topk-term sum from exact 1 scales with topk ulps
  // at that dtype. f32 keeps the historical 1e-4 bound (generous for f32,
  // and every pre-existing caller's behavior is unchanged).
  const float tol = std::max(
      1e-4f, static_cast<float>(topk) * DTypeEpsilon(dtype));
  for (const auto& t : tokens) {
    COMET_CHECK_LE(static_cast<int64_t>(t.experts.size()), topk);
    COMET_CHECK_EQ(t.experts.size(), t.weights.size());
    float sum = 0.0f;
    for (size_t i = 0; i < t.experts.size(); ++i) {
      COMET_CHECK_GE(t.experts[i], 0);
      COMET_CHECK_LT(t.experts[i], num_experts);
      for (size_t j = i + 1; j < t.experts.size(); ++j) {
        COMET_CHECK_NE(t.experts[i], t.experts[j])
            << "token routed twice to expert " << t.experts[i];
      }
      COMET_CHECK_GE(t.weights[i], 0.0f);
      sum += t.weights[i];
    }
    COMET_CHECK(t.experts.empty() || std::abs(sum - 1.0f) < tol)
        << "combine weights sum to " << sum << " (tolerance " << tol
        << " at " << DTypeName(dtype) << ")";
  }
}

DropStats ApplyCapacityFactor(RoutingTable& routing, int64_t num_experts,
                              double capacity_factor) {
  COMET_CHECK_GT(num_experts, 0);
  COMET_CHECK_GT(capacity_factor, 0.0);
  int64_t total_pairs = 0;
  for (const auto& t : routing.tokens) {
    total_pairs += static_cast<int64_t>(t.experts.size());
  }
  DropStats stats;
  stats.capacity = static_cast<int64_t>(std::ceil(
      capacity_factor * static_cast<double>(total_pairs) /
      static_cast<double>(num_experts)));
  stats.overflow_per_expert.assign(static_cast<size_t>(num_experts), 0);

  std::vector<int64_t> used(static_cast<size_t>(num_experts), 0);
  for (auto& token : routing.tokens) {
    TokenRoute kept;
    float sum = 0.0f;
    for (size_t i = 0; i < token.experts.size(); ++i) {
      const size_t e = static_cast<size_t>(token.experts[i]);
      COMET_CHECK_LT(token.experts[i], num_experts);
      if (used[e] < stats.capacity) {
        ++used[e];
        kept.experts.push_back(token.experts[i]);
        kept.weights.push_back(token.weights[i]);
        sum += token.weights[i];
      } else {
        ++stats.dropped_pairs;
        ++stats.overflow_per_expert[e];
      }
    }
    if (kept.experts.empty() && !token.experts.empty()) {
      ++stats.fully_dropped_tokens;
    }
    if (sum > 0.0f) {
      for (auto& w : kept.weights) {
        w /= sum;
      }
    }
    token = std::move(kept);
  }
  return stats;
}

namespace {

// Gate probabilities of every token, one row per token: the (tokens x E)
// logits come from one NN GEMM, then each row is softmaxed (max-subtracted)
// in place. The microkernel accumulates every logit as a single n-ascending
// f32 chain from zero with contraction off -- the scalar dot product's
// order -- so the scores are bit-identical to a per-element loop.
void GateProbabilities(const Tensor& tokens, const Tensor& gate_weight,
                       Tensor* scores) {
  COMET_CHECK_EQ(tokens.cols(), gate_weight.rows());
  scores->ResetFormat2D(tokens.rows(), gate_weight.cols(), DType::kF32);
  Gemm(tokens, gate_weight, *scores);
  for (int64_t m = 0; m < tokens.rows(); ++m) {
    const std::span<float> row = scores->row(m);
    const float max_logit = *std::max_element(row.begin(), row.end());
    float z = 0.0f;
    for (float& p : row) {
      p = std::exp(p - max_logit);
      z += p;
    }
    for (float& p : row) {
      p /= z;
    }
  }
}

}  // namespace

GateNetwork::GateNetwork(Tensor gate_weight)
    : gate_weight_(std::move(gate_weight)) {
  COMET_CHECK_EQ(gate_weight_.shape().rank(), 2u);
}

int64_t GateNetwork::num_experts() const { return gate_weight_.cols(); }

RoutingTable GateNetwork::Route(const Tensor& tokens, int64_t topk) const {
  RoutingTable table;
  GateScratch scratch;
  RouteInto(tokens, topk, scratch, &table);
  return table;
}

void GateNetwork::RouteInto(const Tensor& tokens, int64_t topk,
                            GateScratch& scratch, RoutingTable* table) const {
  COMET_CHECK(table != nullptr);
  const int64_t e_total = num_experts();
  COMET_CHECK_GT(topk, 0);
  COMET_CHECK_LE(topk, e_total);

  GateProbabilities(tokens, gate_weight_, &scratch.scores);
  table->tokens.resize(static_cast<size_t>(tokens.rows()));
  for (int64_t m = 0; m < tokens.rows(); ++m) {
    const auto probs = scratch.scores.row(m);
    // Top-k by probability via iterative argmax, ties to the smaller expert
    // index. Identical selection (order included) to a stable descending
    // sort's k-prefix, without the sort's temporary buffer.
    TokenRoute& route = table->tokens[static_cast<size_t>(m)];
    route.experts.clear();
    route.weights.clear();
    float selected_sum = 0.0f;
    for (int64_t k = 0; k < topk; ++k) {
      int64_t best = -1;
      float best_p = 0.0f;
      for (int64_t e = 0; e < e_total; ++e) {
        bool taken = false;
        for (int64_t prev : route.experts) {
          if (prev == e) {
            taken = true;
            break;
          }
        }
        if (taken) {
          continue;
        }
        if (best < 0 || probs[static_cast<size_t>(e)] > best_p) {
          best = e;
          best_p = probs[static_cast<size_t>(e)];
        }
      }
      route.experts.push_back(best);
      route.weights.push_back(best_p);
      selected_sum += best_p;
    }
    for (auto& w : route.weights) {
      w /= selected_sum;
    }
  }
}

namespace {

using fdlibm::DoubleLanes;
using fdlibm::Int64Lanes;
using fdlibm::kDoubleLanes;

// Experts a pick scans between checks that every lane has found its pick.
constexpr int64_t kScanChunk = 8;

// True if every lane of the all-ones/zero mask is set.
bool AllLanes(Int64Lanes mask) {
  int64_t all = -1;
  for (int l = 0; l < kDoubleLanes; ++l) {
    all &= mask[l];
  }
  return all != 0;
}

// Line e of an expert-major lane scratch. Whole-vector loads and stores
// only, so each load forwards from the store before it.
DoubleLanes LoadLanes(const double* weights, int64_t e) {
  DoubleLanes w = {};
  std::memcpy(&w, weights + e * kDoubleLanes, sizeof(w));
  return w;
}

void StoreLanes(double* weights, int64_t e, DoubleLanes w) {
  std::memcpy(weights + e * kDoubleLanes, &w, sizeof(w));
}

struct LanePicks {
  Int64Lanes expert = {};
  DoubleLanes next_total = {};
};

// One categorical pick in each of the `live` low lanes of `weights` (E
// lines of kDoubleLanes): r = u * total, then r -= w[e] in expert order; the
// lane takes the first e with r < 0, or if there is none the last e whose
// weight is still positive, and zeroes its weight there. The other lanes
// are padding and count as done from the start. If `want_next_total`, the
// next pick's total -- the ordered sum of the weights after the zeroing --
// is summed as the scan passes.
LanePicks PickLanes(double* weights, int64_t e_total, int live, DoubleLanes u,
                    DoubleLanes total, bool want_next_total) {
  Int64Lanes done = {};
  for (int l = live; l < kDoubleLanes; ++l) {
    done[l] = -1;
  }
  LanePicks picks;
  DoubleLanes r = u * total;
  int64_t e = 0;
  while (e < e_total && !AllLanes(done)) {
    for (const int64_t end = std::min(e + kScanChunk, e_total); e < end;
         ++e) {
      DoubleLanes w = LoadLanes(weights, e);
      r -= w;
      const Int64Lanes now = (r < 0.0) & ~done;
      w = std::bit_cast<DoubleLanes>(std::bit_cast<Int64Lanes>(w) & ~now);
      StoreLanes(weights, e, w);
      picks.next_total += w;
      picks.expert = (now & e) | (~now & picks.expert);
      done |= now;
    }
  }
  if (!AllLanes(done)) {
    // r landed on total: the pick is the last expert with weight left (the
    // caller checked that the total is positive). The scan summed that
    // weight before this zeroing, so the next total is summed afresh.
    for (int l = 0; l < live; ++l) {
      if (done[l] == 0) {
        int64_t last = e_total - 1;
        while (weights[last * kDoubleLanes + l] <= 0.0) {
          --last;
        }
        weights[last * kDoubleLanes + l] = 0.0;
        picks.expert[l] = last;
      }
    }
    picks.next_total = DoubleLanes{};
    e = 0;
  }
  if (want_next_total) {
    for (; e < e_total; ++e) {
      picks.next_total += LoadLanes(weights, e);
    }
  }
  return picks;
}

}  // namespace

SyntheticRouter::SyntheticRouter(std::vector<double> load, uint64_t seed)
    : load_(std::move(load)), rng_(seed) {
  COMET_CHECK(!load_.empty());
  double sum = 0.0;
  for (double p : load_) {
    sum += p;
  }
  COMET_CHECK_GT(sum, 0.0);
  // Every weight a pick reads is a normalized load entry or a zero, so this
  // one check covers them all (an inf entry normalizes to NaN and fails).
  for (auto& p : load_) {
    p /= sum;
    COMET_CHECK_GE(p, 0.0);
  }
  lane_weights_.resize(load_.size() * fdlibm::kDoubleLanes);
  draws_.resize(2 * load_.size() * fdlibm::kDoubleLanes);
}

RoutingTable SyntheticRouter::Route(int64_t num_tokens, int64_t topk) {
  RoutingTable table;
  RouteInto(num_tokens, topk, /*shift=*/0, &table);
  return table;
}

void SyntheticRouter::RouteInto(int64_t num_tokens, int64_t topk,
                                int64_t shift, RoutingTable* table) {
  COMET_CHECK(table != nullptr);
  const int64_t e_total = num_experts();
  COMET_CHECK_GE(num_tokens, 0);
  COMET_CHECK_GT(topk, 0);
  COMET_CHECK_LE(topk, e_total);
  COMET_CHECK_GE(shift, 0);
  // (e + shift) % E is unchanged, and e + shift < 2E cannot overflow.
  shift %= e_total;
  table->tokens.resize(static_cast<size_t>(num_tokens));
  double* const weights = lane_weights_.data();
  const size_t per_token = 2 * static_cast<size_t>(topk);
  // Every block's first pick sees the load itself in every lane.
  double load_total = 0.0;
  for (double p : load_) {
    load_total += p;
  }
  for (int64_t first = 0; first < num_tokens; first += kDoubleLanes) {
    // Tokens [first, first + live) fill the low lanes; the rest are padding
    // that reads in-domain values and whose picks go unused.
    const int live =
        static_cast<int>(std::min<int64_t>(kDoubleLanes, num_tokens - first));
    rng_.FillUniform(std::span(draws_.data(), live * per_token));
    for (int64_t e = 0; e < e_total; ++e) {
      StoreLanes(weights, e, DoubleLanes{} + load_[static_cast<size_t>(e)]);
    }
    DoubleLanes total = DoubleLanes{} + load_total;
    for (int64_t k = 0; k < topk; ++k) {
      for (int l = 0; l < live; ++l) {
        COMET_CHECK_GT(total[l], 0.0)
            << "categorical weights must not all be zero";
      }
      DoubleLanes u = {};
      for (int l = 0; l < kDoubleLanes; ++l) {
        u[l] = l < live ? draws_[l * per_token + static_cast<size_t>(k)] : 0.5;
      }
      const LanePicks picks =
          PickLanes(weights, e_total, live, u, total, k + 1 < topk);
      total = picks.next_total;
      for (int l = 0; l < live; ++l) {
        TokenRoute& route = table->tokens[static_cast<size_t>(first + l)];
        if (k == 0) {
          route.experts.clear();
        }
        const int64_t id = picks.expert[l] + shift;
        route.experts.push_back(id < e_total ? id : id - e_total);
      }
    }

    // Random combine weights, renormalized.
    for (int l = 0; l < live; ++l) {
      const double* combine = draws_.data() + l * per_token + topk;
      TokenRoute& route = table->tokens[static_cast<size_t>(first + l)];
      route.weights.clear();
      float sum = 0.0f;
      for (int64_t k = 0; k < topk; ++k) {
        const float w = static_cast<float>(0.5 + 1.0 * combine[k]);
        route.weights.push_back(w);
        sum += w;
      }
      for (auto& w : route.weights) {
        w /= sum;
      }
    }
  }
}

}  // namespace comet
