// Token routing: the learned gate and synthetic load-controlled routing.
//
// Two producers of routing decisions:
//  * GateNetwork -- the standard softmax top-k gate (Shazeer et al.): logits
//    = x . Wg, softmax over E, keep the topk experts, renormalize their
//    probabilities as combine weights. Used by the functional examples.
//  * SyntheticRouter -- draws expert assignments from a target load vector
//    so benches can control the per-expert load standard deviation exactly
//    the way the paper's Figure 14 does (std of the fraction of tokens per
//    expert; std = 0 is uniform, production average is 0.032).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "moe/config.h"
#include "tensor/tensor.h"
#include "util/inline_vec.h"
#include "util/rng.h"

namespace comet {

// One token's routing decision: up to `topk` distinct experts with combine
// weights summing to 1. Fewer than topk entries (possibly zero) occur when
// capacity-limited routing dropped pairs.
//
// Inline storage (util::InlineVec) keeps the common topk <= 8 case off the
// heap entirely: copying a RoutingTable or resizing its token vector then
// performs zero allocations, which the serving steady state depends on.
struct TokenRoute {
  util::InlineVec<int64_t, 8> experts;
  util::InlineVec<float, 8> weights;
};

// Routing for all M tokens (global token id -> decision).
struct RoutingTable {
  std::vector<TokenRoute> tokens;

  int64_t size() const { return static_cast<int64_t>(tokens.size()); }

  // Tokens assigned to each expert (counting (token, expert) pairs), written
  // into `*loads` reusing its capacity. Allocation-free once `loads` has held
  // `num_experts` entries -- the serving loop's per-iteration EWMA update
  // runs inside the zero-allocation steady-state envelope.
  void ExpertLoadsInto(int64_t num_experts, std::vector<int64_t>* loads) const;
  // Population std of the per-expert token *fraction* (Figure 14's x-axis).
  double LoadStd(int64_t num_experts) const;

  // Validates structural invariants: at most `topk` distinct experts per
  // token, weights ~ sum to 1 for non-empty routes. The weight-sum tolerance
  // is dtype-aware: combine weights that were quantized to `dtype` (or
  // renormalized after capacity drops at that dtype) are correctly-rounded
  // values whose sum can sit up to ~topk ulps from 1 -- a fixed f32
  // tolerance would reject them falsely. Genuinely broken weights (sums far
  // from 1) still throw CheckError at every dtype.
  void Validate(int64_t num_experts, int64_t topk,
                DType dtype = DType::kF32) const;
};

// Population std of the per-expert token fraction, computed from a counts
// vector (as produced by ExpertLoadsInto). Bit-identical to
// RoutingTable::LoadStd over the same counts; performs no allocation.
double LoadStdFromCounts(std::span<const int64_t> loads);

// Result of capacity enforcement (GShard-style token dropping).
struct DropStats {
  int64_t capacity = 0;  // per-expert pair budget
  int64_t dropped_pairs = 0;
  int64_t fully_dropped_tokens = 0;  // tokens that lost ALL their experts
  std::vector<int64_t> overflow_per_expert;

  double DropFraction(int64_t total_pairs) const {
    return total_pairs > 0 ? static_cast<double>(dropped_pairs) /
                                 static_cast<double>(total_pairs)
                           : 0.0;
  }
};

// Enforces a per-expert capacity of ceil(capacity_factor * pairs / E) pairs,
// processing tokens in order (the standard GShard/Switch discipline): pairs
// routed to a full expert are dropped and the token's surviving combine
// weights renormalized. Tokens may end with an empty route (they contribute
// zero to the layer output, exactly like the real systems).
DropStats ApplyCapacityFactor(RoutingTable& routing, int64_t num_experts,
                              double capacity_factor);

// Reusable scratch for GateNetwork::RouteInto: the (tokens x E) gate
// probabilities, computed as one GEMM of the token matrix against the gate
// weights and softmaxed row by row in place. Default-constructed is fine;
// the first call sizes it. Reserve() it at the run's token bound (and give
// it a rank-2 shape) to keep every later call allocation-free.
struct GateScratch {
  Tensor scores;
};

// Softmax top-k gate with weight matrix `gate_weight` of shape (N, E).
class GateNetwork {
 public:
  explicit GateNetwork(Tensor gate_weight);

  // Routes each row of `tokens` (shape (m, N)). Offsets do not matter: the
  // result is positional (row i -> tokens[i]).
  RoutingTable Route(const Tensor& tokens, int64_t topk) const;

  // In-place variant: writes into `table` reusing whatever capacity it (and
  // `scratch`) already hold. Bit-identical to Route; performs zero heap
  // allocations once table/scratch capacities are warm and topk fits a
  // TokenRoute's inline storage.
  void RouteInto(const Tensor& tokens, int64_t topk, GateScratch& scratch,
                 RoutingTable* table) const;

  int64_t num_experts() const;

 private:
  Tensor gate_weight_;  // (N, E)
};

// Load-controlled synthetic router.
//
// Draw order and bit contract. Token m draws, in this order, topk uniforms
// for its expert picks and then topk for its combine weights, all by
// Rng::NextDouble. Pick k starts from the load vector with the token's
// earlier picks zeroed: total = the sum of those E weights in expert order
// (zeros included), r = u * total, then r -= w[e] for e = 0, 1, ... and the
// pick is the first e with r < 0, or if there is none (r landed on total)
// the last e whose weight is still positive. Combine weight k is
// static_cast<float>(0.5 + 1.0 * u), and the topk of them are divided by
// their float sum (tests/synthetic_router_reference.h holds the
// one-token-at-a-time loop).
//
// How RouteInto evaluates it. The uniforms of a round of tokens (up to
// 2^16 uniforms, so one round covers a whole call at M = 16384, topk 2) are
// drawn serially into a buffer, in the order above. The round's picks and
// combine weights then run on the global thread pool: its tokens are split
// into contiguous runs of whole fdlibm::kDoubleLanes-token blocks (a static
// partition of at most GlobalThreadCount() runs), each run with its own
// lane scratch, and every lane performs exactly the double operations above
// for its token, in that order. A token's picks read only its own uniforms
// and the load, so the tables and the generator state are the same at every
// vector width and every pool size; a call issued from inside a pool worker
// runs its runs inline, in order.
class SyntheticRouter {
 public:
  // `load` is a probability vector over experts (see Rng::LoadVectorWithStd).
  // It is normalized to sum 1; throws CheckError if the sum is not positive
  // or any normalized entry is not >= 0 (a negative, NaN or inf entry).
  SyntheticRouter(std::vector<double> load, uint64_t seed);

  // Routes `num_tokens` tokens, each to `topk` distinct experts sampled
  // without replacement proportionally to the load vector; combine weights
  // are random and renormalized. Throws CheckError if fewer than `topk`
  // load entries are positive (a pick would find every weight zero).
  RoutingTable Route(int64_t num_tokens, int64_t topk);

  // In-place Route with a deterministic expert-id rotation: every sampled
  // expert e is stored as (e + shift) mod E. The serving plane uses the
  // shift to model drifting (diurnal) load: the same seeded draw sequence,
  // with the hot spot walking across experts as simulated time advances.
  // The rng consumption does not depend on shift; shift == 0 gives Route's
  // table. Requires num_tokens >= 0 and shift >= 0 (any size: it is reduced
  // mod E first). Allocation-free once `table` is warm, Reserve (or an
  // earlier call) covered num_tokens at this topk and the current global
  // pool size, and topk fits TokenRoute's inline storage. After a
  // CheckError the table and the generator are left unspecified.
  void RouteInto(int64_t num_tokens, int64_t topk, int64_t shift,
                 RoutingTable* table);

  // Sizes the draw buffer and the lane scratch for calls of up to
  // `max_tokens` tokens at `topk` on the current global pool. Draws nothing.
  void Reserve(int64_t max_tokens, int64_t topk);

  int64_t num_experts() const { return static_cast<int64_t>(load_.size()); }

 private:
  std::vector<double> load_;
  // Pick weights of one block of tokens per pool run, expert-major, each
  // run's on cache lines of its own (see RouteInto). Grow-only.
  std::vector<double> lane_weights_;
  // One round's uniforms, token-major: topk pick draws then topk combine
  // draws per token. Grow-only, and left uninitialized: a round writes
  // every uniform it reads.
  std::unique_ptr<double[]> draws_;
  int64_t draw_capacity_ = 0;
  Rng rng_;
};

}  // namespace comet
