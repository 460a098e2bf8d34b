// Continuous (iteration-level) batching of MoE inference requests.
//
// Instead of running each request to completion (static batching), the
// batcher re-packs the batch EVERY iteration from whatever work is live --
// the Orca-style discipline production MoE serving uses. Each iteration it
// packs up to `token_budget` tokens:
//  1. decode class first: every request whose prefill is complete and that
//     still owes decode steps contributes exactly one token, in admission
//     order. In-flight requests pre-empt new prompts because a stalled
//     decode is user-visible inter-token latency, while a waiting prompt
//     only grows TTFT it has already paid in queue.
//  2. prefill class second: remaining budget goes to incomplete prompts in
//     admission order; a prompt larger than the leftover budget takes a
//     partial CHUNK (chunked prefill), and packing never skips ahead past a
//     partially-served prompt -- FIFO order within the class is strict, so
//     a small late prompt cannot starve a big early one.
//
// The batcher is pure bookkeeping: no tensors, no clock. The server maps
// plans to MoE batches; serve_test drives randomized request streams through
// PackInto/CompleteInto and asserts the packing invariants (budget
// respected, every token scheduled exactly once, FIFO within class) hold
// for all of them.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/request.h"

namespace comet {

struct BatcherOptions {
  // Max tokens per iteration (> 0). The executor's per-iteration capacity:
  // prefill chunks + decode steps together never exceed it.
  int64_t token_budget = 64;
  // Max requests live in the batcher at once (admitted, not finished);
  // 0 = unbounded. With a cap, the server stops draining the admission
  // queue when full -- that is the backpressure that makes the bounded
  // queue fill and shed under overload.
  int64_t max_active = 0;
};

// One request's share of an iteration. `start_pos` counts positions over the
// request's whole token stream (prompt then decode), so consecutive entries
// for one request tile [0, prompt_tokens + decode_tokens) exactly.
struct BatchEntry {
  int64_t slot = 0;        // batcher slot (== admission sequence number)
  int64_t request_id = 0;  // RequestSpec::id, for reporting
  int64_t start_pos = 0;
  int64_t num_tokens = 0;
  bool decode = false;     // true: one decode step; false: a prefill chunk
};

struct BatchPlan {
  int64_t iteration = 0;
  std::vector<BatchEntry> entries;

  int64_t TotalTokens() const {
    int64_t n = 0;
    for (const BatchEntry& e : entries) {
      n += e.num_tokens;
    }
    return n;
  }
  bool empty() const { return entries.empty(); }
};

class ContinuousBatcher {
 public:
  explicit ContinuousBatcher(BatcherOptions options);

  // Pre-sizes the slot table (and the live list) for up to
  // `expected_requests` admissions, so Admit within that bound never
  // reallocates. Slot numbering is untouched -- this is pure capacity.
  void Reserve(int64_t expected_requests);

  // True when another request may be admitted under max_active.
  bool CanAdmit() const;
  // Admits a request; returns its slot. Slots are assigned in admission
  // order (0, 1, 2, ...), which is also the FIFO key within each class.
  int64_t Admit(const RequestSpec& spec);

  // Packs the next iteration over the live requests into `plan`: an empty
  // plan when no request has work left (all finished, or none admitted).
  // Clears and refills `plan->entries` (capacity retained), so a plan reused
  // across iterations allocates only until its entry capacity reaches the
  // high-water mark (<= token_budget entries).
  void PackInto(BatchPlan* plan);

  // Records that `plan` (the most recent PackInto result) was executed:
  // advances per-request progress. Clears and refills `*finished`
  // (capacity retained) with the slots that FINISHED with this iteration,
  // in slot order.
  void CompleteInto(const BatchPlan& plan, std::vector<int64_t>* finished);

  // Withdraws a live (not finished) request: it stops being packed and no
  // longer counts against max_active. Hedged-dispatch loser cancellation;
  // CHECK-fails on an already-finished slot (cancel-after-complete is a
  // caller bug -- the winner was already decided).
  void Cancel(int64_t slot);

  // Live = admitted and not finished.
  int64_t live_count() const { return static_cast<int64_t>(live_.size()); }
  bool HasLiveWork() const { return !live_.empty(); }

  const RequestSpec& spec(int64_t slot) const;
  int64_t prefill_done(int64_t slot) const;
  int64_t decode_done(int64_t slot) const;
  bool finished(int64_t slot) const;

 private:
  struct Slot {
    RequestSpec spec;
    int64_t prefill_done = 0;
    int64_t decode_done = 0;
    bool finished = false;
  };

  const Slot& At(int64_t slot) const;
  static bool SlotFinished(const Slot& s);

  BatcherOptions options_;
  std::vector<Slot> slots_;
  // Live slots in admission order (invariant: strictly increasing).
  std::vector<int64_t> live_;
  int64_t iteration_ = 0;
};

}  // namespace comet
