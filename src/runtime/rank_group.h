// RankGroup: in-process concurrent execution of R expert-parallel ranks.
//
// The paper's fused kernels run one producer/consumer pipeline PER RANK, all
// ranks live at once: each rank's layer0 tiles consume token rows that peer
// ranks put into its symmetric-heap window, gated by put-with-signal
// counters (§2.2.1, §4). RankGroup runs that pipeline host-side. Each rank
// becomes a task with two stages:
//  * produce  -- gather inputs, run the rank's tile loops, put result rows
//                (with signals) into peer windows;
//  * consume  -- wait on the signal counters (SymmetricHeap::
//                WaitUntilSignalGe) and reduce the gathered rows.
//
// Concurrent mode gives every rank a dedicated thread: produce stages of
// all ranks overlap, and a consumer genuinely blocks on its producers'
// signals -- the paper's fine-grained pipeline, host-side. Serial mode
// (thread budget 1) runs all produce stages in rank order, then all consume
// stages: every signal a consumer waits on is already set.
//
// Bit-exactness: the two modes differ only in WHEN stages run, never in the
// order of floating-point accumulation -- every reduction a stage performs
// must order its terms by coordinates (token, slot, lane), not by arrival.
// Under that discipline (the same one the tile engine follows, see
// util/thread_pool.h) serial and concurrent runs, at any thread count and
// any EP width, produce identical bits; tests/rank_group_test.cc pins this
// against the sharded reference for EP in {1,2,4,8}.
//
// Rank threads are dedicated std::threads rather than pool workers on
// purpose: a consumer parked in a signal wait must not occupy a pool worker,
// or producers fanning tile work into the pool could starve behind it (the
// classic blocked-task-on-bounded-pool deadlock). The pool still executes
// all intra-rank parallelism -- each rank thread re-installs the caller's
// ScopedThreadLimit and fans its tile/row loops out through ParallelFor.
//
// The threads are parked, not spawned per run. A serving loop launches the
// same R-rank pipeline thousands of times; spawning and joining R-1 threads
// per iteration is both slow and an allocation source. Ranks 1..R-1 each
// park on a generation counter: Run publishes the stage callbacks, bumps
// the generation, and rank 0 executes on the caller while the others wake,
// run, and park again. Rank r always runs on thread r, so thread-local
// scratch (GEMM panels, wire buffers) warmed once per thread stays warm for
// that rank -- the property the zero-allocation serving tier depends on.
// Steady-state Run calls are allocation-free on every thread (FunctionRef
// stages, fixed error slots, condition-variable parking).
// Not thread-safe: one Configure or Run at a time.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/function_ref.h"

namespace comet {

class RankGroup {
 public:
  RankGroup() = default;
  ~RankGroup();
  RankGroup(const RankGroup&) = delete;
  RankGroup& operator=(const RankGroup&) = delete;

  // (Re)shapes the group. `num_threads` is the concurrency policy: 0 =
  // inherit (the innermost ScopedThreadLimit active NOW, else the global
  // pool size); 1 = serial phased execution; >= 2 = concurrent, one
  // dedicated thread per rank. Starts or stops threads only when the rank
  // count or the resolved concurrency changes (warm-up); otherwise it is an
  // allocation-free no-op.
  void Configure(int num_ranks, int num_threads);

  // True when Run executes ranks on dedicated concurrent threads.
  bool concurrent() const { return concurrent_; }

  // Executes produce(r) and then consume(r) for every rank r in [0, R).
  // `consume` may be a null FunctionRef. Exceptions: each rank's first
  // exception is captured; after all ranks finish, the lowest-numbered
  // rank's exception is rethrown (matching ParallelFor). A rank that failed
  // in produce skips its consume stage; peers waiting on its signals time
  // out through SymmetricHeap::WaitUntilSignalGe rather than hanging. The
  // group stays usable after a Run that threw.
  void Run(FunctionRef<void(int)> produce, FunctionRef<void(int)> consume);
  void Run(FunctionRef<void(int)> work) { Run(work, FunctionRef<void(int)>()); }

 private:
  void RankBody(int r, FunctionRef<void(int)> produce,
                FunctionRef<void(int)> consume, int limit);
  void WorkerLoop(int r, uint64_t seen);
  void Shutdown();

  int num_ranks_ = 0;
  bool concurrent_ = false;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;
  int done_ = 0;
  bool shutdown_ = false;
  int run_limit_ = 0;
  FunctionRef<void(int)> produce_;
  FunctionRef<void(int)> consume_;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> threads_;  // ranks 1 .. R-1
};

}  // namespace comet
