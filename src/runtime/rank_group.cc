#include "runtime/rank_group.h"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/check.h"
#include "util/thread_pool.h"

namespace comet {

RankGroup::~RankGroup() { Shutdown(); }

void RankGroup::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
  threads_.clear();
  shutdown_ = false;
}

void RankGroup::Configure(int num_ranks, int num_threads) {
  COMET_CHECK_GT(num_ranks, 0);
  int n = num_threads;
  if (n <= 0) {
    n = CurrentThreadLimit();
  }
  if (n <= 0) {
    n = GlobalThreadCount();
  }
  const bool concurrent = num_ranks > 1 && n > 1;
  if (num_ranks == num_ranks_ && concurrent == concurrent_) {
    return;
  }
  Shutdown();
  num_ranks_ = num_ranks;
  concurrent_ = concurrent;
  errors_.assign(static_cast<size_t>(num_ranks_), nullptr);
  if (concurrent_) {
    // New threads start at the current generation: a group that already
    // ran must not replay its last (possibly dangling) stages on them.
    const uint64_t generation = generation_;
    threads_.reserve(static_cast<size_t>(num_ranks_ - 1));
    for (int r = 1; r < num_ranks_; ++r) {
      threads_.emplace_back(
          [this, r, generation] { WorkerLoop(r, generation); });
    }
  }
}

void RankGroup::RankBody(int r, FunctionRef<void(int)> produce,
                         FunctionRef<void(int)> consume, int limit) {
  // Rank threads do not inherit the launcher's thread-locals; re-install its
  // ParallelFor cap so the tile loops each rank fans out see it (rank 0 runs
  // on the caller, where the limit is already active -- re-installing the
  // same cap is a no-op by value).
  ScopedThreadLimit thread_limit(limit);
  try {
    produce(r);
  } catch (...) {
    errors_[static_cast<size_t>(r)] = std::current_exception();
  }
  if (consume && errors_[static_cast<size_t>(r)] == nullptr) {
    try {
      consume(r);
    } catch (...) {
      errors_[static_cast<size_t>(r)] = std::current_exception();
    }
  }
}

void RankGroup::WorkerLoop(int r, uint64_t seen) {
  for (;;) {
    FunctionRef<void(int)> produce;
    FunctionRef<void(int)> consume;
    int limit = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock,
                     [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) {
        return;
      }
      seen = generation_;
      produce = produce_;
      consume = consume_;
      limit = run_limit_;
    }
    RankBody(r, produce, consume, limit);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (++done_ == num_ranks_ - 1) {
        done_cv_.notify_one();
      }
    }
  }
}

void RankGroup::Run(FunctionRef<void(int)> produce,
                    FunctionRef<void(int)> consume) {
  COMET_CHECK_GT(num_ranks_, 0) << "RankGroup: Configure first";
  COMET_CHECK(produce);

  if (!concurrent_) {
    // Serial phased execution: by the time any consume runs, every producer
    // has signalled, so blocking waits return immediately.
    for (int r = 0; r < num_ranks_; ++r) {
      produce(r);
    }
    if (consume) {
      for (int r = 0; r < num_ranks_; ++r) {
        consume(r);
      }
    }
    return;
  }

  const int inherited_limit = CurrentThreadLimit();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    produce_ = produce;
    consume_ = consume;
    run_limit_ = inherited_limit;
    done_ = 0;
    for (auto& err : errors_) {
      err = nullptr;
    }
    ++generation_;
  }
  start_cv_.notify_all();
  RankBody(0, produce, consume, inherited_limit);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return done_ == num_ranks_ - 1; });
  }
  for (const std::exception_ptr& err : errors_) {
    if (err) {
      std::rethrow_exception(err);
    }
  }
}

}  // namespace comet
