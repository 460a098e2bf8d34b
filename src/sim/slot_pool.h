// Resource-constrained task scheduling over a fixed number of slots.
//
// A "slot" models one persistent thread block (or one SM) of a fused kernel.
// Tasks are dispatched to slots strictly in the given order; a slot that
// picks up a task whose inputs have not arrived spins until the task's ready
// time. This mirrors how a persistent GEMM kernel walks its tile queue and
// is why COMET's rescheduling (sorting tiles so that ready tiles come first)
// matters. Scheduling is deterministic.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace comet {

struct SlotTask {
  double ready_us = 0.0;     // inputs available at this time
  double duration_us = 0.0;  // service time on one slot
};

struct ScheduledTask {
  double start_us = 0.0;
  double end_us = 0.0;
};

struct SlotSchedule {
  std::vector<ScheduledTask> tasks;  // parallel to the input vector
  double makespan_us = 0.0;          // latest end time (0 when no tasks)
  // Total slot-time spent waiting for not-yet-ready tasks.
  double stall_us = 0.0;
};

// In-order dispatch, one task at a time: each task goes to the slot that
// frees earliest. The pool keeps the slots' free times sorted ascending in a
// sliding window: Issue takes the front and inserts the task's end time by
// scanning from the back. Slots with equal free times are interchangeable,
// so only the multiset of free times matters, and it is the same as a
// min-heap's: every start, end, stall and makespan bit is too. The insert is
// O(1) whenever end times come in nondecreasing order (equal durations with
// nondecreasing ready times, as on every fused-kernel price but vertical
// fusion or layer0 with rescheduling off), O(num_slots) otherwise. The
// buffer is reused across Resets: allocation-free once it has held the
// largest slot count.
class SlotPool {
 public:
  // Makes `num_slots` slots free at `start_time_us` and zeroes the totals.
  void Reset(int num_slots, double start_time_us);

  ScheduledTask Issue(double ready_us, double duration_us) {
    COMET_CHECK_GE(duration_us, 0.0);
    const double slot_free = free_[head_++];
    const double start = std::max(slot_free, ready_us);
    const double end = start + duration_us;
    stall_us_ += start - slot_free;
    makespan_us_ = std::max(makespan_us_, end);
    // The live window is now [head_, head_ + slots_ - 1); `end` goes into
    // its sorted place, growing the window by one at the back.
    size_t j = head_ + slots_ - 1;
    if (j == free_.size()) {
      Compact();
      j = slots_ - 1;
    }
    while (j > head_ && free_[j - 1] > end) {
      free_[j] = free_[j - 1];
      --j;
    }
    free_[j] = end;
    return ScheduledTask{start, end};
  }

  // Latest end time so far (the start time before any task).
  double makespan_us() const { return makespan_us_; }
  // Total slot-time spent waiting for not-yet-ready tasks.
  double stall_us() const { return stall_us_; }

 private:
  // Moves the live window to the front of the buffer.
  void Compact();

  std::vector<double> free_;  // slot free times, ascending in the window
  size_t head_ = 0;           // window start
  size_t slots_ = 0;
  double makespan_us_ = 0.0;
  double stall_us_ = 0.0;
};

// Dispatches tasks to `num_slots` slots strictly in vector order, starting at
// `start_time_us`.
SlotSchedule ScheduleInOrder(const std::vector<SlotTask>& tasks, int num_slots,
                             double start_time_us = 0.0);

}  // namespace comet
