#include "sim/slot_pool.h"

namespace comet {
namespace {

// Spare buffer behind the window: the window slides this far before a
// compaction copies it back to the front.
constexpr size_t kSlide = 1024;

}  // namespace

void SlotPool::Reset(int num_slots, double start_time_us) {
  COMET_CHECK_GT(num_slots, 0);
  slots_ = static_cast<size_t>(num_slots);
  // Only the window needs values; the space behind it is written before it
  // is read.
  if (free_.size() < slots_ + kSlide) {
    free_.resize(slots_ + kSlide);
  }
  std::fill_n(free_.begin(), slots_, start_time_us);
  head_ = 0;
  makespan_us_ = start_time_us;
  stall_us_ = 0.0;
}

void SlotPool::Compact() {
  std::copy(free_.begin() + static_cast<std::ptrdiff_t>(head_),
            free_.begin() + static_cast<std::ptrdiff_t>(head_ + slots_ - 1),
            free_.begin());
  head_ = 0;
}

SlotSchedule ScheduleInOrder(const std::vector<SlotTask>& tasks, int num_slots,
                             double start_time_us) {
  SlotPool pool;
  pool.Reset(num_slots, start_time_us);
  SlotSchedule out;
  out.tasks.reserve(tasks.size());
  for (const SlotTask& task : tasks) {
    out.tasks.push_back(pool.Issue(task.ready_us, task.duration_us));
  }
  out.makespan_us = pool.makespan_us();
  out.stall_us = pool.stall_us();
  return out;
}

}  // namespace comet
