#include "sim/slot_pool.h"

#include <algorithm>
#include <functional>

#include "util/check.h"

namespace comet {

void ScheduleInOrderInto(const std::vector<SlotTask>& tasks, int num_slots,
                         double start_time_us, std::vector<double>& slot_heap,
                         SlotSchedule* out) {
  COMET_CHECK_GT(num_slots, 0);
  out->tasks.resize(tasks.size());
  out->makespan_us = start_time_us;
  out->stall_us = 0.0;
  if (tasks.empty()) {
    return;
  }
  // Min-heap of slot free times (all-equal start is already a valid heap).
  slot_heap.assign(static_cast<size_t>(num_slots), start_time_us);
  double makespan = start_time_us;
  for (size_t i = 0; i < tasks.size(); ++i) {
    COMET_CHECK_GE(tasks[i].duration_us, 0.0);
    const double slot_free = slot_heap.front();
    std::pop_heap(slot_heap.begin(), slot_heap.end(), std::greater<double>());
    const double start = std::max(slot_free, tasks[i].ready_us);
    const double end = start + tasks[i].duration_us;
    out->tasks[i] = ScheduledTask{start, end};
    out->stall_us += start - slot_free;
    makespan = std::max(makespan, end);
    slot_heap.back() = end;
    std::push_heap(slot_heap.begin(), slot_heap.end(), std::greater<double>());
  }
  out->makespan_us = makespan;
}

SlotSchedule ScheduleInOrder(const std::vector<SlotTask>& tasks, int num_slots,
                             double start_time_us) {
  SlotSchedule out;
  std::vector<double> slot_heap;
  ScheduleInOrderInto(tasks, num_slots, start_time_us, slot_heap, &out);
  return out;
}

}  // namespace comet
