// Resource-constrained task scheduling over a fixed number of slots.
//
// A "slot" models one persistent thread block (or one SM) of a fused kernel.
// Tasks are dispatched to slots strictly in the given order; a slot that
// picks up a task whose inputs have not arrived spins until the task's ready
// time. This mirrors how a persistent GEMM kernel walks its tile queue and
// is why COMET's rescheduling (sorting tiles so that ready tiles come first)
// matters. Scheduling is deterministic.
#pragma once

#include <cstdint>
#include <vector>

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

// Dispatches tasks to `num_slots` slots strictly in vector order, starting at
// `start_time_us`.
SlotSchedule ScheduleInOrder(const std::vector<SlotTask>& tasks, int num_slots,
                             double start_time_us = 0.0);

// Allocation-free variant: `slot_heap` is caller-owned scratch holding the
// slot free-time min-heap, `out` is rebuilt in place. Bit-identical to
// ScheduleInOrder -- the heap only ever yields the minimum free time, and
// slots with equal free times are interchangeable.
void ScheduleInOrderInto(const std::vector<SlotTask>& tasks, int num_slots,
                         double start_time_us, std::vector<double>& slot_heap,
                         SlotSchedule* out);

}  // namespace comet
