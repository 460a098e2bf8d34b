// Test-only reference: the fused kernels' original per-tile schedules and
// the binary-heap in-order slot scheduler. The production schedules
// (src/core/reschedule.cc) store row-chunk runs and expose the tiles through
// TileAt; expanding TileAt over a schedule must give exactly these builders'
// tile sequences and row orders. The production SlotPool / ScheduleInOrder
// (src/sim/slot_pool.cc) keep the slots' free times in a sorted pool and
// must match ScheduleInOrderInto below bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "core/reschedule.h"
#include "sim/slot_pool.h"
#include "util/check.h"

namespace comet::fused_schedule_reference {

inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// A production schedule's tiles in execution order, through TileAt.
template <typename Schedule>
std::vector<TileRef> ExpandTiles(const Schedule& schedule) {
  std::vector<TileRef> tiles;
  for (int64_t t = 0; t < TileCount(schedule); ++t) {
    tiles.push_back(TileAt(schedule, t));
  }
  return tiles;
}

struct Layer0Schedule {
  std::vector<std::vector<int64_t>> row_order;
  std::vector<TileRef> tiles;  // execution order
  int64_t tile_m = 0;
  int64_t tile_n = 0;
};

struct Layer1Schedule {
  std::vector<TileRef> tiles;  // execution order
  int64_t num_col_panels = 0;
  int64_t tile_m = 0;
  int64_t tile_n = 0;
};

struct ScheduleScratch {
  std::vector<int64_t> class_count;
  std::vector<int64_t> class_offset;
  std::vector<TileRef> tiles_tmp;
};

inline void BuildLayer0ScheduleInto(const RankPlan& plan, int ep_group, int ep,
                                    int64_t out_cols, int64_t tile_m,
                                    int64_t tile_n, bool reschedule,
                                    ScheduleScratch& scratch,
                                    Layer0Schedule* out) {
  COMET_CHECK_GT(tile_m, 0);
  COMET_CHECK_GT(tile_n, 0);
  COMET_CHECK_GT(out_cols, 0);

  out->tile_m = tile_m;
  out->tile_n = tile_n;
  // The local expert count is fixed for a given placement, so this resize
  // neither destroys inner vectors nor allocates once warmed.
  out->row_order.resize(plan.experts.size());
  out->tiles.clear();

  const int64_t col_tiles = CeilDiv(out_cols, tile_n);

  for (size_t le = 0; le < plan.experts.size(); ++le) {
    const auto& rows = plan.experts[le].rows;
    auto& order = out->row_order[le];
    order.resize(rows.size());
    if (reschedule) {
      // Stable counting sort by arrival class: locals first, then peers in
      // ring-arrival order, original token order kept within a class. The
      // placement loop walks rows in index order, so ties resolve exactly
      // like std::stable_sort over an iota permutation.
      scratch.class_count.assign(static_cast<size_t>(ep), 0);
      for (const auto& row : rows) {
        ++scratch.class_count[static_cast<size_t>(
            RowArrivalClass(row.source_group, ep_group, ep))];
      }
      scratch.class_offset.assign(static_cast<size_t>(ep), 0);
      for (int c = 1; c < ep; ++c) {
        scratch.class_offset[static_cast<size_t>(c)] =
            scratch.class_offset[static_cast<size_t>(c - 1)] +
            scratch.class_count[static_cast<size_t>(c - 1)];
      }
      for (size_t i = 0; i < rows.size(); ++i) {
        const int cls = RowArrivalClass(rows[i].source_group, ep_group, ep);
        order[static_cast<size_t>(
            scratch.class_offset[static_cast<size_t>(cls)]++)] =
            static_cast<int64_t>(i);
      }
    } else {
      std::iota(order.begin(), order.end(), 0);
    }
  }

  // Enumerate tiles over the permuted rows.
  for (size_t le = 0; le < plan.experts.size(); ++le) {
    const auto& rows = plan.experts[le].rows;
    const auto& order = out->row_order[le];
    const int64_t m = static_cast<int64_t>(rows.size());
    for (int64_t r = 0; r < m; r += tile_m) {
      const int64_t r_end = std::min(r + tile_m, m);
      int arrival = 0;
      for (int64_t i = r; i < r_end; ++i) {
        arrival = std::max(
            arrival,
            RowArrivalClass(
                rows[static_cast<size_t>(order[static_cast<size_t>(i)])]
                    .source_group,
                ep_group, ep));
      }
      for (int64_t c = 0; c < col_tiles; ++c) {
        out->tiles.push_back(
            TileRef{static_cast<int64_t>(le), r, r_end, c * tile_n,
                    std::min((c + 1) * tile_n, out_cols), arrival});
      }
    }
  }

  if (reschedule) {
    // Readiness-ordered issue via a stable counting sort on arrival_class
    // (same permutation as a stable comparison sort).
    scratch.class_count.assign(static_cast<size_t>(ep), 0);
    for (const auto& tile : out->tiles) {
      ++scratch.class_count[static_cast<size_t>(tile.arrival_class)];
    }
    scratch.class_offset.assign(static_cast<size_t>(ep), 0);
    for (int c = 1; c < ep; ++c) {
      scratch.class_offset[static_cast<size_t>(c)] =
          scratch.class_offset[static_cast<size_t>(c - 1)] +
          scratch.class_count[static_cast<size_t>(c - 1)];
    }
    scratch.tiles_tmp.resize(out->tiles.size());
    for (const auto& tile : out->tiles) {
      scratch.tiles_tmp[static_cast<size_t>(
          scratch.class_offset[static_cast<size_t>(tile.arrival_class)]++)] =
          tile;
    }
    // Swap keeps both buffers' capacities warm for the next rebuild.
    out->tiles.swap(scratch.tiles_tmp);
  }
}

inline void BuildLayer1ScheduleInto(const RankPlan& plan, int64_t out_cols,
                                    int64_t tile_m, int64_t tile_n,
                                    bool reschedule, Layer1Schedule* out) {
  COMET_CHECK_GT(tile_m, 0);
  COMET_CHECK_GT(tile_n, 0);
  COMET_CHECK_GT(out_cols, 0);

  out->tile_m = tile_m;
  out->tile_n = tile_n;
  out->num_col_panels = CeilDiv(out_cols, tile_n);
  out->tiles.clear();

  if (reschedule) {
    // Column-panel-major across all experts (Figure 6).
    for (int64_t c = 0; c < out->num_col_panels; ++c) {
      for (size_t le = 0; le < plan.experts.size(); ++le) {
        const int64_t m =
            static_cast<int64_t>(plan.experts[le].rows.size());
        for (int64_t r = 0; r < m; r += tile_m) {
          out->tiles.push_back(TileRef{
              static_cast<int64_t>(le), r, std::min(r + tile_m, m),
              c * tile_n, std::min((c + 1) * tile_n, out_cols), 0});
        }
      }
    }
  } else {
    // Canonical expert-major order.
    for (size_t le = 0; le < plan.experts.size(); ++le) {
      const int64_t m = static_cast<int64_t>(plan.experts[le].rows.size());
      for (int64_t r = 0; r < m; r += tile_m) {
        for (int64_t c = 0; c < out->num_col_panels; ++c) {
          out->tiles.push_back(TileRef{
              static_cast<int64_t>(le), r, std::min(r + tile_m, m),
              c * tile_n, std::min((c + 1) * tile_n, out_cols), 0});
        }
      }
    }
  }
}

inline void ScheduleInOrderInto(const std::vector<SlotTask>& tasks,
                                int num_slots, double start_time_us,
                                std::vector<double>& slot_heap,
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

}  // namespace comet::fused_schedule_reference
