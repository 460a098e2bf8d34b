#include "core/reschedule.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace comet {
namespace {

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

}  // namespace

int RowArrivalClass(int source_group, int ep_group, int ep) {
  COMET_CHECK_GE(source_group, 0);
  COMET_CHECK_LT(source_group, ep);
  COMET_CHECK_GE(ep_group, 0);
  COMET_CHECK_LT(ep_group, ep);
  // (source - self) mod ep is 0 for local rows and the ring distance
  // (1 .. ep-1) otherwise.
  return (source_group - ep_group + ep) % ep;
}

void BuildLayer0ScheduleInto(const RankPlan& plan, int ep_group, int ep,
                             int64_t out_cols, int64_t tile_m, int64_t tile_n,
                             bool reschedule, ScheduleScratch& scratch,
                             Layer0Schedule* out) {
  COMET_CHECK_GT(tile_m, 0);
  COMET_CHECK_GT(tile_n, 0);
  COMET_CHECK_GT(out_cols, 0);

  out->tile_m = tile_m;
  out->tile_n = tile_n;
  out->out_cols = out_cols;
  out->col_tiles = CeilDiv(out_cols, tile_n);
  // The local expert count is fixed for a given placement, so this resize
  // neither destroys inner vectors nor allocates once warmed.
  out->row_order.resize(plan.experts.size());

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

  // Row chunks over the permuted rows, expert-major. A chunk's column tiles
  // share its arrival class and sit next to each other in this order, so
  // the stable sort below keeps them together and left to right: sorting
  // runs gives the same tile sequence as sorting tiles.
  std::vector<TileRun>& runs = reschedule ? scratch.runs_tmp : out->runs;
  runs.clear();
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
      runs.push_back(TileRun{static_cast<int64_t>(le), r, r_end, arrival});
    }
  }

  if (reschedule) {
    // Readiness-ordered issue via a stable counting sort on arrival_class
    // (same permutation as a stable comparison sort).
    scratch.class_count.assign(static_cast<size_t>(ep), 0);
    for (const TileRun& run : runs) {
      ++scratch.class_count[static_cast<size_t>(run.arrival_class)];
    }
    scratch.class_offset.assign(static_cast<size_t>(ep), 0);
    for (int c = 1; c < ep; ++c) {
      scratch.class_offset[static_cast<size_t>(c)] =
          scratch.class_offset[static_cast<size_t>(c - 1)] +
          scratch.class_count[static_cast<size_t>(c - 1)];
    }
    out->runs.resize(runs.size());
    for (const TileRun& run : runs) {
      out->runs[static_cast<size_t>(
          scratch.class_offset[static_cast<size_t>(run.arrival_class)]++)] =
          run;
    }
  }
}

Layer0Schedule BuildLayer0Schedule(const RankPlan& plan, int ep_group, int ep,
                                   int64_t out_cols, int64_t tile_m,
                                   int64_t tile_n, bool reschedule) {
  Layer0Schedule schedule;
  ScheduleScratch scratch;
  BuildLayer0ScheduleInto(plan, ep_group, ep, out_cols, tile_m, tile_n,
                          reschedule, scratch, &schedule);
  return schedule;
}

void BuildLayer1ScheduleInto(const RankPlan& plan, int64_t out_cols,
                             int64_t tile_m, int64_t tile_n, bool reschedule,
                             Layer1Schedule* out) {
  COMET_CHECK_GT(tile_m, 0);
  COMET_CHECK_GT(tile_n, 0);
  COMET_CHECK_GT(out_cols, 0);

  out->tile_m = tile_m;
  out->tile_n = tile_n;
  out->out_cols = out_cols;
  out->num_col_panels = CeilDiv(out_cols, tile_n);
  // Column-panel-major across all experts (Figure 6) when rescheduling;
  // the canonical expert-major order otherwise.
  out->panel_major = reschedule;
  out->runs.clear();
  for (size_t le = 0; le < plan.experts.size(); ++le) {
    const int64_t m = static_cast<int64_t>(plan.experts[le].rows.size());
    for (int64_t r = 0; r < m; r += tile_m) {
      out->runs.push_back(
          TileRun{static_cast<int64_t>(le), r, std::min(r + tile_m, m), 0});
    }
  }
}

Layer1Schedule BuildLayer1Schedule(const RankPlan& plan, int64_t out_cols,
                                   int64_t tile_m, int64_t tile_n,
                                   bool reschedule) {
  Layer1Schedule schedule;
  BuildLayer1ScheduleInto(plan, out_cols, tile_m, tile_n, reschedule,
                          &schedule);
  return schedule;
}

}  // namespace comet
