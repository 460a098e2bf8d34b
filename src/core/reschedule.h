// Rescheduling of decomposed shared tensors (paper §3.1.2).
//
// Layer0 (communication -> GroupGEMM): the shared tensor is decomposed along
// M. Rows are sorted by source so that every expert's slice begins with the
// rows already resident on this rank's EP group ("sort tokens by source
// rank", Figure 5), and the GroupGEMM tile sequence is ordered by data
// readiness: tiles made only of local rows run first while remote tokens are
// still in flight.
//
// Layer1 (GroupGEMM -> top-k reduce + send): the shared tensor is decomposed
// along N. Tiles are reordered column-panel-major across ALL experts
// (Figure 6): once panel 0 of every expert is computed, the reduce/send of
// those T_N columns starts while panel 1 is still being computed. Without
// rescheduling the consumer waits for the last expert to finish.
//
// Both schedules are stored as row-chunk runs, not tiles: a row chunk's
// column tiles share everything the timing plane prices, so a schedule
// costs O(chunks) memory however fine the tiles, and TileAt recovers any
// tile in O(1) for the functional plane.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "moe/route_plan.h"

namespace comet {

// One GroupGEMM output tile in a fused kernel schedule.
struct TileRef {
  int64_t expert_local = 0;  // local expert index on this rank
  int64_t row_begin = 0;     // rows within the expert's (permuted) slice
  int64_t row_end = 0;
  int64_t col_begin = 0;     // output columns
  int64_t col_end = 0;
  // Layer0: data-readiness class of the tile. 0 = all rows local; k > 0 =
  // the farthest source of any row is the k-th peer group in arrival order.
  int arrival_class = 0;
};

// A row chunk: up to tile_m consecutive rows of one expert's (permuted)
// slice. Every column tile of a chunk shares its rows, arrival class, ready
// time and duration, so the schedules store one run per chunk and leave the
// ceil(out_cols / tile_n) column tiles implicit. TileAt expands a schedule's
// tile index into its TileRef in O(1).
struct TileRun {
  int64_t expert_local = 0;
  int64_t row_begin = 0;
  int64_t row_end = 0;
  int arrival_class = 0;  // as TileRef::arrival_class; 0 in layer1
};

struct Layer0Schedule {
  // Per local expert: permutation of its ExpertSlice row indices (positions
  // into RankPlan rows). Identity when rescheduling is off.
  std::vector<std::vector<int64_t>> row_order;
  // Row chunks in execution order; each issues its col_tiles column tiles
  // back to back, left to right. Tile t is column t % col_tiles of run
  // t / col_tiles.
  std::vector<TileRun> runs;
  int64_t out_cols = 0;
  int64_t col_tiles = 0;
  int64_t tile_m = 0;
  int64_t tile_n = 0;
};

struct Layer1Schedule {
  // Row chunks, expert-major. Panel-major (rescheduled) execution issues
  // panel 0 of every run, then panel 1, ...: tile t is panel t / runs.size()
  // of run t % runs.size(). Expert-major execution issues every panel of a
  // run before the next run: tile t is panel t % num_col_panels of run
  // t / num_col_panels.
  std::vector<TileRun> runs;
  int64_t num_col_panels = 0;
  int64_t out_cols = 0;
  bool panel_major = false;
  int64_t tile_m = 0;
  int64_t tile_n = 0;
};

inline int64_t TileCount(const Layer0Schedule& s) {
  return static_cast<int64_t>(s.runs.size()) * s.col_tiles;
}

inline int64_t TileCount(const Layer1Schedule& s) {
  return static_cast<int64_t>(s.runs.size()) * s.num_col_panels;
}

// The tile of `run` in column panel `panel`.
inline TileRef TileOfRun(const TileRun& run, int64_t panel, int64_t tile_n,
                         int64_t out_cols) {
  return TileRef{run.expert_local,
                 run.row_begin,
                 run.row_end,
                 panel * tile_n,
                 std::min((panel + 1) * tile_n, out_cols),
                 run.arrival_class};
}

// The t-th tile in execution order, 0 <= t < TileCount(s).
inline TileRef TileAt(const Layer0Schedule& s, int64_t t) {
  return TileOfRun(s.runs[static_cast<size_t>(t / s.col_tiles)],
                   t % s.col_tiles, s.tile_n, s.out_cols);
}

inline TileRef TileAt(const Layer1Schedule& s, int64_t t) {
  const int64_t n_runs = static_cast<int64_t>(s.runs.size());
  return s.panel_major
             ? TileOfRun(s.runs[static_cast<size_t>(t % n_runs)], t / n_runs,
                         s.tile_n, s.out_cols)
             : TileOfRun(s.runs[static_cast<size_t>(t / s.num_col_panels)],
                         t % s.num_col_panels, s.tile_n, s.out_cols);
}

// Arrival class of a row on a rank of `ep_group`: 0 if the row's source is
// the group itself, else 1 + ring distance to the source group. This is the
// order in which the communication blocks drain remote data.
int RowArrivalClass(int source_group, int ep_group, int ep);

// Reusable scratch for the allocation-free schedule builders below. Owned
// per rank by the executor workspace; capacities grow to the run's
// high-water mark and are then reused.
struct ScheduleScratch {
  std::vector<int64_t> class_count;   // [ep] counting-sort histogram
  std::vector<int64_t> class_offset;  // [ep] counting-sort placement cursor
  std::vector<TileRun> runs_tmp;      // runs before the arrival-class sort
};

// Builds the layer0 schedule for a rank of `ep_group`. `out_cols` is the
// GEMM output width (K / TP). With `reschedule` off, rows stay canonical and
// tiles run expert-major / row-major (the order an unmodified GroupGEMM
// walks them); on, rows sort by arrival class within each expert and runs
// sort by arrival class across experts.
Layer0Schedule BuildLayer0Schedule(const RankPlan& plan, int ep_group, int ep,
                                   int64_t out_cols, int64_t tile_m,
                                   int64_t tile_n, bool reschedule);

// Builds the layer1 schedule. `out_cols` is the embedding size N. With
// `reschedule` on, tiles run column-panel-major across experts; off,
// expert-major.
Layer1Schedule BuildLayer1Schedule(const RankPlan& plan, int64_t out_cols,
                                   int64_t tile_m, int64_t tile_n,
                                   bool reschedule);

// Allocation-free rebuild variants: identical output to the builders above,
// but reusing `out`'s and `scratch`'s storage (steady-state free once the
// capacities reach the run's high-water mark). Both cost O(rows + chunks).
// The stable row/run sorts are counting sorts over the ep arrival classes
// -- stable by construction, so the permutations match std::stable_sort
// exactly.
void BuildLayer0ScheduleInto(const RankPlan& plan, int ep_group, int ep,
                             int64_t out_cols, int64_t tile_m, int64_t tile_n,
                             bool reschedule, ScheduleScratch& scratch,
                             Layer0Schedule* out);
void BuildLayer1ScheduleInto(const RankPlan& plan, int64_t out_cols,
                             int64_t tile_m, int64_t tile_n, bool reschedule,
                             Layer1Schedule* out);

}  // namespace comet
