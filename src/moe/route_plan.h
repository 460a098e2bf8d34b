// Distributed dispatch layout: where every (token, expert) pair lands.
//
// After gating, each (token, expert) pair becomes one row of the shared
// tensor on every TP lane of the expert's EP group (paper Figure 2: the
// shared tensor between dispatch and layer0 GroupGEMM has global size
// (M * topk, N)). The RoutePlan materializes, for every rank, the ordered
// list of rows each local expert consumes -- the canonical order is by
// global token id, which (with block-sharded tokens) equals source-group
// order. COMET's rescheduling permutes this order per rank; the baselines
// consume it as-is.
//
// The plan holds no copy of the routing table it was built from, nor any
// pointer to it: a row carries everything the executors read (token, slot,
// source group, combine weight), so the caller's table need not outlive the
// plan, and a workload holding both can be moved or copied freely.
//
// Communication accounting (all lane-matched: group s lane l talks to group
// g lane l):
//  * layer0 dispatch: one row per (pair, lane) crossing groups,
//  * layer1 EP return: the partial output row returns to the home group,
//  * layer1 TP reduce-scatter: partial sums are reduced across each group's
//    lanes; bytes per rank = (TP-1)/TP * tokens_per_group * N * elt_size.
// Rebuild counts the rows per (source group, destination group) as each
// row lands, replica slices included, so the dispatch and return matrices
// and RemoteRows read those EP x EP counts instead of walking the rows.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "moe/config.h"
#include "moe/router.h"

namespace comet {

// One active hot-expert replica: expert `expert`'s traffic is split between
// its home EP group and replica slice `slot` of group `ep_group`. Produced
// by the serving plane's HotExpertTracker; consumed by RoutePlan::Rebuild.
// expert < 0 marks the slot inactive.
struct ReplicaAssignment {
  int64_t expert = -1;
  int ep_group = -1;
  int slot = -1;
};

// One row of a rank's layer0 shared tensor.
struct ExpertRow {
  int64_t token = 0;     // global token id
  int64_t slot = 0;      // which of the token's topk slots this pair is
  int source_group = 0;  // home EP group of the token
  float weight = 0.0f;   // combine weight of this (token, expert) pair
};
// A plan holds M * topk rows: the two 4-byte fields share one 8-byte word.
static_assert(sizeof(ExpertRow) == 24, "ExpertRow must pack to 24 bytes");

// All rows consumed by one local expert on one rank, canonical order.
struct ExpertSlice {
  int64_t expert = 0;  // global expert id
  std::vector<ExpertRow> rows;
};

// Per-rank view of the plan. All TP lanes of one EP group see identical row
// layouts (full-N activations are replicated), so the plan is stored per EP
// group and served per rank.
//
// Slice layout: the first ExpertsPerGroup() entries are the group's home
// experts in expert order. When the plan was reserved with max_replicas R >
// 0, EVERY group carries exactly R additional replica slices (indices
// ExpertsPerGroup() + s for replica slot s); a slice whose slot is inactive
// in this group has expert == -1 and no rows. The fixed slice count is what
// makes promote/retire allocation-free: activating a replica only changes
// field values, never container shapes.
struct RankPlan {
  int ep_group = 0;
  std::vector<ExpertSlice> experts;

  int64_t TotalRows() const;
};

// Minimal (m, n, k) triple; mirrors hw's GemmShape but lives here so moe does
// not depend on hw. Converted at the call sites that price time.
struct GemmProblemSize {
  int64_t m = 0;
  int64_t n = 0;
  int64_t k = 0;
};

class RoutePlan {
 public:
  // Empty plan; call Rebuild before use. Exists so a serving loop can hold
  // the plan as a persistent workspace member.
  RoutePlan() = default;
  // Builds the plan for `routing`, which it reads but does not keep: the
  // table may be destroyed or overwritten as soon as the constructor (or any
  // Rebuild) returns.
  RoutePlan(const Placement& placement, const RoutingTable& routing);

  // Pre-sizes internal capacity for `placement`'s EP shape with up to
  // `max_rows_per_expert` (token, expert) pairs per expert, so later
  // Rebuild calls within those bounds allocate nothing. `max_replicas` > 0
  // additionally gives every group `max_replicas` permanent replica slices
  // (see RankPlan), each reserved at the same row bound, so replica-aware
  // Rebuilds allocate nothing either.
  void Reserve(const Placement& placement, int64_t max_rows_per_expert,
               int max_replicas = 0);

  // Rebuilds the plan in place for a new routing (and possibly a new token
  // count), retaining all per-expert row capacity. Each home slice is
  // reserved once to its expert's pair count before rows are placed.
  // Allocation-free once capacities are warm (Reserve, or a previous Rebuild
  // that placed at least as many rows on every slice).
  void Rebuild(const Placement& placement, const RoutingTable& routing);

  // Replica-aware Rebuild: `replicas` holds at most one ACTIVE assignment
  // per replica slot (inactive entries have expert < 0). The (token, expert)
  // pairs of a replicated expert are split between its home slice and its
  // replica slice by parity of the pair's ordinal in global token order
  // (even ordinals home, odd ordinals replica) -- a deterministic 50/50
  // split that preserves canonical row order within each slice. Requires a
  // prior Reserve with max_replicas >= every assignment's slot + 1.
  void Rebuild(const Placement& placement, const RoutingTable& routing,
               std::span<const ReplicaAssignment> replicas);

  // Rows currently landing on replica slices (across all groups).
  int64_t ReplicaRows() const;

  const Placement& placement() const { return placement_; }

  const RankPlan& ForRank(int rank) const;
  const RankPlan& ForGroup(int ep_group) const;

  // Rows `rank` consumes that originate in a different EP group / its own.
  int64_t RemoteRows(int rank) const;
  int64_t LocalRows(int rank) const;

  // Layer0 dispatch traffic: bytes[i][j] over the fabric from rank i to rank
  // j (lane-matched between groups). Zero diagonal.
  //
  // Each entry is count * bytes_per_row for the rows of one (source group,
  // destination group) pair, which is bit-identical to adding bytes_per_row
  // once per row as long as every partial sum is an exact double: that
  // holds when bytes_per_row is integral and count * |bytes_per_row| <
  // 2^53. Both are checked (CheckError otherwise); every caller passes N
  // times a whole element size.
  std::vector<std::vector<double>> DispatchBytes(double bytes_per_row) const;

  // Layer1 EP-return traffic: partial output rows flowing back to the home
  // group, lane-matched (the transpose of DispatchBytes; same condition).
  std::vector<std::vector<double>> EpReturnBytes(double bytes_per_row) const;

  // Layer1 TP reduce-scatter bytes each rank sends:
  // (TP-1)/TP * tokens_per_group * bytes_per_row. Zero when TP == 1.
  double TpReduceScatterBytesPerRank(double bytes_per_row) const;

  // GroupGEMM problem sizes for layer0 / layer1 on `rank` (one entry per
  // local expert; layer0: n = K/TP, k = N; layer1: n = N, k = K/TP).
  std::vector<GemmProblemSize> Layer0Problems(int rank) const;
  std::vector<GemmProblemSize> Layer1Problems(int rank) const;

 private:
  Placement placement_;
  std::vector<RankPlan> per_group_;
  int max_replicas_ = 0;
  // Pairs routed to each expert by the current routing (sized num_experts;
  // reused across Rebuilds): what each home slice is reserved to.
  std::vector<int64_t> expert_pairs_;
  // Per-expert scratch for the replica split (sized num_experts; reused
  // across Rebuilds): pair ordinal counter, and the replica (group, slice)
  // of each replicated expert (-1 when not replicated).
  std::vector<int64_t> split_counter_;
  std::vector<int32_t> replica_group_of_expert_;
  std::vector<int32_t> replica_slice_of_expert_;
  // Rows per (source group, destination group) of the current plan,
  // [source * EP + destination], counted where each row lands (sized EP^2;
  // reused across Rebuilds).
  std::vector<int64_t> group_pair_rows_;

  // Dispatch matrix of group_pair_rows_: bytes[src][dst] for every lane of
  // each crossing pair, or its transpose when `to_home`.
  std::vector<std::vector<double>> PairBytes(double bytes_per_row,
                                             bool to_home) const;
};

}  // namespace comet
