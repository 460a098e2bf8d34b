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
// Communication accounting (all lane-matched: group s lane l talks to group
// g lane l):
//  * layer0 dispatch: one row per (pair, lane) crossing groups,
//  * layer1 EP return: the partial output row returns to the home group,
//  * layer1 TP reduce-scatter: partial sums are reduced across each group's
//    lanes; bytes per rank = (TP-1)/TP * tokens_per_group * N * elt_size.
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
  int64_t token = 0;    // global token id
  int source_group = 0;  // home EP group of the token
  int64_t slot = 0;     // which of the token's topk slots this pair is
  float weight = 0.0f;  // combine weight of this (token, expert) pair
};

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
  // count), retaining all per-expert row capacity. Allocation-free once
  // capacities are warm (Reserve, or a previous Rebuild of equal size) and
  // every route fits TokenRoute's inline storage.
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
  int max_replicas() const { return max_replicas_; }

  const Placement& placement() const { return placement_; }
  const RoutingTable& routing() const { return routing_; }

  const RankPlan& ForRank(int rank) const;
  const RankPlan& ForGroup(int ep_group) const;

  // Rows `rank` consumes that originate in a different EP group / its own.
  int64_t RemoteRows(int rank) const;
  int64_t LocalRows(int rank) const;

  // Layer0 dispatch traffic: bytes[i][j] over the fabric from rank i to rank
  // j (lane-matched between groups). Zero diagonal.
  std::vector<std::vector<double>> DispatchBytes(double bytes_per_row) const;

  // Layer1 EP-return traffic: partial output rows flowing back to the home
  // group, lane-matched.
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
  RoutingTable routing_;
  std::vector<RankPlan> per_group_;
  int max_replicas_ = 0;
  // Per-expert scratch for the replica split (sized num_experts; reused
  // across Rebuilds): pair ordinal counter, and the replica (group, slice)
  // of each replicated expert (-1 when not replicated).
  std::vector<int64_t> split_counter_;
  std::vector<int32_t> replica_group_of_expert_;
  std::vector<int32_t> replica_slice_of_expert_;
};

}  // namespace comet
