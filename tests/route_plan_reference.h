// Test-only reference: RoutePlan's traffic accounting as a walk over every
// row of the plan. The production RoutePlan (src/moe/route_plan.cc) reads
// per (source group, destination group) row counts taken in Rebuild, and
// must match these loops bit for bit: each matrix entry here is
// bytes_per_row added once per row, in row order, from zero.
#pragma once

#include <cstdint>
#include <vector>

#include "moe/route_plan.h"

namespace comet::route_plan_reference {

// Rows `rank` consumes that originate in a different EP group.
inline int64_t RemoteRows(const RoutePlan& plan, int rank) {
  const int group = plan.placement().EpGroupOfRank(rank);
  int64_t remote = 0;
  for (const auto& slice : plan.ForRank(rank).experts) {
    for (const auto& row : slice.rows) {
      if (row.source_group != group) {
        ++remote;
      }
    }
  }
  return remote;
}

// Layer0 dispatch (to_home false) or layer1 EP return (to_home true):
// bytes[i][j] from rank i to rank j, one row per (crossing row, lane).
inline std::vector<std::vector<double>> PairBytes(const RoutePlan& plan,
                                                  double bytes_per_row,
                                                  bool to_home) {
  const Placement& placement = plan.placement();
  const int world = placement.world();
  const int tp = placement.parallel().tp;
  std::vector<std::vector<double>> bytes(
      static_cast<size_t>(world),
      std::vector<double>(static_cast<size_t>(world), 0.0));
  for (int g = 0; g < placement.parallel().ep; ++g) {
    for (const auto& slice : plan.ForGroup(g).experts) {
      for (const auto& row : slice.rows) {
        if (row.source_group == g) {
          continue;
        }
        for (int lane = 0; lane < tp; ++lane) {
          const int home = placement.RankOf(row.source_group, lane);
          const int expert = placement.RankOf(g, lane);
          const int src = to_home ? expert : home;
          const int dst = to_home ? home : expert;
          bytes[static_cast<size_t>(src)][static_cast<size_t>(dst)] +=
              bytes_per_row;
        }
      }
    }
  }
  return bytes;
}

inline std::vector<std::vector<double>> DispatchBytes(const RoutePlan& plan,
                                                      double bytes_per_row) {
  return PairBytes(plan, bytes_per_row, /*to_home=*/false);
}

inline std::vector<std::vector<double>> EpReturnBytes(const RoutePlan& plan,
                                                      double bytes_per_row) {
  return PairBytes(plan, bytes_per_row, /*to_home=*/true);
}

}  // namespace comet::route_plan_reference
