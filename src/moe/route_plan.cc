#include "moe/route_plan.h"

#include "util/check.h"

namespace comet {

int64_t RankPlan::TotalRows() const {
  int64_t total = 0;
  for (const auto& slice : experts) {
    total += static_cast<int64_t>(slice.rows.size());
  }
  return total;
}

RoutePlan::RoutePlan(const Placement& placement, const RoutingTable& routing) {
  Rebuild(placement, routing);
}

void RoutePlan::Reserve(const Placement& placement,
                        int64_t max_rows_per_expert, int max_replicas) {
  COMET_CHECK_GE(max_rows_per_expert, 0);
  COMET_CHECK_GE(max_replicas, 0);
  max_replicas_ = max_replicas;
  routing_.tokens.reserve(static_cast<size_t>(placement.total_tokens()));
  const int ep = placement.parallel().ep;
  per_group_.resize(static_cast<size_t>(ep));
  for (RankPlan& plan : per_group_) {
    plan.experts.resize(
        static_cast<size_t>(placement.ExpertsPerGroup() + max_replicas));
    for (ExpertSlice& slice : plan.experts) {
      slice.rows.reserve(static_cast<size_t>(max_rows_per_expert));
    }
  }
  if (max_replicas_ > 0) {
    const size_t e_total =
        static_cast<size_t>(placement.model().num_experts);
    split_counter_.assign(e_total, 0);
    replica_group_of_expert_.assign(e_total, -1);
    replica_slice_of_expert_.assign(e_total, -1);
  }
}

void RoutePlan::Rebuild(const Placement& placement,
                        const RoutingTable& routing) {
  Rebuild(placement, routing, std::span<const ReplicaAssignment>{});
}

void RoutePlan::Rebuild(const Placement& placement,
                        const RoutingTable& routing,
                        std::span<const ReplicaAssignment> replicas) {
  placement_ = placement;
  routing_ = routing;
  COMET_CHECK_EQ(routing_.size(), placement_.total_tokens());
  routing_.Validate(placement_.model().num_experts, placement_.model().topk);

  const int ep = placement_.parallel().ep;
  const int64_t epg = placement_.ExpertsPerGroup();
  per_group_.resize(static_cast<size_t>(ep));
  for (int g = 0; g < ep; ++g) {
    RankPlan& plan = per_group_[static_cast<size_t>(g)];
    plan.ep_group = g;
    plan.experts.resize(static_cast<size_t>(epg + max_replicas_));
    for (int64_t local = 0; local < epg; ++local) {
      ExpertSlice& slice = plan.experts[static_cast<size_t>(local)];
      slice.expert = static_cast<int64_t>(g) * epg + local;
      slice.rows.clear();
    }
    // Replica slices start each Rebuild inactive; active assignments below
    // claim theirs. clear() keeps row capacity.
    for (int s = 0; s < max_replicas_; ++s) {
      ExpertSlice& slice = plan.experts[static_cast<size_t>(epg + s)];
      slice.expert = -1;
      slice.rows.clear();
    }
  }

  const bool split_active = max_replicas_ > 0;
  if (split_active) {
    const size_t e_total =
        static_cast<size_t>(placement_.model().num_experts);
    split_counter_.assign(e_total, 0);
    replica_group_of_expert_.assign(e_total, -1);
    replica_slice_of_expert_.assign(e_total, -1);
    for (const ReplicaAssignment& a : replicas) {
      if (a.expert < 0) {
        continue;  // inactive slot
      }
      COMET_CHECK_GE(a.slot, 0);
      COMET_CHECK_LT(a.slot, max_replicas_);
      COMET_CHECK_LT(a.expert, placement_.model().num_experts);
      COMET_CHECK_GE(a.ep_group, 0);
      COMET_CHECK_LT(a.ep_group, ep);
      COMET_CHECK_NE(a.ep_group, placement_.EpGroupOfExpert(a.expert))
          << "replica of expert " << a.expert << " placed on its home group";
      COMET_CHECK_LT(replica_slice_of_expert_[static_cast<size_t>(a.expert)],
                     0)
          << "expert " << a.expert << " replicated twice";
      ExpertSlice& slice = per_group_[static_cast<size_t>(a.ep_group)]
                               .experts[static_cast<size_t>(epg + a.slot)];
      COMET_CHECK_LT(slice.expert, 0)
          << "replica slot " << a.slot << " assigned twice";
      slice.expert = a.expert;
      replica_group_of_expert_[static_cast<size_t>(a.expert)] = a.ep_group;
      replica_slice_of_expert_[static_cast<size_t>(a.expert)] =
          static_cast<int32_t>(epg + a.slot);
    }
  } else {
    COMET_CHECK(replicas.empty())
        << "replica assignments require Reserve with max_replicas > 0";
  }

  // Walk tokens in global order; rows land per-expert in token order, which
  // is source-group order because tokens are block-sharded. A replicated
  // expert's pairs alternate home/replica by ordinal (the deterministic
  // 50/50 traffic split).
  for (int64_t t = 0; t < placement_.total_tokens(); ++t) {
    const TokenRoute& route = routing_.tokens[static_cast<size_t>(t)];
    const int home = placement_.HomeGroupOfToken(t);
    for (size_t k = 0; k < route.experts.size(); ++k) {
      const int64_t e = route.experts[k];
      int g = placement_.EpGroupOfExpert(e);
      int64_t local = placement_.LocalExpertIndex(e);
      if (split_active &&
          replica_slice_of_expert_[static_cast<size_t>(e)] >= 0 &&
          (split_counter_[static_cast<size_t>(e)]++ & 1) != 0) {
        g = replica_group_of_expert_[static_cast<size_t>(e)];
        local = replica_slice_of_expert_[static_cast<size_t>(e)];
      }
      per_group_[static_cast<size_t>(g)]
          .experts[static_cast<size_t>(local)]
          .rows.push_back(
              ExpertRow{t, home, static_cast<int64_t>(k), route.weights[k]});
    }
  }
}

int64_t RoutePlan::ReplicaRows() const {
  if (max_replicas_ == 0) {
    return 0;
  }
  const int64_t epg = placement_.ExpertsPerGroup();
  int64_t rows = 0;
  for (const RankPlan& plan : per_group_) {
    for (size_t le = static_cast<size_t>(epg); le < plan.experts.size();
         ++le) {
      rows += static_cast<int64_t>(plan.experts[le].rows.size());
    }
  }
  return rows;
}

const RankPlan& RoutePlan::ForGroup(int ep_group) const {
  COMET_CHECK_GE(ep_group, 0);
  COMET_CHECK_LT(ep_group, placement_.parallel().ep);
  return per_group_[static_cast<size_t>(ep_group)];
}

const RankPlan& RoutePlan::ForRank(int rank) const {
  return ForGroup(placement_.EpGroupOfRank(rank));
}

int64_t RoutePlan::RemoteRows(int rank) const {
  const RankPlan& plan = ForRank(rank);
  const int group = placement_.EpGroupOfRank(rank);
  int64_t remote = 0;
  for (const auto& slice : plan.experts) {
    for (const auto& row : slice.rows) {
      if (row.source_group != group) {
        ++remote;
      }
    }
  }
  return remote;
}

int64_t RoutePlan::LocalRows(int rank) const {
  return ForRank(rank).TotalRows() - RemoteRows(rank);
}

std::vector<std::vector<double>> RoutePlan::DispatchBytes(
    double bytes_per_row) const {
  const int world = placement_.world();
  const int tp = placement_.parallel().tp;
  std::vector<std::vector<double>> bytes(
      static_cast<size_t>(world),
      std::vector<double>(static_cast<size_t>(world), 0.0));
  for (int g = 0; g < placement_.parallel().ep; ++g) {
    for (const auto& slice : per_group_[static_cast<size_t>(g)].experts) {
      for (const auto& row : slice.rows) {
        if (row.source_group == g) {
          continue;
        }
        for (int lane = 0; lane < tp; ++lane) {
          const int src = placement_.RankOf(row.source_group, lane);
          const int dst = placement_.RankOf(g, lane);
          bytes[static_cast<size_t>(src)][static_cast<size_t>(dst)] +=
              bytes_per_row;
        }
      }
    }
  }
  return bytes;
}

std::vector<std::vector<double>> RoutePlan::EpReturnBytes(
    double bytes_per_row) const {
  const int world = placement_.world();
  const int tp = placement_.parallel().tp;
  std::vector<std::vector<double>> bytes(
      static_cast<size_t>(world),
      std::vector<double>(static_cast<size_t>(world), 0.0));
  for (int g = 0; g < placement_.parallel().ep; ++g) {
    for (const auto& slice : per_group_[static_cast<size_t>(g)].experts) {
      for (const auto& row : slice.rows) {
        if (row.source_group == g) {
          continue;
        }
        for (int lane = 0; lane < tp; ++lane) {
          const int src = placement_.RankOf(g, lane);
          const int dst = placement_.RankOf(row.source_group, lane);
          bytes[static_cast<size_t>(src)][static_cast<size_t>(dst)] +=
              bytes_per_row;
        }
      }
    }
  }
  return bytes;
}

double RoutePlan::TpReduceScatterBytesPerRank(double bytes_per_row) const {
  const int tp = placement_.parallel().tp;
  if (tp == 1) {
    return 0.0;
  }
  return (static_cast<double>(tp - 1) / static_cast<double>(tp)) *
         static_cast<double>(placement_.tokens_per_group()) * bytes_per_row;
}

std::vector<GemmProblemSize> RoutePlan::Layer0Problems(int rank) const {
  const RankPlan& plan = ForRank(rank);
  std::vector<GemmProblemSize> out;
  out.reserve(plan.experts.size());
  for (const auto& slice : plan.experts) {
    out.push_back(GemmProblemSize{static_cast<int64_t>(slice.rows.size()),
                                  placement_.HiddenPerTpRank(),
                                  placement_.model().embedding});
  }
  return out;
}

std::vector<GemmProblemSize> RoutePlan::Layer1Problems(int rank) const {
  const RankPlan& plan = ForRank(rank);
  std::vector<GemmProblemSize> out;
  out.reserve(plan.experts.size());
  for (const auto& slice : plan.experts) {
    out.push_back(GemmProblemSize{static_cast<int64_t>(slice.rows.size()),
                                  placement_.model().embedding,
                                  placement_.HiddenPerTpRank()});
  }
  return out;
}

}  // namespace comet
