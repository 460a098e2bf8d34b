#include "core/fused_kernel.h"

#include <algorithm>

#include "util/check.h"

namespace comet {
namespace {

// Compute-efficiency penalty factor for vertical fusion (token I/O breaks
// the TMA/MMA pipeline of every block).
constexpr double kVerticalFusionPenalty = 0.15;

// Harmonic blend of per-class transfer rates: moving each byte class at its
// own rate back-to-back through one channel yields total/sum(bytes_i/rate_i).
double HarmonicBlend(std::initializer_list<std::pair<double, double>> classes,
                     double fallback_rate) {
  double total = 0.0;
  double denom = 0.0;
  for (const auto& [bytes, rate] : classes) {
    if (bytes > 0.0) {
      total += bytes;
      denom += bytes / rate;
    }
  }
  return total > 0.0 ? total / denom : fallback_rate;
}

// Remote traffic of one rank split by fabric tier.
struct TierSplit {
  double intra = 0.0;  // stays inside the node (NVLink)
  double inter = 0.0;  // crosses nodes (IB); zero on single-node clusters
};

// Channel bandwidth of nc communication blocks moving `split` scattered
// bytes: min over the per-block sustainable rate and the port capacity,
// each blended across tiers.
double ScatteredChannelBandwidth(const TierSplit& split,
                                 const ClusterSpec& cluster, int nc) {
  const LinkSpec& intra = cluster.link;
  const LinkSpec& inter = cluster.inter_link;
  const double per_block = HarmonicBlend(
      {{split.intra, intra.per_block_bandwidth_scattered_bytes_per_us},
       {split.inter, inter.per_block_bandwidth_scattered_bytes_per_us}},
      intra.per_block_bandwidth_scattered_bytes_per_us);
  const double port =
      HarmonicBlend({{split.intra, intra.bandwidth_bytes_per_us},
                     {split.inter, inter.bandwidth_bytes_per_us}},
                    intra.bandwidth_bytes_per_us);
  return std::min(static_cast<double>(nc) * per_block, port);
}

double TierLatencyUs(const TierSplit& split, const ClusterSpec& cluster) {
  return split.inter > 0.0
             ? std::max(cluster.link.latency_us, cluster.inter_link.latency_us)
             : cluster.link.latency_us;
}

// Zeroes the numbers of `result` and clears `timeline` when there is one.
// `result->timeline` is left alone: the price steps write intervals only to
// the timeline their caller passes.
void ResetResult(FusedKernelResult* result, Timeline* timeline) {
  result->duration_us = 0.0;
  result->compute_makespan_us = 0.0;
  result->comm_makespan_us = 0.0;
  result->stall_us = 0.0;
  result->comm_bytes = 0.0;
  if (timeline != nullptr) {
    timeline->Clear();
  }
}

// Issues `count` tiles of `duration_us`, ready at `ready_us`, onto `slots`
// in order, appending each tile's interval to `timeline` if there is one.
// Returns the latest end (0 when count is 0).
double IssueTiles(SlotPool& slots, int64_t count, double ready_us,
                  double duration_us, const char* label, OpCategory category,
                  Timeline* timeline) {
  double last_end = 0.0;
  for (int64_t c = 0; c < count; ++c) {
    const ScheduledTask task = slots.Issue(ready_us, duration_us);
    last_end = std::max(last_end, task.end_us);
    if (timeline != nullptr) {
      timeline->Add(label, category, 0, task.start_us, task.end_us);
    }
  }
  return last_end;
}

}  // namespace

void PrepareLayer0Fused(const RoutePlan& plan, int rank,
                        const OpCostModel& costs,
                        const FusedKernelConfig& config,
                        FusedKernelWorkspace& ws) {
  const Placement& placement = plan.placement();
  const int group = placement.EpGroupOfRank(rank);
  const int ep = placement.parallel().ep;
  const RankPlan& rank_plan = plan.ForRank(rank);
  const int64_t out_cols = placement.HiddenPerTpRank();
  const int64_t n_embed = placement.model().embedding;
  const double row_bytes = static_cast<double>(n_embed) * costs.bytes_per_element();

  BuildLayer0ScheduleInto(rank_plan, group, ep, out_cols, config.tile_m,
                          config.tile_n, config.reschedule,
                          ws.schedule_scratch, &ws.layer0);
  const Layer0Schedule& schedule = ws.layer0;

  // Remote bytes per run (split by fabric tier), in run order; the runs
  // with remote rows become the delivery jobs, in the same order.
  const ClusterSpec& cluster = costs.cluster();
  const int lane = placement.TpLaneOfRank(rank);
  const size_t n_runs = schedule.runs.size();
  ws.run_intra.resize(n_runs);
  ws.run_inter.resize(n_runs);
  ws.jobs.clear();
  ws.job_runs.clear();
  TierSplit total_split;
  for (size_t i = 0; i < n_runs; ++i) {
    const TileRun& run = schedule.runs[i];
    const auto& rows = rank_plan.experts[static_cast<size_t>(run.expert_local)].rows;
    const auto& order = schedule.row_order[static_cast<size_t>(run.expert_local)];
    TierSplit remote;
    for (int64_t r = run.row_begin; r < run.row_end; ++r) {
      const ExpertRow& row =
          rows[static_cast<size_t>(order[static_cast<size_t>(r)])];
      if (row.source_group == group) {
        continue;
      }
      const int src_rank = placement.RankOf(row.source_group, lane);
      if (cluster.SameNode(rank, src_rank)) {
        remote.intra += row_bytes;
      } else {
        remote.inter += row_bytes;
      }
    }
    ws.run_intra[i] = remote.intra;
    ws.run_inter[i] = remote.inter;
    total_split.intra += remote.intra;
    total_split.inter += remote.inter;
    const double bytes = remote.intra + remote.inter;
    if (bytes > 0.0) {
      ws.jobs.push_back(TransferJob{0.0, bytes});
      ws.job_runs.push_back(static_cast<int64_t>(i));
    }
  }
  ws.remote_intra = total_split.intra;
  ws.remote_inter = total_split.inter;
}

void PriceLayer0Fused(const RoutePlan& plan, const OpCostModel& costs,
                      const FusedKernelConfig& config,
                      FusedKernelWorkspace& ws, FusedKernelResult* result,
                      Timeline* timeline) {
  const int64_t n_embed = plan.placement().model().embedding;
  const ClusterSpec& cluster = costs.cluster();
  const LinkSpec& link = cluster.link;
  const Layer0Schedule& schedule = ws.layer0;
  const size_t n_runs = schedule.runs.size();

  COMET_CHECK_GT(config.total_blocks, 0);
  COMET_CHECK_GE(config.comm_blocks, 0);
  COMET_CHECK_LT(config.comm_blocks, config.total_blocks);

  ResetResult(result, timeline);
  const TierSplit total_split{ws.remote_intra, ws.remote_inter};
  result->comm_bytes = total_split.intra + total_split.inter;

  const double total_comm_bytes = result->comm_bytes;

  if (config.vertical_fusion) {
    // Every block fetches its own tile's rows inline: column tiles of the
    // same row chunk re-fetch the rows (the redundant-access problem of
    // vertical fusion), and the broken async pipeline slows the math itself.
    if (timeline != nullptr) {
      timeline->Reserve(static_cast<size_t>(TileCount(schedule)));
    }
    const double tile_us =
        costs.gemm().TileTimeUs(n_embed, config.tile_m, config.tile_n) *
        (1.0 + kVerticalFusionPenalty);
    ws.slots.Reset(config.total_blocks, 0.0);
    for (size_t i = 0; i < n_runs; ++i) {
      const double intra_bytes = ws.run_intra[i];
      const double inter_bytes = ws.run_inter[i];
      const double total = intra_bytes + inter_bytes;
      const double fetch =
          total > 0.0
              ? total / HarmonicBlend(
                            {{intra_bytes,
                              link.per_block_bandwidth_scattered_bytes_per_us},
                             {inter_bytes,
                              cluster.inter_link
                                  .per_block_bandwidth_scattered_bytes_per_us}},
                            link.per_block_bandwidth_scattered_bytes_per_us)
              : 0.0;
      IssueTiles(ws.slots, schedule.col_tiles, 0.0, tile_us + fetch,
                 "l0-tile", OpCategory::kLayer0Comp, timeline);
    }
    result->compute_makespan_us = ws.slots.makespan_us();
    result->comm_makespan_us = ws.slots.makespan_us();
    result->stall_us = ws.slots.stall_us();
    result->duration_us = ws.slots.makespan_us();
    return;
  }

  COMET_CHECK(total_comm_bytes == 0.0 || config.comm_blocks > 0)
      << "remote tokens but no communication blocks";

  if (timeline != nullptr) {
    timeline->Reserve(static_cast<size_t>(TileCount(schedule)) +
                      ws.jobs.size());
  }
  // Token delivery: FIFO channel at the aggregate rate of the nc blocks,
  // tier-blended on multi-node clusters. Local runs arrive at 0.
  ws.run_arrival.assign(n_runs, 0.0);
  if (total_comm_bytes > 0.0) {
    const double bw =
        ScatteredChannelBandwidth(total_split, cluster, config.comm_blocks);
    BandwidthQueue channel(bw, TierLatencyUs(total_split, cluster));
    channel.ScheduleInto(ws.jobs, 0.0, &ws.transfers);
    for (size_t i = 0; i < ws.transfers.size(); ++i) {
      ws.run_arrival[static_cast<size_t>(ws.job_runs[i])] =
          ws.transfers[i].end_us;
      result->comm_makespan_us =
          std::max(result->comm_makespan_us, ws.transfers[i].end_us);
      if (timeline != nullptr) {
        timeline->Add("l0-recv", OpCategory::kLayer0Comm, 1,
                      ws.transfers[i].start_us, ws.transfers[i].end_us);
      }
    }
  }

  // Compute side: in-order tile issue on the np GEMM blocks, each run's
  // column tiles gated by the run's delivery.
  const double tile_us =
      costs.gemm().TileTimeUs(n_embed, config.tile_m, config.tile_n);
  ws.slots.Reset(config.total_blocks - config.comm_blocks, 0.0);
  for (size_t i = 0; i < n_runs; ++i) {
    IssueTiles(ws.slots, schedule.col_tiles, ws.run_arrival[i], tile_us,
               "l0-tile", OpCategory::kLayer0Comp, timeline);
  }
  result->compute_makespan_us = ws.slots.makespan_us();
  result->stall_us = ws.slots.stall_us();
  result->duration_us =
      std::max(result->compute_makespan_us, result->comm_makespan_us);
}

void SimulateLayer0FusedInto(const RoutePlan& plan, int rank,
                             const OpCostModel& costs,
                             const FusedKernelConfig& config,
                             FusedKernelWorkspace& ws,
                             FusedKernelResult* result) {
  PrepareLayer0Fused(plan, rank, costs, config, ws);
  PriceLayer0Fused(plan, costs, config, ws, result, &result->timeline);
}

FusedKernelResult SimulateLayer0Fused(const RoutePlan& plan, int rank,
                                      const OpCostModel& costs,
                                      const FusedKernelConfig& config) {
  FusedKernelWorkspace ws;
  FusedKernelResult result;
  SimulateLayer0FusedInto(plan, rank, costs, config, ws, &result);
  return result;
}

void PrepareLayer1Fused(const RoutePlan& plan, int rank,
                        const OpCostModel& costs,
                        const FusedKernelConfig& config,
                        FusedKernelWorkspace& ws) {
  const Placement& placement = plan.placement();
  const RankPlan& rank_plan = plan.ForRank(rank);
  const int64_t n_embed = placement.model().embedding;
  const double elt = costs.bytes_per_element();

  BuildLayer1ScheduleInto(rank_plan, n_embed, config.tile_m, config.tile_n,
                          config.reschedule, &ws.layer1);

  // Communication volume: remote partial rows return to their home group
  // (scattered all-to-all writes, split by fabric tier) plus the TP
  // reduce-scatter share (contiguous; crosses nodes only when the TP group
  // spans nodes).
  const ClusterSpec& cluster = costs.cluster();
  const int lane = placement.TpLaneOfRank(rank);
  const int group = placement.EpGroupOfRank(rank);
  const double row_bytes = static_cast<double>(n_embed) * elt;
  TierSplit ep_split;
  for (const auto& slice : rank_plan.experts) {
    for (const ExpertRow& row : slice.rows) {
      if (row.source_group == group) {
        continue;
      }
      const int dst = placement.RankOf(row.source_group, lane);
      if (cluster.SameNode(rank, dst)) {
        ep_split.intra += row_bytes;
      } else {
        ep_split.inter += row_bytes;
      }
    }
  }
  ws.remote_intra = ep_split.intra;
  ws.remote_inter = ep_split.inter;
  ws.reduce_scatter_bytes = plan.TpReduceScatterBytesPerRank(row_bytes);
  const int tp = placement.parallel().tp;
  ws.reduce_scatter_crosses_nodes =
      tp > 1 && !cluster.SameNode(placement.RankOf(group, 0),
                                  placement.RankOf(group, tp - 1));
}

void PriceLayer1Fused(const RoutePlan& plan, const OpCostModel& costs,
                      const FusedKernelConfig& config,
                      FusedKernelWorkspace& ws, FusedKernelResult* result,
                      Timeline* timeline) {
  const Placement& placement = plan.placement();
  const int64_t n_embed = placement.model().embedding;
  const int64_t k_depth = placement.HiddenPerTpRank();
  const ClusterSpec& cluster = costs.cluster();
  const LinkSpec& link = cluster.link;
  const Layer1Schedule& schedule = ws.layer1;

  COMET_CHECK_GT(config.total_blocks, 0);
  COMET_CHECK_GE(config.comm_blocks, 0);
  COMET_CHECK_LT(config.comm_blocks, config.total_blocks);

  const TierSplit ep_split{ws.remote_intra, ws.remote_inter};
  const double ep_bytes_total = ep_split.intra + ep_split.inter;
  const double rs_bytes_total = ws.reduce_scatter_bytes;
  const bool tp_group_spans_nodes = ws.reduce_scatter_crosses_nodes;
  const double total_comm = ep_bytes_total + rs_bytes_total;

  ResetResult(result, timeline);
  result->comm_bytes = total_comm;

  const double tile_us =
      costs.gemm().TileTimeUs(k_depth, config.tile_m, config.tile_n);
  const int64_t panels = schedule.num_col_panels;
  const int64_t tiles = TileCount(schedule);

  if (config.vertical_fusion) {
    if (timeline != nullptr) {
      timeline->Reserve(static_cast<size_t>(tiles));
    }
    const double per_tile_comm =
        tiles == 0 ? 0.0
                   : total_comm / static_cast<double>(tiles) /
                         link.per_block_bandwidth_scattered_bytes_per_us;
    ws.slots.Reset(config.total_blocks, 0.0);
    IssueTiles(ws.slots, tiles, 0.0,
               tile_us * (1.0 + kVerticalFusionPenalty) + per_tile_comm,
               "l1-tile", OpCategory::kLayer1Comp, timeline);
    result->compute_makespan_us = ws.slots.makespan_us();
    result->comm_makespan_us = ws.slots.makespan_us();
    result->duration_us = ws.slots.makespan_us();
    result->stall_us = ws.slots.stall_us();
    return;
  }

  COMET_CHECK(total_comm == 0.0 || config.comm_blocks > 0)
      << "layer1 traffic but no communication blocks";

  if (timeline != nullptr) {
    timeline->Reserve(static_cast<size_t>(tiles + panels));
  }
  // Compute: all tiles ready at 0; order decides when panels complete, and
  // panel completion times gate the reduce + write/send of those columns.
  const int64_t n_runs = static_cast<int64_t>(schedule.runs.size());
  ws.slots.Reset(config.total_blocks - config.comm_blocks, 0.0);
  ws.panel_done.assign(static_cast<size_t>(panels), 0.0);
  if (schedule.panel_major) {
    for (int64_t p = 0; p < panels; ++p) {
      ws.panel_done[static_cast<size_t>(p)] =
          IssueTiles(ws.slots, n_runs, 0.0, tile_us, "l1-tile",
                     OpCategory::kLayer1Comp, timeline);
    }
  } else {
    for (int64_t i = 0; i < n_runs; ++i) {
      for (int64_t p = 0; p < panels; ++p) {
        double& done = ws.panel_done[static_cast<size_t>(p)];
        done = std::max(done, IssueTiles(ws.slots, 1, 0.0, tile_us, "l1-tile",
                                         OpCategory::kLayer1Comp, timeline));
      }
    }
  }
  result->compute_makespan_us = ws.slots.makespan_us();
  result->stall_us = ws.slots.stall_us();

  double comm_end = 0.0;
  if (total_comm > 0.0) {
    const LinkSpec& rs_link =
        tp_group_spans_nodes ? cluster.inter_link : cluster.link;
    const double per_block = HarmonicBlend(
        {{ep_split.intra, link.per_block_bandwidth_scattered_bytes_per_us},
         {ep_split.inter,
          cluster.inter_link.per_block_bandwidth_scattered_bytes_per_us},
         {rs_bytes_total, rs_link.per_block_bandwidth_bytes_per_us}},
        link.per_block_bandwidth_bytes_per_us);
    const double port = HarmonicBlend(
        {{ep_split.intra + (tp_group_spans_nodes ? 0.0 : rs_bytes_total),
          link.bandwidth_bytes_per_us},
         {ep_split.inter + (tp_group_spans_nodes ? rs_bytes_total : 0.0),
          cluster.inter_link.bandwidth_bytes_per_us}},
        link.bandwidth_bytes_per_us);
    const double bw =
        std::min(static_cast<double>(config.comm_blocks) * per_block, port);
    TierSplit latency_split;
    latency_split.inter =
        ep_split.inter + (tp_group_spans_nodes ? rs_bytes_total : 0.0);
    BandwidthQueue channel(bw, TierLatencyUs(latency_split, cluster));
    ws.jobs.clear();
    for (int64_t p = 0; p < panels; ++p) {
      const int64_t col_begin = p * config.tile_n;
      const int64_t col_end = std::min(col_begin + config.tile_n, n_embed);
      const double frac = static_cast<double>(col_end - col_begin) /
                          static_cast<double>(n_embed);
      ws.jobs.push_back(TransferJob{ws.panel_done[static_cast<size_t>(p)],
                                    total_comm * frac});
    }
    channel.ScheduleInto(ws.jobs, 0.0, &ws.transfers);
    for (const auto& s : ws.transfers) {
      comm_end = std::max(comm_end, s.end_us);
      if (timeline != nullptr) {
        timeline->Add("l1-send", OpCategory::kLayer1Comm, 1, s.start_us,
                      s.end_us);
      }
    }
  }
  result->comm_makespan_us = comm_end;
  result->duration_us = std::max(result->compute_makespan_us, comm_end);
}

void SimulateLayer1FusedInto(const RoutePlan& plan, int rank,
                             const OpCostModel& costs,
                             const FusedKernelConfig& config,
                             FusedKernelWorkspace& ws,
                             FusedKernelResult* result) {
  PrepareLayer1Fused(plan, rank, costs, config, ws);
  PriceLayer1Fused(plan, costs, config, ws, result, &result->timeline);
}

FusedKernelResult SimulateLayer1Fused(const RoutePlan& plan, int rank,
                                      const OpCostModel& costs,
                                      const FusedKernelConfig& config) {
  FusedKernelWorkspace ws;
  FusedKernelResult result;
  SimulateLayer1FusedInto(plan, rank, costs, config, ws, &result);
  return result;
}

}  // namespace comet
