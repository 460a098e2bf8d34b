#include "core/comet_executor.h"

#include <algorithm>
#include <optional>
#include <string>

#include "comm/symmetric_heap.h"
#include "core/fused_kernel.h"
#include "core/pipeline_ir.h"
#include "moe/group_gemm.h"
#include "runtime/rank_group.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace comet {
namespace {

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Sanity-checks the dependency analysis: layer0 decomposes along M in
// arrival order, layer1 along N panel-major (paper §3.1). The schedules rely
// on it, so a future operator change must trip loudly.
void CheckDecomposition(const Placement& placement) {
  const int64_t shared_rows =
      placement.total_tokens() * placement.model().topk;
  const int64_t n_embed = placement.model().embedding;
  const int64_t hidden = placement.HiddenPerTpRank();
  CheckOverlapPipeline(MoeLayer0Graph(shared_rows, n_embed, hidden),
                       DecomposeDim::kM, RescheduleHint::kArrivalOrder);
  CheckOverlapPipeline(MoeLayer1Graph(shared_rows, n_embed, hidden),
                       DecomposeDim::kN, RescheduleHint::kPanelMajor);
}

// Thread-local combine row buffer (the f32 staging row the canonical
// combine reduction reads contributions into). File-scope accessor so
// PrepareServing can warm it on every pool worker and rank thread before a
// zero-allocation window opens.
std::vector<float>& CombineRowBuf() {
  thread_local std::vector<float> buf;
  return buf;
}

}  // namespace

// Everything the executor reuses across Run and RunBatchInto calls. Every
// buffer grows to its high-water mark and is re-formatted per call;
// PrepareServing reserves them at the serving bound up front.
struct CometExecutor::Workspace {
  struct Rank {
    // Timing-plane scratch. Its layer0/layer1 schedules, built by this
    // call's simulation, are also the tile order the functional plane runs.
    FusedKernelWorkspace sim;
    FusedKernelResult l0;
    FusedKernelResult l1;
    double gate = 0.0;
    double act = 0.0;
    double total = 0.0;
    // Functional-plane tensors, one per local expert slice.
    std::vector<Tensor> a_in;
    std::vector<Tensor> h_mid;
    std::vector<Tensor> y_out;
    GroupGemmProblem problem0;
    GroupGemmProblem problem1;
  };
  std::vector<Rank> ranks;

  // The symmetric heap, allocated at the largest batch seen (or the serving
  // bound) and re-formatted per batch.
  std::optional<SymmetricHeap> heap;
  SymmetricBufferId in_buf = -1;
  SymmetricBufferId contrib_buf = -1;
  SymmetricBufferId contrib_sig = -1;
  // Bounds the heap was allocated for; a batch beyond them rebuilds it.
  int heap_world = 0;
  int64_t heap_group_tokens = 0;
  int64_t heap_topk = 0;
  int64_t heap_n_embed = 0;
  int64_t heap_hidden = 0;
  DType heap_dtype = DType::kF32;

  // Hot-expert replica weight slabs: one (W0, W1) buffer pair per replica
  // slot, allocated with the heap when max_replicated_experts > 0. Slab
  // CONTENTS persist across iterations (no per-batch ResizeRows); a promote
  // overwrites them, a retire merely marks the slot free. `slots` mirrors
  // the tracker's view so the weight fetch can assert plan and slab agree.
  struct ReplicaSlot {
    int64_t expert = -1;
    int ep_group = -1;
  };
  std::vector<SymmetricBufferId> w0_slab;
  std::vector<SymmetricBufferId> w1_slab;
  std::vector<ReplicaSlot> slots;

  // Parked rank threads of the functional plane.
  RankGroup group;

  // Memoized division points per batch token count (RunBatchInto only).
  struct NcMemoEntry {
    int64_t total_tokens = 0;
    int nc0 = 0;
    int nc1 = 0;
  };
  std::vector<NcMemoEntry> nc_memo;
};

FusedKernelConfig BaseFusedKernelConfig(const CometOptions& options,
                                        const ClusterSpec& cluster) {
  FusedKernelConfig base;
  base.total_blocks = cluster.gpu.num_sms;
  base.tile_m = options.tile_m;
  base.tile_n = options.tile_n;
  base.reschedule = options.reschedule;
  base.vertical_fusion = !options.specialized;
  return base;
}

DivisionPoints PickDivisionPoints(const CometOptions& options,
                                  const FusedKernelConfig& base,
                                  const RoutePlan& plan,
                                  const OpCostModel& costs,
                                  const AdaptiveAssigner& assigner) {
  int busiest = 0;
  for (int r = 1; r < plan.placement().world(); ++r) {
    if (plan.ForRank(r).TotalRows() > plan.ForRank(busiest).TotalRows()) {
      busiest = r;
    }
  }
  const auto pick = [&](MoePipelineStage stage) {
    if (base.vertical_fusion) {
      return 0;
    }
    if (!options.adaptive) {
      return std::min(options.fixed_comm_blocks, base.total_blocks - 1);
    }
    return assigner.SelectCommBlocks(stage, plan, busiest, costs, base,
                                     options.profile_cache);
  };
  return DivisionPoints{pick(MoePipelineStage::kLayer0),
                        pick(MoePipelineStage::kLayer1)};
}

CometExecutor::CometExecutor(CometOptions options)
    : options_(std::move(options)), ws_(std::make_unique<Workspace>()) {
  COMET_CHECK_GT(options_.tile_m, 0);
  COMET_CHECK_GT(options_.tile_n, 0);
  COMET_CHECK_GE(options_.fixed_comm_blocks, 0);
  COMET_CHECK_GT(options_.signal_wait_timeout_ms, 0);
  COMET_CHECK_GE(options_.max_replicated_experts, 0);
}

CometExecutor::~CometExecutor() = default;

CometExecutor::ServingHeapStats CometExecutor::serving_heap_stats() const {
  ServingHeapStats stats;
  if (ws_->heap.has_value()) {
    const SymmetricHeap& heap = *ws_->heap;
    stats.total_traffic_bytes = heap.TotalTraffic();
    stats.rows_verified = static_cast<uint64_t>(heap.rows_verified());
    stats.rows_corrupted = static_cast<uint64_t>(heap.rows_corrupted());
  }
  return stats;
}

std::string CometExecutor::name() const {
  std::string n = "Comet";
  if (!options_.reschedule) {
    n += "-noresched";
  }
  if (!options_.specialized) {
    n += "-vertical";
  }
  if (!options_.adaptive) {
    n += "-fixed";
  }
  return n;
}

bool CometExecutor::Supports(const ParallelConfig&) const { return true; }

LayerExecution CometExecutor::Run(const MoeWorkload& workload,
                                  const ClusterSpec& cluster, ExecMode mode) {
  LayerExecution out;
  RunInto(workload, cluster, mode, /*use_memo=*/false, out);
  return out;
}

void CometExecutor::RunBatchInto(const MoeWorkload& workload,
                                 const ClusterSpec& cluster, ExecMode mode,
                                 LayerExecution* out) {
  COMET_CHECK(out != nullptr);
  RunInto(workload, cluster, mode, /*use_memo=*/true, *out);
}

void CometExecutor::RunInto(const MoeWorkload& workload,
                            const ClusterSpec& cluster, ExecMode mode,
                            bool use_memo, LayerExecution& out) {
  COMET_CHECK_EQ(cluster.world_size, workload.world())
      << "cluster and workload world sizes disagree";
  // Caps every ParallelFor this run issues -- including the whole-matrix
  // Gemm/activation wrappers called indirectly -- so num_threads = 1 really
  // is the old serial behavior end to end.
  ScopedThreadLimit thread_limit(options_.num_threads);
  out.executor = name();
  RunTimedInto(workload, cluster, use_memo, out);
  if (mode == ExecMode::kFunctional) {
    RunFunctionalInto(workload, out);
  }
}

void CometExecutor::PrepareServing(const Placement& max_placement,
                                   const ClusterSpec& cluster) {
  COMET_CHECK_EQ(cluster.world_size, max_placement.world());
  // Resolve concurrency and warm thread-locals under the same thread limit
  // the iterations will install.
  ScopedThreadLimit thread_limit(options_.num_threads);

  Workspace& ws = *ws_;
  const int world = max_placement.world();
  const int64_t total_tokens = max_placement.total_tokens();
  const int64_t n_embed = max_placement.model().embedding;
  const int64_t hidden = max_placement.HiddenPerTpRank();
  const int64_t epg = max_placement.ExpertsPerGroup();
  const int ep = max_placement.parallel().ep;
  ws.nc_memo.clear();
  ws.nc_memo.reserve(64);

  // Per-rank workspaces at their analytic bounds. Worst-case rows per expert
  // is the whole batch (every token may pick the same expert); chunk/tile
  // counts follow from the tile geometry. These are over-approximations --
  // capacity is cheap, a mid-window realloc is not.
  const int64_t max_rows = total_tokens;
  // Every rank's plan carries epg home slices plus (with replication on)
  // max_replicated_experts replica slices -- always, active or not -- so all
  // per-slice workspaces size at the combined bound.
  const int64_t slices_max = epg + options_.max_replicated_experts;
  const int64_t chunks_max = slices_max * CeilDiv(max_rows, options_.tile_m);
  const int64_t col_tiles0 = CeilDiv(hidden, options_.tile_n);
  const int64_t col_tiles1 = CeilDiv(n_embed, options_.tile_n);
  const int64_t tiles_max = chunks_max * std::max(col_tiles0, col_tiles1);
  ws.ranks.resize(static_cast<size_t>(world));
  for (Workspace::Rank& rank : ws.ranks) {
    FusedKernelWorkspace& sim = rank.sim;
    sim.schedule_scratch.class_count.reserve(static_cast<size_t>(ep));
    sim.schedule_scratch.class_offset.reserve(static_cast<size_t>(ep));
    sim.schedule_scratch.runs_tmp.reserve(static_cast<size_t>(chunks_max));
    sim.layer0.row_order.resize(static_cast<size_t>(slices_max));
    for (auto& order : sim.layer0.row_order) {
      order.reserve(static_cast<size_t>(max_rows));
    }
    sim.layer0.runs.reserve(static_cast<size_t>(chunks_max));
    sim.layer1.runs.reserve(static_cast<size_t>(chunks_max));
    sim.run_intra.reserve(static_cast<size_t>(chunks_max));
    sim.run_inter.reserve(static_cast<size_t>(chunks_max));
    sim.run_arrival.reserve(static_cast<size_t>(chunks_max));
    sim.jobs.reserve(static_cast<size_t>(std::max(chunks_max, col_tiles1)));
    sim.job_runs.reserve(static_cast<size_t>(chunks_max));
    sim.transfers.reserve(
        static_cast<size_t>(std::max(chunks_max, col_tiles1)));
    sim.slots.Reset(cluster.gpu.num_sms, 0.0);
    sim.panel_done.reserve(static_cast<size_t>(col_tiles1));
    rank.l0.timeline.Reserve(static_cast<size_t>(tiles_max + chunks_max));
    rank.l1.timeline.Reserve(static_cast<size_t>(tiles_max + col_tiles1));
    rank.a_in.resize(static_cast<size_t>(slices_max));
    rank.h_mid.resize(static_cast<size_t>(slices_max));
    rank.y_out.resize(static_cast<size_t>(slices_max));
    for (size_t le = 0; le < static_cast<size_t>(slices_max); ++le) {
      rank.a_in[le].Reserve(max_rows * n_embed);
      rank.h_mid[le].Reserve(max_rows * hidden);
      rank.y_out[le].Reserve(max_rows * n_embed);
    }
    for (GroupGemmProblem* problem : {&rank.problem0, &rank.problem1}) {
      problem->a.reserve(static_cast<size_t>(slices_max));
      problem->b.reserve(static_cast<size_t>(slices_max));
      problem->c.reserve(static_cast<size_t>(slices_max));
    }
  }
  EnsureFunctionalCapacity(max_placement);

  // ---- warm thread-local scratch on every thread that can touch it ----------
  // Pool workers run GEMM tiles and row gathers; rank threads additionally
  // run them inline (nested regions execute on the caller) and stage combine
  // rows. Warm all three TLS buffers everywhere.
  const int64_t max_gemm_k = std::max(n_embed, hidden);
  const auto warm = [&](int) {
    WarmGemmScratch(max_gemm_k);
    // Wire scratch covers undispatch rows (n_embed) and replica-slab weight
    // rows (up to hidden), so warm at the wider bound.
    WarmHeapWireScratch(max_gemm_k);
    CombineRowBuf().reserve(static_cast<size_t>(n_embed));
  };
  GlobalThreadPool().ForEachWorker(warm);
  warm(0);  // the calling thread executes chunk 0 of every region
  ws.group.Configure(world, options_.num_threads);
  ws.group.Run(warm);
}

void CometExecutor::RunTimedInto(const MoeWorkload& workload,
                                 const ClusterSpec& cluster, bool use_memo,
                                 LayerExecution& out) {
  const OpCostModel costs(cluster);
  const Placement& placement = workload.placement;
  const RoutePlan& plan = workload.plan;
  const int world = placement.world();
  Workspace& ws = *ws_;

  const FusedKernelConfig base = BaseFusedKernelConfig(options_, cluster);

  // Division points. The serving memo is a flat lookup on M: every other
  // field of the profile key (cluster | model | TP | EP | stage) is fixed for
  // one serving executor.
  const Workspace::NcMemoEntry* memo_hit = nullptr;
  if (use_memo) {
    for (const Workspace::NcMemoEntry& e : ws.nc_memo) {
      if (e.total_tokens == placement.total_tokens()) {
        memo_hit = &e;
        break;
      }
    }
    // Telemetry only: these never feed back into any decision.
    ++(memo_hit != nullptr ? profile_memo_hits_ : profile_memo_misses_);
  }
  if (memo_hit != nullptr) {
    last_nc0_ = memo_hit->nc0;
    last_nc1_ = memo_hit->nc1;
  } else {
    // Every Run, and the first sight of each batch size in serving.
    CheckDecomposition(placement);
    const DivisionPoints nc =
        PickDivisionPoints(options_, base, plan, costs, assigner_);
    last_nc0_ = nc.layer0;
    last_nc1_ = nc.layer1;
    if (use_memo) {
      ws.nc_memo.push_back(Workspace::NcMemoEntry{placement.total_tokens(),
                                                  last_nc0_, last_nc1_});
    }
  }

  // Per-rank simulations are independent: fan them out across the pool and
  // reduce serially afterwards, so the simulated times and the critical-rank
  // timeline are identical at any thread count.
  ws.ranks.resize(static_cast<size_t>(world));
  ParallelFor(
      0, world, 1,
      [&](int64_t r) {
        Workspace::Rank& rank = ws.ranks[static_cast<size_t>(r)];
        FusedKernelConfig config0 = base;
        config0.comm_blocks = last_nc0_;
        FusedKernelConfig config1 = base;
        config1.comm_blocks = last_nc1_;
        PrepareLayer0Fused(plan, static_cast<int>(r), costs, config0,
                           rank.sim);
        PriceLayer0Fused(plan, costs, config0, rank.sim, &rank.l0,
                         &rank.l0.timeline);
        PrepareLayer1Fused(plan, static_cast<int>(r), costs, config1,
                           rank.sim);
        PriceLayer1Fused(plan, costs, config1, rank.sim, &rank.l1,
                         &rank.l1.timeline);
        rank.gate = costs.GatingUs(placement.tokens_per_group(),
                                   placement.model().embedding,
                                   placement.model().num_experts);
        rank.act = costs.ActivationUs(
            plan.ForRank(static_cast<int>(r)).TotalRows(),
            placement.HiddenPerTpRank());
        // One host launch each for: gating, fused layer0, activation, fused
        // layer1. This is the entire host-side footprint of a COMET MoE layer.
        const double launches = 4.0 * costs.LaunchUs();
        rank.total = launches + rank.gate + rank.l0.duration_us + rank.act +
                     rank.l1.duration_us;
      });

  out.per_rank_us.assign(static_cast<size_t>(world), 0.0);
  int worst_rank = 0;
  double worst = -1.0;
  for (int r = 0; r < world; ++r) {
    const double total = ws.ranks[static_cast<size_t>(r)].total;
    out.per_rank_us[static_cast<size_t>(r)] = total;
    if (total > worst) {
      worst = total;
      worst_rank = r;
    }
  }
  // Rebuild the critical rank's timeline in place: host+gate, fused l0,
  // act, fused l1 in sequence.
  const Workspace::Rank& critical = ws.ranks[static_cast<size_t>(worst_rank)];
  Timeline& tl = out.timeline;
  tl.Clear();
  double t = 0.0;
  tl.Add("launch", OpCategory::kHost, -1, t, t + 4.0 * costs.LaunchUs());
  t += 4.0 * costs.LaunchUs();
  tl.Add("gating", OpCategory::kGating, 0, t, t + critical.gate);
  t += critical.gate;
  tl.Merge(critical.l0.timeline, t);
  t += critical.l0.duration_us;
  tl.Add("activation", OpCategory::kActivation, 0, t, t + critical.act);
  t += critical.act;
  tl.Merge(critical.l1.timeline, t);
  out.duration_us = worst;
}

void CometExecutor::EnsureFunctionalCapacity(const Placement& placement) {
  Workspace& ws = *ws_;
  const int world = placement.world();
  const int64_t group_tokens = placement.tokens_per_group();
  const int64_t topk = placement.model().topk;
  const int64_t n_embed = placement.model().embedding;
  const int64_t hidden = placement.HiddenPerTpRank();
  const DType dtype = options_.compute_dtype;
  if (ws.heap.has_value() && ws.heap_world == world &&
      ws.heap_group_tokens >= group_tokens && ws.heap_topk == topk &&
      ws.heap_n_embed == n_embed && ws.heap_hidden == hidden &&
      ws.heap_dtype == dtype) {
    return;
  }
  ws.heap.emplace(world, HeapIntegrityOptions{options_.verify_transport,
                                              options_.corrupt_rate,
                                              options_.corrupt_seed});
  ws.in_buf =
      ws.heap->Allocate("moe-input", Shape{group_tokens, n_embed}, dtype);
  ws.contrib_buf = ws.heap->Allocate(
      "moe-contrib", Shape{group_tokens * topk, n_embed}, dtype);
  // One arrival signal per contrib row per rank: the undispatch puts bump
  // it, the combine waits on it -- the NVSHMEM put-with-signal discipline
  // the real fused kernels use to gate consumption on delivery. Signal
  // arrays cannot resize (atomics), so they are sized at the bound; a
  // smaller batch simply leaves the tail words untouched at zero.
  ws.contrib_sig =
      ws.heap->AllocateSignals("moe-contrib-ready", group_tokens * topk);
  // Replica weight slabs, one (W0, W1) pair per slot. A heap rebuild wipes
  // slab contents, so every slot resets to free -- the serving plane only
  // rebuilds in PrepareServing, before any promotion.
  ws.w0_slab.clear();
  ws.w1_slab.clear();
  ws.slots.clear();
  if (options_.max_replicated_experts > 0) {
    const size_t n_slots = static_cast<size_t>(options_.max_replicated_experts);
    ws.w0_slab.reserve(n_slots);
    ws.w1_slab.reserve(n_slots);
    for (size_t s = 0; s < n_slots; ++s) {
      ws.w0_slab.push_back(
          ws.heap->Allocate("replica-w0-slot" + std::to_string(s),
                            Shape{n_embed, hidden}, dtype));
      ws.w1_slab.push_back(
          ws.heap->Allocate("replica-w1-slot" + std::to_string(s),
                            Shape{hidden, n_embed}, dtype));
    }
    ws.slots.assign(n_slots, Workspace::ReplicaSlot{});
  }
  ws.heap_world = world;
  ws.heap_group_tokens = group_tokens;
  ws.heap_topk = topk;
  ws.heap_n_embed = n_embed;
  ws.heap_hidden = hidden;
  ws.heap_dtype = dtype;
}

void CometExecutor::RunFunctionalInto(const MoeWorkload& workload,
                                      LayerExecution& out) {
  COMET_CHECK(workload.weights != nullptr && !workload.inputs.empty())
      << "functional execution requires a materialized workload";
  const Placement& placement = workload.placement;
  const RoutePlan& plan = workload.plan;
  const ModelConfig& model = placement.model();
  const int world = placement.world();
  const int tp = placement.parallel().tp;
  const int ep = placement.parallel().ep;
  const int64_t n_embed = model.embedding;
  const int64_t hidden = placement.HiddenPerTpRank();
  const int64_t topk = model.topk;
  const int64_t group_tokens = placement.tokens_per_group();
  // The precision plane: heap buffers and every GEMM/activation intermediate
  // live at this dtype; stores round (RNE), accumulation stays f32. The
  // workload must have been materialized at the same dtype -- quantizing
  // here instead would silently diverge from the reference's operands.
  const DType dtype = options_.compute_dtype;
  COMET_CHECK(workload.inputs[0].dtype() == dtype)
      << "workload materialized at " << DTypeName(workload.inputs[0].dtype())
      << " but compute_dtype is " << DTypeName(dtype)
      << " (set WorkloadOptions::dtype to match)";

  // Restore the persistent heap to exactly the observable state a freshly
  // constructed heap of this batch's shape would have: integrity re-armed
  // (checksums, valid flags and injector put-counts all reset), buffers
  // re-formatted to the batch's row counts, every signal word zero, traffic
  // matrix clear.
  EnsureFunctionalCapacity(placement);
  Workspace& ws = *ws_;
  SymmetricHeap& heap = *ws.heap;
  heap.SetIntegrity(HeapIntegrityOptions{options_.verify_transport,
                                         options_.corrupt_rate,
                                         options_.corrupt_seed});
  heap.ResizeRows(ws.in_buf, group_tokens);
  heap.ResizeRows(ws.contrib_buf, group_tokens * topk);
  heap.ResetSignals(ws.contrib_sig);
  heap.ResetTraffic();
  const SymmetricBufferId in_buf = ws.in_buf;
  const SymmetricBufferId contrib_buf = ws.contrib_buf;
  const SymmetricBufferId contrib_sig = ws.contrib_sig;

  for (int r = 0; r < world; ++r) {
    heap.Local(in_buf, r) =
        workload.inputs[static_cast<size_t>(placement.EpGroupOfRank(r))];
  }

  // --- layer0 + activation + layer1, per rank, in the rescheduled order ---
  //
  // Each rank is one rank-group task. In concurrent mode every rank runs on
  // its own (parked, persistent) thread, exchanging real rows through the
  // heap while peers are still computing -- the put-with-signal traffic
  // below is then genuine cross-thread synchronization, not an
  // after-the-fact assertion.
  const auto produce = [&](int r) {
    const int group = placement.EpGroupOfRank(r);
    const int lane = placement.TpLaneOfRank(r);
    const RankPlan& rank_plan = plan.ForRank(r);
    Workspace::Rank& rs = ws.ranks[static_cast<size_t>(r)];

    // Weight operand for local slice `le`: home slices read the sharded
    // store; replica slices (index >= epg) read this rank's slab copy,
    // placed there by PromoteReplica. An inactive replica slice has zero
    // rows -- its operand is never touched by any tile -- so any valid
    // tensor stands in. The const Local read does not disturb transport
    // checksums (only writers invalidate).
    const int64_t epg = placement.ExpertsPerGroup();
    const auto weight_for = [&](size_t le, bool layer0) -> const Tensor* {
      const int64_t expert = rank_plan.experts[le].expert;
      if (static_cast<int64_t>(le) < epg) {
        return layer0 ? &workload.sharded_weights->W0Shard(expert, lane)
                      : &workload.sharded_weights->W1Shard(expert, lane);
      }
      if (expert < 0) {
        return layer0 ? &workload.sharded_weights->W0Shard(0, lane)
                      : &workload.sharded_weights->W1Shard(0, lane);
      }
      const size_t slot = le - static_cast<size_t>(epg);
      COMET_CHECK_LT(slot, ws.slots.size())
          << "plan has replica slices but the executor was not configured "
             "with max_replicated_experts";
      COMET_CHECK_EQ(ws.slots[slot].expert, expert)
          << "replica slot " << slot << " holds a different expert's weights";
      COMET_CHECK_EQ(ws.slots[slot].ep_group, group)
          << "replica slot " << slot << " promoted onto a different group";
      const SymmetricHeap& cheap = heap;
      return layer0 ? &cheap.Local(ws.w0_slab[slot], r)
                    : &cheap.Local(ws.w1_slab[slot], r);
    };

    // The timing plane built this rank's schedules for this very batch.
    const Layer0Schedule& schedule0 = rs.sim.layer0;
    const Layer1Schedule& schedule1 = rs.sim.layer1;

    // Materialize the layer0 shared tensor per expert with rows in the
    // permuted layout; remote rows travel through the symmetric heap. Rows
    // land in disjoint destination slots, so the gather fans out per row.
    // Workspace tensors are re-formatted in place; every row of every
    // intermediate is fully written below (gather -> GEMM tiles ->
    // activation), so stale contents never survive into a result.
    const size_t n_experts = rank_plan.experts.size();
    rs.a_in.resize(n_experts);
    rs.h_mid.resize(n_experts);
    rs.y_out.resize(n_experts);
    for (size_t le = 0; le < n_experts; ++le) {
      const auto& slice = rank_plan.experts[le];
      const auto& order = schedule0.row_order[le];
      const int64_t rows = static_cast<int64_t>(slice.rows.size());
      Tensor& a = rs.a_in[le];
      a.ResetFormat2D(rows, n_embed, dtype);
      ParallelFor(
          0, static_cast<int64_t>(order.size()), 8,
          [&](int64_t pos) {
            const ExpertRow& row =
                slice.rows[static_cast<size_t>(order[static_cast<size_t>(pos)])];
            const int64_t src_local =
                row.token - placement.FirstTokenOfGroup(row.source_group);
            heap.CopyRow(in_buf, r,
                         placement.RankOf(row.source_group, lane), src_local,
                         a.row(pos));
          });
      rs.h_mid[le].ResetFormat2D(rows, hidden, dtype);
      rs.y_out[le].ResetFormat2D(rows, n_embed, dtype);
    }

    GroupGemmProblem& problem0 = rs.problem0;
    problem0.a.clear();
    problem0.b.clear();
    problem0.c.clear();
    for (size_t le = 0; le < n_experts; ++le) {
      problem0.a.push_back(&rs.a_in[le]);
      problem0.b.push_back(weight_for(le, /*layer0=*/true));
      problem0.c.push_back(&rs.h_mid[le]);
    }
    // Tiles write disjoint output patches: dispatch them across the pool in
    // any completion order without changing a single bit of the result.
    ParallelFor(
        0, TileCount(schedule0), 1,
        [&](int64_t t) {
          const TileRef tile = TileAt(schedule0, t);
          RunTile(problem0, GemmTileCoord{tile.expert_local, tile.row_begin,
                                          tile.row_end, tile.col_begin,
                                          tile.col_end});
        });
    for (auto& h : rs.h_mid) {
      ApplyActivation(h, workload.activation);
    }

    GroupGemmProblem& problem1 = rs.problem1;
    problem1.a.clear();
    problem1.b.clear();
    problem1.c.clear();
    for (size_t le = 0; le < n_experts; ++le) {
      problem1.a.push_back(&rs.h_mid[le]);
      problem1.b.push_back(weight_for(le, /*layer0=*/false));
      problem1.c.push_back(&rs.y_out[le]);
    }
    ParallelFor(
        0, TileCount(schedule1), 1,
        [&](int64_t t) {
          const TileRef tile = TileAt(schedule1, t);
          RunTile(problem1, GemmTileCoord{tile.expert_local, tile.row_begin,
                                          tile.row_end, tile.col_begin,
                                          tile.col_end});
        });

    // Top-k undispatch: every partial output row returns (lane-matched) to
    // the token's home group, unweighted; weights are applied at the
    // canonical combine below. Each (token, slot) pair owns its destination
    // row and signal word, so the scatter parallelizes per row.
    for (size_t le = 0; le < n_experts; ++le) {
      const auto& slice = rank_plan.experts[le];
      const auto& order = schedule0.row_order[le];
      ParallelFor(
          0, static_cast<int64_t>(order.size()), 8,
          [&](int64_t pos) {
            const ExpertRow& row =
                slice.rows[static_cast<size_t>(order[static_cast<size_t>(pos)])];
            const int dst = placement.RankOf(row.source_group, lane);
            const int64_t dst_row =
                (row.token - placement.FirstTokenOfGroup(row.source_group)) *
                    topk +
                row.slot;
            heap.PutRowWithSignal(contrib_buf, r, dst, dst_row,
                                  rs.y_out[le].row(pos), contrib_sig, dst_row);
          });
    }
  };

  // --- combine: canonical reduction (slot-major, TP-lane inner) on lane 0 ---
  //
  // The consume stage of each group's lane-0 rank. It first blocks on the
  // arrival signal of every expected contribution (the NVSHMEM wait_until
  // loop of the real combine kernel -- in concurrent mode producers on peer
  // threads are still streaming rows in), then reduces. The reduction order
  // is a pure function of (token, slot, lane), never of arrival order, so
  // serial, concurrent and any-thread-count runs are bit-identical.
  out.outputs.resize(static_cast<size_t>(ep));
  const auto consume = [&](int r) {
    if (placement.TpLaneOfRank(r) != 0) {
      return;
    }
    const int g = placement.EpGroupOfRank(r);
    const int reader = r;
    const int64_t first = placement.FirstTokenOfGroup(g);
    // Wait for delivery. Blocking waits stay on this rank's dedicated
    // thread -- they must never ride pool workers, or spinning consumers
    // could starve the producers' tile chunks out of the pool.
    for (int64_t t = 0; t < group_tokens; ++t) {
      const TokenRoute& route =
          workload.routing.tokens[static_cast<size_t>(first + t)];
      const int64_t slots = static_cast<int64_t>(route.experts.size());
      for (int64_t k = 0; k < slots; ++k) {
        for (int l = 0; l < tp; ++l) {
          heap.WaitUntilSignalGe(contrib_sig, placement.RankOf(g, l),
                                 t * topk + k, 1,
                                 options_.signal_wait_timeout_ms);
        }
      }
    }
    Tensor& result = out.outputs[static_cast<size_t>(g)];
    result.ResetFormat2D(group_tokens, n_embed, dtype);
    // Tokens reduce independently (one output row each); the slot-major,
    // TP-lane-inner order within a token is preserved inside the body.
    ParallelFor(
        0, group_tokens, 4,
        [&](int64_t t) {
          std::vector<float>& row_buf = CombineRowBuf();
          row_buf.resize(static_cast<size_t>(n_embed));
          // Accumulation starts from an explicitly zeroed row (the workspace
          // tensor carries the previous batch's bits).
          result.FillZeroRows(t, t + 1);
          const TokenRoute& route =
              workload.routing.tokens[static_cast<size_t>(first + t)];
          // Routes may carry fewer than topk entries (capacity-dropped
          // pairs); only written slots are consumed.
          const int64_t slots = static_cast<int64_t>(route.experts.size());
          for (int64_t k = 0; k < slots; ++k) {
            for (int l = 0; l < tp; ++l) {
              heap.WaitSignalGe(contrib_sig, placement.RankOf(g, l),
                                t * topk + k, 1);
              heap.CopyRow(contrib_buf, reader, placement.RankOf(g, l),
                           t * topk + k, row_buf);
              result.AccumulateRow(t, row_buf,
                                   route.weights[static_cast<size_t>(k)]);
            }
          }
          // f32 accumulation above, one rounding on store -- mirrors the
          // sharded reference's per-row output rounding exactly.
          result.QuantizeRow(t);
        });
  };

  // Configure resolves concurrency against the ambient thread limit; with an
  // unchanged shape it is an allocation-free no-op, so steady-state
  // iterations reuse the parked rank threads.
  ws.group.Configure(world, options_.num_threads);
  ws.group.Run(produce, consume);
}

void CometExecutor::PromoteReplica(int slot, int64_t expert, int ep_group,
                                   const Placement& placement,
                                   const ShardedExpertWeights& weights) {
  Workspace& ws = *ws_;
  COMET_CHECK(ws.heap.has_value())
      << "PromoteReplica requires a heap: call PrepareServing first";
  COMET_CHECK_GE(slot, 0);
  COMET_CHECK_LT(slot, static_cast<int>(ws.slots.size()))
      << "replica slot beyond max_replicated_experts";
  Workspace::ReplicaSlot& state = ws.slots[static_cast<size_t>(slot)];
  COMET_CHECK_LT(state.expert, 0) << "replica slot " << slot << " is busy";
  COMET_CHECK_GE(expert, 0);
  COMET_CHECK_LT(expert, placement.model().num_experts);
  const int home = placement.EpGroupOfExpert(expert);
  COMET_CHECK_GE(ep_group, 0);
  COMET_CHECK_LT(ep_group, placement.parallel().ep);
  COMET_CHECK_NE(ep_group, home)
      << "replica of expert " << expert << " placed on its home group";
  SymmetricHeap& heap = *ws.heap;
  const SymmetricHeap& cheap = heap;  // const reads leave checksums intact
  const SymmetricBufferId b0 = ws.w0_slab[static_cast<size_t>(slot)];
  const SymmetricBufferId b1 = ws.w1_slab[static_cast<size_t>(slot)];
  // Lane-matched weight transfer: each target-group lane receives the
  // expert's shard for its lane from the matching home rank, row by row
  // over the symmetric heap (counted as fabric traffic like any other put).
  // PutRow rounds to the slab dtype -- the identity on already-quantized
  // shards -- so replica math runs on bit-identical operands.
  const int tp = placement.parallel().tp;
  for (int lane = 0; lane < tp; ++lane) {
    const int src = placement.RankOf(home, lane);
    const int dst = placement.RankOf(ep_group, lane);
    const Tensor& w0 = weights.W0Shard(expert, lane);
    const Tensor& w1 = weights.W1Shard(expert, lane);
    COMET_CHECK_EQ(w0.rows(), cheap.Local(b0, dst).rows());
    COMET_CHECK_EQ(w0.cols(), cheap.Local(b0, dst).cols());
    COMET_CHECK_EQ(w1.rows(), cheap.Local(b1, dst).rows());
    COMET_CHECK_EQ(w1.cols(), cheap.Local(b1, dst).cols());
    for (int64_t i = 0; i < w0.rows(); ++i) {
      heap.PutRow(b0, src, dst, i, w0.row(i));
    }
    for (int64_t i = 0; i < w1.rows(); ++i) {
      heap.PutRow(b1, src, dst, i, w1.row(i));
    }
  }
  state.expert = expert;
  state.ep_group = ep_group;
}

void CometExecutor::RetireReplica(int slot) {
  Workspace& ws = *ws_;
  COMET_CHECK_GE(slot, 0);
  COMET_CHECK_LT(slot, static_cast<int>(ws.slots.size()))
      << "replica slot beyond max_replicated_experts";
  Workspace::ReplicaSlot& state = ws.slots[static_cast<size_t>(slot)];
  COMET_CHECK_GE(state.expert, 0)
      << "replica slot " << slot << " is already free";
  state = Workspace::ReplicaSlot{};
}

void CometExecutor::InvalidateBatchProfiles() {
  ws_->nc_memo.clear();
}

}  // namespace comet
