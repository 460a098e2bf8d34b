#include "core/comet_backward.h"

#include <algorithm>

#include "comm/collectives.h"
#include "comm/symmetric_heap.h"
#include "core/fused_kernel.h"
#include "core/pipeline_ir.h"
#include "core/reschedule.h"
#include "moe/group_gemm.h"
#include "runtime/rank_group.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace comet {
namespace {

// Wgrad GroupGEMM time: per-expert shapes share output dims but differ in
// reduction depth (k = m_e rows), so GroupTimeUs' shared-k contract does not
// apply. Pool the tiles with their per-group tile times across the SMs; the
// wave-quantization error this ignores is second-order for wgrad (output is
// weight-shaped, tiles are few and uniform).
double WgradTimeUs(const OpCostModel& costs, int64_t out_rows,
                   int64_t out_cols, const std::vector<int64_t>& depths,
                   int sms) {
  const auto& gemm = costs.gemm();
  const int64_t tiles_per_expert =
      ((out_rows + gemm.tile_m() - 1) / gemm.tile_m()) *
      ((out_cols + gemm.tile_n() - 1) / gemm.tile_n());
  double slot_us = 0.0;
  for (const int64_t depth : depths) {
    if (depth > 0) {
      slot_us += static_cast<double>(tiles_per_expert) * gemm.TileTimeUs(depth);
    }
  }
  return slot_us / static_cast<double>(sms);
}

std::vector<int64_t> RowDepths(const RankPlan& plan) {
  std::vector<int64_t> depths;
  depths.reserve(plan.experts.size());
  for (const auto& slice : plan.experts) {
    depths.push_back(static_cast<int64_t>(slice.rows.size()));
  }
  return depths;
}

// Backward of the TP output reduce-scatter: each lane all-gathers the dout
// shards so every lane holds full dout rows. Zero when tp == 1.
double DoutAllGatherUs(const MoeWorkload& w, const OpCostModel& costs) {
  const int tp = w.placement.parallel().tp;
  if (tp <= 1) {
    return 0.0;
  }
  const double shard_bytes = static_cast<double>(w.placement.tokens_per_group()) *
                             static_cast<double>(w.model().embedding) *
                             costs.bytes_per_element() / tp;
  return RingAllGatherCostUs(costs.cluster(), shard_bytes);
}

// ---- functional plane -------------------------------------------------------

// Executes the real backward math on every rank in the (re)scheduled tile
// order, through the symmetric heap. Must match ShardedReferenceMoeBackward
// bit-exactly; see header for the reduction-order argument.
MoeGradients FunctionalBackward(const MoeWorkload& w,
                                const std::vector<Tensor>& dout,
                                const CometOptions& options) {
  COMET_CHECK(w.sharded_weights != nullptr && !w.inputs.empty())
      << "functional backward requires a materialized workload";
  const Placement& placement = w.placement;
  const RoutePlan& plan = w.plan;
  const ModelConfig& model = placement.model();
  const int world = placement.world();
  const int ep = placement.parallel().ep;
  const int64_t n_embed = model.embedding;
  const int64_t hidden = placement.HiddenPerTpRank();
  const int64_t topk = model.topk;
  const int64_t group_tokens = placement.tokens_per_group();
  // Precision plane (see CometOptions::compute_dtype): heap buffers and
  // activation-path intermediates at `dtype`, f32 accumulation, RNE store
  // rounding at exactly the points ShardedReferenceMoeBackward rounds.
  // Weight gradients and dgate stay f32 (main grads).
  const DType dtype = options.compute_dtype;
  COMET_CHECK(w.inputs[0].dtype() == dtype)
      << "workload materialized at " << DTypeName(w.inputs[0].dtype())
      << " but compute_dtype is " << DTypeName(dtype)
      << " (set WorkloadOptions::dtype to match)";

  COMET_CHECK_EQ(static_cast<int>(dout.size()), ep);
  for (const Tensor& t : dout) {
    COMET_CHECK_EQ(t.rows(), group_tokens);
    COMET_CHECK_EQ(t.cols(), n_embed);
  }

  MoeGradients grads;
  for (int g = 0; g < ep; ++g) {
    grads.dinput.emplace_back(Shape{group_tokens, n_embed});
  }
  for (int64_t e = 0; e < model.num_experts; ++e) {
    grads.dw0.emplace_back(Shape{n_embed, model.ffn_hidden});
    grads.dw1.emplace_back(Shape{model.ffn_hidden, n_embed});
  }
  grads.dgate = Tensor(Shape{placement.total_tokens(), topk});

  SymmetricHeap heap(world);
  const SymmetricBufferId in_buf =
      heap.Allocate("bwd-input", Shape{group_tokens, n_embed}, dtype);
  const SymmetricBufferId dout_buf =
      heap.Allocate("bwd-dout", Shape{group_tokens, n_embed}, dtype);
  const SymmetricBufferId dcontrib_buf =
      heap.Allocate("bwd-dcontrib", Shape{group_tokens * topk, n_embed}, dtype);
  const SymmetricBufferId dcontrib_sig =
      heap.AllocateSignals("bwd-dcontrib-ready", group_tokens * topk);
  for (int r = 0; r < world; ++r) {
    const int g = placement.EpGroupOfRank(r);
    heap.Local(in_buf, r) = w.inputs[static_cast<size_t>(g)];
    heap.Local(dout_buf, r) = dout[static_cast<size_t>(g)];
  }

  // dgate contributions land per (token, slot) from every TP lane of the
  // owning group. Concurrent ranks must not share that accumulator: each
  // rank writes its own partial, reduced rank-ascending after the group
  // finishes -- rank order within a group IS lane order, so the reduction
  // tree is exactly the sharded reference's lane-ascending one.
  std::vector<Tensor> dgate_partial;
  dgate_partial.reserve(static_cast<size_t>(world));
  for (int r = 0; r < world; ++r) {
    dgate_partial.emplace_back(Shape{placement.total_tokens(), topk});
  }

  // Each rank is one RankGroup task (see runtime/rank_group.h): concurrent
  // mode overlaps all rank pipelines, with the undispatch puts below acting
  // as real cross-thread signals for the dinput reduction.
  const auto produce = [&](int r) {
    const int group = placement.EpGroupOfRank(r);
    const int lane = placement.TpLaneOfRank(r);
    const RankPlan& rank_plan = plan.ForRank(r);
    const size_t num_local = rank_plan.experts.size();

    // Kernel A's schedule: dY rows sorted by source, dgrad1 tiles in
    // arrival order (out width = K/TP). The same row permutation reorders
    // the forward-stash rows so the per-row pairing is preserved.
    const Layer0Schedule schedule_a =
        BuildLayer0Schedule(rank_plan, group, ep, hidden, options.tile_m,
                            options.tile_n, options.reschedule);

    // Gather the permuted dY (through the heap: the grad dispatch) and the
    // permuted forward inputs A (stashed by the forward on this rank).
    std::vector<Tensor> dy(num_local), a_in(num_local);
    for (size_t le = 0; le < num_local; ++le) {
      const int64_t rows =
          static_cast<int64_t>(rank_plan.experts[le].rows.size());
      dy[le] = Tensor(Shape{rows, n_embed}, dtype);
      a_in[le] = Tensor(Shape{rows, n_embed}, dtype);
    }
    GatherRowsFromHome(heap, dout_buf, plan, r, schedule_a.row_order, dy);
    GatherRowsFromHome(heap, in_buf, plan, r, schedule_a.row_order, a_in);
    // dY = weight * dout, rounded on store (it feeds the 2-byte dgrad
    // pipeline) -- the same per-element point WeightedDout rounds at.
    for (size_t le = 0; le < num_local; ++le) {
      const auto& slice = rank_plan.experts[le];
      const auto& order = schedule_a.row_order[le];
      ParallelFor(
          0, static_cast<int64_t>(order.size()), 8,
          [&](int64_t pos) {
            const float weight =
                slice.rows[static_cast<size_t>(order[static_cast<size_t>(pos)])]
                    .weight;
            auto dst = dy[le].row(pos);
            for (float& v : dst) {
              v = weight * v;
            }
            QuantizeSpan(dst, dtype);
          });
    }

    // Recompute the forward stash (h_pre, h_post, y) in the permuted order;
    // per-element values are schedule-independent.
    std::vector<Tensor> h_pre(num_local), h_post(num_local), y(num_local);
    for (size_t le = 0; le < num_local; ++le) {
      const int64_t rows = a_in[le].rows();
      const int64_t expert = rank_plan.experts[le].expert;
      h_pre[le] = Tensor(Shape{rows, hidden}, dtype);
      Gemm(a_in[le], w.sharded_weights->W0Shard(expert, lane), h_pre[le]);
      h_post[le] = h_pre[le];
      ApplyActivation(h_post[le], w.activation);
      y[le] = Tensor(Shape{rows, n_embed}, dtype);
      Gemm(h_post[le], w.sharded_weights->W1Shard(expert, lane), y[le]);
    }

    // dgate: local dots accumulated lane-ascending (rank order guarantees
    // it) -- the canonical all-reduce order of the sharded reference.
    std::vector<float> gr(static_cast<size_t>(n_embed));
    for (size_t le = 0; le < num_local; ++le) {
      const auto& slice = rank_plan.experts[le];
      const auto& order = schedule_a.row_order[le];
      for (size_t pos = 0; pos < order.size(); ++pos) {
        const ExpertRow& row = slice.rows[static_cast<size_t>(order[pos])];
        const int src = placement.RankOf(row.source_group, lane);
        const int64_t src_local =
            row.token - placement.FirstTokenOfGroup(row.source_group);
        heap.CopyRow(dout_buf, r, src, src_local, gr);
        const auto yr = y[le].row(static_cast<int64_t>(pos));
        float acc = 0.0f;
        for (size_t c = 0; c < yr.size(); ++c) {
          acc += gr[c] * yr[c];
        }
        dgate_partial[static_cast<size_t>(r)].at({row.token, row.slot}) += acc;
      }
    }

    // Kernel A compute: dZ = dY W1shard^T, tile-by-tile in arrival order,
    // activation backward fused into each tile's epilogue.
    std::vector<Tensor> dz(num_local);
    for (size_t le = 0; le < num_local; ++le) {
      dz[le] = Tensor(Shape{dy[le].rows(), hidden}, dtype);
    }
    // Tiles write disjoint dz patches (activation backward included), so
    // the pool can run them in any completion order.
    ParallelFor(
        0, TileCount(schedule_a), 1,
        [&](int64_t t) {
          const TileRef tile = TileAt(schedule_a, t);
          const size_t le = static_cast<size_t>(tile.expert_local);
          const int64_t expert = rank_plan.experts[le].expert;
          GemmNTTile(dy[le], w.sharded_weights->W1Shard(expert, lane), dz[le],
                     tile.row_begin, tile.row_end, tile.col_begin,
                     tile.col_end);
          ApplyActivationGradTile(dz[le], h_pre[le], w.activation,
                                  tile.row_begin, tile.row_end, tile.col_begin,
                                  tile.col_end);
        });

    // Wgrad over canonical row order: scatter the permuted rows back so the
    // row reduction of GemmTN never sees the schedule's permutation.
    for (size_t le = 0; le < num_local; ++le) {
      const auto& slice = rank_plan.experts[le];
      const auto& order = schedule_a.row_order[le];
      const int64_t rows = static_cast<int64_t>(slice.rows.size());
      const int64_t expert = rank_plan.experts[le].expert;
      Tensor dy_canon(Shape{rows, n_embed}), dz_canon(Shape{rows, hidden});
      Tensor a_canon(Shape{rows, n_embed}), h_canon(Shape{rows, hidden});
      for (size_t pos = 0; pos < order.size(); ++pos) {
        const int64_t canon = order[pos];
        dy_canon.SetRow(canon, dy[le].row(static_cast<int64_t>(pos)));
        dz_canon.SetRow(canon, dz[le].row(static_cast<int64_t>(pos)));
        a_canon.SetRow(canon, a_in[le].row(static_cast<int64_t>(pos)));
        h_canon.SetRow(canon, h_post[le].row(static_cast<int64_t>(pos)));
      }
      if (rows == 0) {
        continue;
      }
      // dW1 shard -> row block `lane`; dW0 shard -> column block `lane`.
      Tensor dw1_shard(Shape{hidden, n_embed});
      GemmTN(h_canon, dy_canon, dw1_shard);
      for (int64_t row = 0; row < hidden; ++row) {
        grads.dw1[static_cast<size_t>(expert)].SetRow(lane * hidden + row,
                                                      dw1_shard.row(row));
      }
      Tensor dw0_shard(Shape{n_embed, hidden});
      GemmTN(a_canon, dz_canon, dw0_shard);
      Tensor& dw0 = grads.dw0[static_cast<size_t>(expert)];
      for (int64_t row = 0; row < n_embed; ++row) {
        auto dst = dw0.row(row);
        const auto src = dw0_shard.row(row);
        std::copy(src.begin(), src.end(),
                  dst.begin() + static_cast<size_t>(lane * hidden));
      }
    }

    // Kernel B: dA = dH W0shard^T column-panel-major; partial rows stream
    // home through the heap as each panel completes.
    const Layer1Schedule schedule_b =
        BuildLayer1Schedule(rank_plan, n_embed, options.tile_m,
                            options.tile_n, options.reschedule);
    std::vector<Tensor> da(num_local);
    for (size_t le = 0; le < num_local; ++le) {
      da[le] = Tensor(Shape{dz[le].rows(), n_embed}, dtype);
    }
    ParallelFor(
        0, TileCount(schedule_b), 1,
        [&](int64_t t) {
          const TileRef tile = TileAt(schedule_b, t);
          const size_t le = static_cast<size_t>(tile.expert_local);
          const int64_t expert = rank_plan.experts[le].expert;
          GemmNTTile(dz[le], w.sharded_weights->W0Shard(expert, lane), da[le],
                     tile.row_begin, tile.row_end, tile.col_begin,
                     tile.col_end);
        });
    PutRowsHome(heap, dcontrib_buf, dcontrib_sig, plan, r,
                schedule_a.row_order, da);
  };

  // Undispatch reduction at each group's lane-0 rank: the unweighted
  // canonical combine into dinput, blocking on every expected dA
  // contribution (live producers in concurrent mode).
  const auto consume = [&](int r) {
    if (placement.TpLaneOfRank(r) == 0) {
      CombineRowsAtHome(
          heap, dcontrib_buf, dcontrib_sig, placement, w.routing, r,
          /*weighted=*/false, dtype, options.signal_wait_timeout_ms,
          grads.dinput[static_cast<size_t>(placement.EpGroupOfRank(r))]);
    }
  };

  RankGroup group;
  group.Configure(world, options.num_threads);
  group.Run(produce, consume);

  // Rank-ascending dgate reduce (lane-ascending inside each owner group;
  // ranks outside a pair's owner group contribute exact zeros).
  for (int r = 0; r < world; ++r) {
    const auto src = dgate_partial[static_cast<size_t>(r)].data();
    auto dst = grads.dgate.data();
    for (size_t i = 0; i < dst.size(); ++i) {
      dst[i] += src[i];
    }
  }
  return grads;
}

}  // namespace

BackwardExecution CometBackward(const MoeWorkload& workload,
                                const ClusterSpec& cluster,
                                const std::vector<Tensor>& dout, ExecMode mode,
                                const CometOptions& options) {
  COMET_CHECK_EQ(cluster.world_size, workload.world());
  // As in the forward executor: cap every ParallelFor of this run (tile
  // loops AND the nested whole-matrix Gemm/activation wrappers) so
  // num_threads = 1 restores fully serial execution.
  ScopedThreadLimit thread_limit(options.num_threads);
  const OpCostModel costs(cluster);
  const Placement& placement = workload.placement;
  const RoutePlan& plan = workload.plan;
  const int world = placement.world();
  const int64_t hidden = placement.HiddenPerTpRank();
  const int64_t n_embed = placement.model().embedding;

  // Sanity-check the mirror argument through the dependency-resolving IR:
  // kernel A must decompose along M in arrival order, kernel B along N
  // panel-major -- exactly the forward pipelines' conclusions.
  const int64_t shared_rows =
      placement.total_tokens() * placement.model().topk;
  CheckOverlapPipeline(MoeBackwardKernelAGraph(shared_rows, n_embed, hidden),
                       DecomposeDim::kM, RescheduleHint::kArrivalOrder);
  CheckOverlapPipeline(MoeBackwardKernelBGraph(shared_rows, n_embed, hidden),
                       DecomposeDim::kN, RescheduleHint::kPanelMajor);

  BackwardExecution out;
  out.executor = "Comet-bwd";

  // Division points: kernel A mirrors forward layer0, kernel B layer1.
  const FusedKernelConfig base = BaseFusedKernelConfig(options, cluster);
  const DivisionPoints nc =
      PickDivisionPoints(options, base, plan, costs, AdaptiveAssigner());

  const double ag_us = DoutAllGatherUs(workload, costs);

  // Per-rank backward simulations are independent; fan out, reduce serially
  // (identical numbers at any thread count).
  struct RankSim {
    FusedKernelResult ka;
    FusedKernelResult kb;
    double act = 0.0;
    double wgrad0 = 0.0;
    double wgrad1 = 0.0;
    double total = 0.0;
  };
  std::vector<RankSim> sims(static_cast<size_t>(world));
  ParallelFor(
      0, world, 1,
      [&](int64_t ri) {
        const int r = static_cast<int>(ri);
        RankSim& sim = sims[static_cast<size_t>(r)];
        FusedKernelConfig config_a = base;
        config_a.comm_blocks = nc.layer0;
        FusedKernelConfig config_b = base;
        config_b.comm_blocks = nc.layer1;

        // Kernel A mirrors forward layer0 (same row width N, same GEMM
        // output width K/TP); kernel B mirrors forward layer1.
        sim.ka = SimulateLayer0Fused(plan, r, costs, config_a);
        sim.kb = SimulateLayer1Fused(plan, r, costs, config_b);

        const std::vector<int64_t> depths = RowDepths(plan.ForRank(r));
        const int np_b = base.total_blocks - nc.layer1;
        sim.wgrad1 =
            WgradTimeUs(costs, hidden, n_embed, depths, base.total_blocks);
        sim.wgrad0 = WgradTimeUs(costs, n_embed, hidden, depths, np_b);
        sim.act = costs.ActivationUs(plan.ForRank(r).TotalRows(), hidden);

        // dW0 needs only dH, so it runs on kernel B's compute blocks while
        // the undispatch traffic drains: kernel B + wgrad0 cost
        // max(comm_end, compute_end + wgrad0) instead of duration + wgrad0.
        const double kb_with_wgrad0 = std::max(
            sim.kb.comm_makespan_us, sim.kb.compute_makespan_us + sim.wgrad0);
        // Host launches: kernel A, wgrad1, kernel B(+wgrad0 fused).
        // Activation backward runs in kernel A's tile epilogues (charged,
        // not launched).
        const double launches = 3.0 * costs.LaunchUs();
        sim.total = launches + ag_us + sim.ka.duration_us + sim.act +
                    sim.wgrad1 + kb_with_wgrad0;
      });

  out.per_rank_us.assign(static_cast<size_t>(world), 0.0);
  double worst = -1.0;
  for (int r = 0; r < world; ++r) {
    const RankSim& sim = sims[static_cast<size_t>(r)];
    out.per_rank_us[static_cast<size_t>(r)] = sim.total;
    if (sim.total > worst) {
      worst = sim.total;
      const double launches = 3.0 * costs.LaunchUs();
      Timeline tl;
      double t = 0.0;
      tl.Add("launch", OpCategory::kHost, -1, t, t + launches);
      t += launches;
      if (ag_us > 0.0) {
        tl.Add("dout-allgather", OpCategory::kLayer1Comm, 1, t, t + ag_us);
        t += ag_us;
      }
      tl.Merge(sim.ka.timeline, t);
      t += sim.ka.duration_us;
      tl.Add("act-bwd", OpCategory::kActivation, 0, t, t + sim.act);
      t += sim.act;
      tl.Add("wgrad1", OpCategory::kLayer1Comp, 0, t, t + sim.wgrad1);
      t += sim.wgrad1;
      tl.Merge(sim.kb.timeline, t);
      tl.Add("wgrad0", OpCategory::kLayer0Comp, 0, t + sim.kb.compute_makespan_us,
             t + sim.kb.compute_makespan_us + sim.wgrad0);
      out.timeline = std::move(tl);
    }
  }
  out.duration_us = worst;

  if (mode == ExecMode::kFunctional) {
    out.grads = FunctionalBackward(workload, dout, options);
  }
  return out;
}

BackwardExecution SequentialBackward(const MoeWorkload& workload,
                                     const ClusterSpec& cluster,
                                     const std::vector<Tensor>& dout,
                                     ExecMode mode) {
  COMET_CHECK_EQ(cluster.world_size, workload.world());
  const OpCostModel costs(cluster);
  const Placement& placement = workload.placement;
  const RoutePlan& plan = workload.plan;
  const int world = placement.world();
  const int sms = cluster.gpu.num_sms;
  const int64_t hidden = placement.HiddenPerTpRank();
  const int64_t n_embed = placement.model().embedding;
  const double elt = costs.bytes_per_element();

  BackwardExecution out;
  out.executor = "Megatron-bwd";

  const double row_bytes = static_cast<double>(n_embed) * elt;
  const double a2a_dispatch =
      AllToAllCostUs(cluster, plan.DispatchBytes(row_bytes));
  const double a2a_return =
      AllToAllCostUs(cluster, plan.EpReturnBytes(row_bytes));
  const double ag_us = DoutAllGatherUs(workload, costs);
  const double tp_reduce =
      placement.parallel().tp > 1
          ? RingReduceScatterCostUs(
                cluster, static_cast<double>(placement.tokens_per_group()) *
                             row_bytes)
          : 0.0;

  out.per_rank_us.assign(static_cast<size_t>(world), 0.0);
  double worst = -1.0;
  for (int r = 0; r < world; ++r) {
    std::vector<GemmShape> dgrad1, dgrad0;
    for (const GemmProblemSize& p : plan.Layer0Problems(r)) {
      dgrad1.push_back(GemmShape{p.m, p.n, p.k});
    }
    for (const GemmProblemSize& p : plan.Layer1Problems(r)) {
      dgrad0.push_back(GemmShape{p.m, p.n, p.k});
    }
    const std::vector<int64_t> depths = RowDepths(plan.ForRank(r));
    const double dgrad1_us = costs.gemm().GroupTimeUs(dgrad1, sms);
    const double dgrad0_us = costs.gemm().GroupTimeUs(dgrad0, sms);
    const double wgrad1 = WgradTimeUs(costs, hidden, n_embed, depths, sms);
    const double wgrad0 = WgradTimeUs(costs, n_embed, hidden, depths, sms);
    const double act = costs.ActivationUs(plan.ForRank(r).TotalRows(), hidden);
    const double permute =
        costs.PermuteUs(plan.ForRank(r).TotalRows(), n_embed);
    // Kernels: a2a, permute, dgrad1, wgrad1, act-bwd, dgrad0, wgrad0,
    // unpermute, a2a-return (+ TP collectives when tp > 1).
    double launches = 9.0 * costs.LaunchUs();
    if (placement.parallel().tp > 1) {
      launches += 2.0 * costs.LaunchUs();
    }
    const double total = launches + ag_us + a2a_dispatch + permute +
                         dgrad1_us + wgrad1 + act + dgrad0_us + wgrad0 +
                         permute + a2a_return + tp_reduce;
    out.per_rank_us[static_cast<size_t>(r)] = total;
    if (total > worst) {
      worst = total;
      Timeline tl;
      double t = 0.0;
      auto add = [&](const char* name, OpCategory cat, double dur) {
        if (dur <= 0.0) {
          return;
        }
        tl.Add(name, cat, 0, t, t + dur);
        t += dur;
      };
      add("launch", OpCategory::kHost, launches);
      add("dout-allgather", OpCategory::kLayer1Comm, ag_us);
      add("grad-a2a", OpCategory::kLayer1Comm, a2a_dispatch);
      add("permute", OpCategory::kLayer1Comp, permute);
      add("dgrad1", OpCategory::kLayer1Comp, dgrad1_us);
      add("wgrad1", OpCategory::kLayer1Comp, wgrad1);
      add("act-bwd", OpCategory::kActivation, act);
      add("dgrad0", OpCategory::kLayer0Comp, dgrad0_us);
      add("wgrad0", OpCategory::kLayer0Comp, wgrad0);
      add("unpermute", OpCategory::kLayer0Comp, permute);
      add("grad-return-a2a", OpCategory::kLayer0Comm, a2a_return);
      add("tp-reduce", OpCategory::kLayer0Comm, tp_reduce);
      out.timeline = std::move(tl);
    }
  }
  out.duration_us = worst;

  if (mode == ExecMode::kFunctional) {
    out.grads = ShardedReferenceMoeBackward(workload, dout);
  }
  return out;
}

}  // namespace comet
