// Spans of the traced run, and the replay of its batch shapes through the
// lower layers' public functions.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>

#include "comm/symmetric_heap.h"
#include "core/comet_executor.h"
#include "moe/activation.h"
#include "moe/expert_weights.h"
#include "moe/group_gemm.h"
#include "moe/router.h"
#include "moe/workload.h"
#include "perfbench.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace comet;

// ---- spans -------------------------------------------------------------------

SpanRecorder::SpanRecorder(bool enabled, size_t reserve)
    : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) {
    spans_.reserve(reserve);
  }
}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int32_t SpanRecorder::Begin(std::string_view name, int32_t parent, int64_t id) {
  if (!enabled_) {
    return -1;
  }
  const int64_t now = NowNs();
  spans_.push_back({name, now, now, parent, id});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanRecorder::End(int32_t span) {
  if (span >= 0) {
    spans_[static_cast<size_t>(span)].end_ns = NowNs();
  }
}

int32_t SpanRecorder::Add(std::string_view name, Clock::time_point start,
                          Clock::time_point end, int32_t parent, int64_t id) {
  if (!enabled_) {
    return -1;
  }
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  spans_.push_back({name, ns(start), ns(end), parent, id});
  return static_cast<int32_t>(spans_.size() - 1);
}

int64_t SpanRecorder::Count(std::string_view name) const {
  return std::count_if(spans_.begin(), spans_.end(),
                       [&](const Span& s) { return s.name == name; });
}

double SpanRecorder::TotalUs(std::string_view name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) {
      total += s.DurationUs();
    }
  }
  return total;
}

void SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  COMET_CHECK(out.good()) << "cannot write " << path;
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<double>(s.start_ns) / 1e3
        << ", \"dur\": " << s.DurationUs() << ", \"args\": {\"span\": " << i
        << ", \"parent\": " << s.parent << ", \"id\": " << s.id << "}}";
  }
  out << "\n]}\n";
}

// ---- replay ------------------------------------------------------------------

namespace {

// Mean microseconds per call of `fn`, repeated until both 3 calls and 2 ms
// have passed.
template <typename F>
double TimeUs(F&& fn) {
  constexpr int min_reps = 3;
  constexpr double min_s = 0.002;
  int reps = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  while (reps < min_reps || elapsed < min_s) {
    fn();
    ++reps;
    elapsed = SecondsSince(start);
  }
  return elapsed * 1e6 / reps;
}

// The data-plane operands one rank's expert slices feed into the two
// grouped GEMMs: gathered token rows, the hidden activations and outputs.
struct RankGemms {
  std::vector<Tensor> a0, c0, c1;
  GroupGemmProblem layer0, layer1;
  std::vector<GemmTileCoord> tiles0, tiles1;
};

RankGemms BuildRankGemms(const MoeWorkload& w, const Tensor& global, int rank,
                         int64_t tile_m, int64_t tile_n, double* flops) {
  const Placement& placement = w.placement;
  const RankPlan& plan = w.plan.ForRank(rank);
  const int lane = placement.TpLaneOfRank(rank);
  const int64_t n = placement.model().embedding;
  const int64_t k = placement.HiddenPerTpRank();
  RankGemms g;
  for (const ExpertSlice& slice : plan.experts) {
    if (slice.expert < 0 || slice.rows.empty()) {
      continue;
    }
    const int64_t rows = static_cast<int64_t>(slice.rows.size());
    Tensor a(Shape{rows, n});
    for (int64_t r = 0; r < rows; ++r) {
      a.SetRow(r, global.row(slice.rows[static_cast<size_t>(r)].token));
    }
    g.a0.push_back(std::move(a));
    g.c0.emplace_back(Shape{rows, k});
    g.c1.emplace_back(Shape{rows, n});
    *flops += 2.0 * 2.0 * static_cast<double>(rows * n * k);
  }
  for (size_t i = 0; i < g.a0.size(); ++i) {
    const int64_t expert = plan.experts[i].expert;
    g.layer0.a.push_back(&g.a0[i]);
    g.layer0.b.push_back(&w.sharded_weights->W0Shard(expert, lane));
    g.layer0.c.push_back(&g.c0[i]);
    g.layer1.a.push_back(&g.c0[i]);
    g.layer1.b.push_back(&w.sharded_weights->W1Shard(expert, lane));
    g.layer1.c.push_back(&g.c1[i]);
  }
  g.tiles0 = EnumerateTiles(g.layer0, tile_m, tile_n);
  g.tiles1 = EnumerateTiles(g.layer1, tile_m, tile_n);
  return g;
}

}  // namespace

double TraceCoverage(const LayerBreakdown& layers, double step_us) {
  if (step_us <= 0.0) {
    return 0.0;
  }
  return (layers.gate_route_us + layers.route_plan_us +
          layers.run_batch_functional_us) /
         step_us;
}

LayerBreakdown ReplayShapes(const ServeOptions& options,
                            const ClusterSpec& cluster,
                            std::vector<ShapeCount> shapes, double budget_s) {
  LayerBreakdown out;
  if (shapes.empty()) {
    return out;
  }
  std::sort(shapes.begin(), shapes.end(),
            [](const ShapeCount& a, const ShapeCount& b) {
              return a.count != b.count ? a.count > b.count
                                        : a.tokens < b.tokens;
            });
  int64_t total_iterations = 0;
  int64_t max_tokens = 0;
  for (const ShapeCount& s : shapes) {
    total_iterations += s.count;
    max_tokens = std::max(max_tokens, s.tokens);
  }

  const ModelConfig& model = options.model;
  const ParallelConfig& parallel = options.parallel;
  const int world = parallel.world();
  const int64_t n = model.embedding;
  ScopedThreadLimit limit(options.num_threads);

  // The serving plane's own derivations of gate and expert weights.
  Rng gate_rng(options.seed + 23);
  const GateNetwork gate(Tensor::Randn(
      Shape{n, model.num_experts}, gate_rng,
      1.0f / std::sqrt(static_cast<float>(n)), DType::kF32));
  Rng weight_rng(options.seed + 17);
  auto weights = std::make_shared<const ExpertWeights>(
      ExpertWeights::Random(model, weight_rng, 0.05f, options.dtype));
  auto sharded =
      std::make_shared<const ShardedExpertWeights>(*weights, parallel.tp);

  CometOptions copt;
  copt.compute_dtype = options.dtype;
  copt.num_threads = options.num_threads;
  copt.signal_wait_timeout_ms = options.signal_wait_timeout_ms;
  copt.verify_transport = options.verify_transport;
  copt.tile_m = options.granularity;
  CometExecutor executor(copt);
  executor.PrepareServing(Placement(model, parallel, max_tokens), cluster);
  LayerExecution ex;

  SymmetricHeap heap(world, HeapIntegrityOptions{.checksum_rows = true});
  const SymmetricBufferId buf = heap.Allocate(
      "replay-dispatch", Shape{max_tokens * model.topk, n}, options.dtype);
  std::vector<float> row_out(static_cast<size_t>(n));
  const double row_bytes =
      static_cast<double>(n) * static_cast<double>(DTypeSize(options.dtype));

  GateScratch gate_scratch;
  RoutingTable routing;
  int64_t replayed_iterations = 0;
  double sweep_us_sum = 0.0;
  const Clock::time_point start = Clock::now();
  for (const ShapeCount& shape : shapes) {
    if (out.shapes_replayed > 0 && SecondsSince(start) >= budget_s) {
      break;
    }
    const double weight = static_cast<double>(shape.count);
    WorkloadOptions wopt;
    wopt.seed = options.seed + static_cast<uint64_t>(shape.tokens);
    wopt.dtype = options.dtype;
    MoeWorkload w = MakeWorkloadWithWeights(model, parallel, shape.tokens,
                                            weights, sharded, wopt);
    Tensor global(Shape{shape.tokens, n}, options.dtype);
    const int64_t per_group = w.placement.tokens_per_group();
    for (int g = 0; g < parallel.ep; ++g) {
      for (int64_t r = 0; r < per_group; ++r) {
        global.SetRow(g * per_group + r,
                      w.inputs[static_cast<size_t>(g)].row(r));
      }
    }

    // moe/: gate scoring and the route plan.
    out.gate_route_us += weight * TimeUs([&] {
      gate.RouteInto(global, model.topk, gate_scratch, &routing);
    });
    w.routing = routing;
    out.route_plan_us += weight * TimeUs([&] {
      w.plan.Rebuild(w.placement, w.routing);
    });

    // core/: the executor's serving entry, warm memo, then one cold sweep.
    executor.RunBatchInto(w, cluster, ExecMode::kFunctional, &ex);
    const double timed_us = TimeUs([&] {
      executor.RunBatchInto(w, cluster, ExecMode::kTimedOnly, &ex);
    });
    out.run_batch_timed_us += weight * timed_us;
    out.run_batch_functional_us += weight * TimeUs([&] {
      executor.RunBatchInto(w, cluster, ExecMode::kFunctional, &ex);
    });
    executor.InvalidateBatchProfiles();
    const Clock::time_point cold = Clock::now();
    executor.RunBatchInto(w, cluster, ExecMode::kTimedOnly, &ex);
    sweep_us_sum += std::max(0.0, MicrosBetween(cold, Clock::now()) - timed_us);

    // moe/: the grouped GEMMs and the activation between them, every rank.
    double flops = 0.0;
    std::vector<RankGemms> ranks;
    for (int r = 0; r < world; ++r) {
      ranks.push_back(BuildRankGemms(w, global, r, options.granularity, 128,
                                     &flops));
    }
    // Each rep runs the layer in order (GEMM0, activation, GEMM1), so the
    // activation always sees fresh GEMM0 outputs, as in the executor.
    double gemm_s = 0.0;
    double act_s = 0.0;
    int reps = 0;
    const Clock::time_point layer_start = Clock::now();
    while (reps < 3 || SecondsSince(layer_start) < 0.002) {
      for (RankGemms& g : ranks) {
        const Clock::time_point t0 = Clock::now();
        RunGroupGemm(g.layer0, g.tiles0);
        const Clock::time_point t1 = Clock::now();
        for (Tensor& t : g.c0) {
          ApplyActivation(t, ActivationKind::kGelu);
        }
        const Clock::time_point t2 = Clock::now();
        RunGroupGemm(g.layer1, g.tiles1);
        const Clock::time_point t3 = Clock::now();
        gemm_s += std::chrono::duration<double>((t1 - t0) + (t3 - t2)).count();
        act_s += std::chrono::duration<double>(t2 - t1).count();
      }
      ++reps;
    }
    out.group_gemm_us += weight * gemm_s * 1e6 / reps;
    out.group_gemm_flops += weight * flops;
    out.activation_us += weight * act_s * 1e6 / reps;

    // comm/: one put per dispatched (token, expert) row from the token's
    // home rank, then the consumer's checked read of it.
    int64_t rows = 0;
    int64_t remote_rows = 0;
    for (int r = 0; r < world; ++r) {
      const RankPlan& plan = w.plan.ForRank(r);
      for (const ExpertSlice& slice : plan.experts) {
        rows += static_cast<int64_t>(slice.rows.size());
        for (const ExpertRow& row : slice.rows) {
          remote_rows += row.source_group != plan.ep_group ? 1 : 0;
        }
      }
    }
    const auto for_each_row = [&](auto&& fn) {
      for (int r = 0; r < world; ++r) {
        const RankPlan& plan = w.plan.ForRank(r);
        const int lane = w.placement.TpLaneOfRank(r);
        int64_t dst_row = 0;
        for (const ExpertSlice& slice : plan.experts) {
          for (const ExpertRow& row : slice.rows) {
            fn(w.placement.RankOf(row.source_group, lane), r, dst_row++,
               row.token);
          }
        }
      }
    };
    const double put_us = TimeUs([&] {
      for_each_row([&](int src, int dst, int64_t dst_row, int64_t token) {
        heap.PutRow(buf, src, dst, dst_row, global.row(token));
      });
    });
    const double copy_us = TimeUs([&] {
      for_each_row([&](int, int dst, int64_t dst_row, int64_t) {
        heap.CopyRow(buf, dst, dst, dst_row, row_out);
      });
    });
    const double per_row = 1.0 / static_cast<double>(std::max<int64_t>(rows, 1));
    out.put_row_ns += weight * 1e3 * per_row * put_us;
    out.copy_row_ns += weight * 1e3 * per_row * copy_us;
    out.heap_us += weight * (put_us + copy_us);
    // Dispatch out and the EP return back, both only for remote rows.
    out.bytes_moved += weight * 2.0 * static_cast<double>(remote_rows) * row_bytes;

    replayed_iterations += shape.count;
    ++out.shapes_replayed;
  }

  const double inv = 1.0 / static_cast<double>(replayed_iterations);
  for (double* v : {&out.gate_route_us, &out.route_plan_us, &out.group_gemm_us,
                    &out.group_gemm_flops, &out.activation_us, &out.put_row_ns,
                    &out.copy_row_ns, &out.heap_us, &out.bytes_moved,
                    &out.run_batch_timed_us, &out.run_batch_functional_us}) {
    *v *= inv;
  }
  out.adaptive_sweep_us = sweep_us_sum / static_cast<double>(out.shapes_replayed);
  out.iterations_covered = static_cast<double>(replayed_iterations) /
                           static_cast<double>(total_iterations);
  return out;
}

}  // namespace perfbench
