// Microbenchmark: routing, gate scoring, checksummed heap row transport,
// the GELU activation, token synthesis (normal draws), plan construction and
// the schedule builders -- the host-side work COMET performs per layer
// outside the expert GEMMs.
#include "bench/bench_common.h"
#include "comm/symmetric_heap.h"
#include "core/reschedule.h"
#include "moe/activation.h"
#include "moe/route_plan.h"
#include "moe/router.h"
#include "moe/workload.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace comet;
using namespace comet::bench;

REGISTER_BENCH(micro_dispatch, "Micro: routing, gate, heap rows, GELU, normal draws, route-plan and schedule construction") {
  PrintHeader("Micro: dispatch metadata ops",
              "host-side per-layer work outside the expert GEMMs; mean ns per "
              "call (heap_put_copy_row items = row elements, gelu_rows items "
              "= tile elements; rng_* rows: mean ns per normal, items = "
              "normals per call)");
  AsciiTable table({"op", "items", "ns/op", "Mitems/s"});

  // `shape` names the record (defaults to the item count).
  auto record = [&](const std::string& op, int64_t tokens,
                    const TimedLoop& loop, const std::string& shape = "") {
    const double mitems_s = tokens > 0
        ? static_cast<double>(tokens) * 1e3 / loop.ns_per_iter
        : 0.0;
    table.AddRow({op, std::to_string(tokens),
                  FormatDouble(loop.ns_per_iter, 0),
                  tokens > 0 ? FormatDouble(mitems_s, 1) : "-"});
    reporter.Report(
        op + "/" + (shape.empty() ? std::to_string(tokens) : shape) +
            "/ns_per_op",
        loop.ns_per_iter, "ns");
  };

  for (int64_t tokens : {int64_t{4096}, int64_t{16384}}) {
    Rng rng(1);
    const auto load = rng.LoadVectorWithStd(8, 0.032);
    record("synthetic_routing", tokens, TimeIt([&] {
             SyntheticRouter router(load, 42);
             RoutingTable routing = router.Route(tokens, 2);
             DoNotOptimize(routing.tokens.data());
           }));
  }

  // Qwen2-MoE's routing shape (E 64, topk 4) at the paper's M, built fresh
  // per call as MakeWorkload does.
  {
    Rng rng(1);
    const auto load = rng.LoadVectorWithStd(64, 0.032);
    record("synthetic_routing", 16384, TimeIt([&] {
             SyntheticRouter router(load, 42);
             RoutingTable routing = router.Route(16384, 4);
             DoNotOptimize(routing.tokens.data());
           }),
           "E=64,topk=4/16384");
  }

  // A decode-shaped batch (32 tokens, E 8, topk 2) on a warm router with
  // the table reused, as a synthetic-routing server steps it.
  {
    Rng rng(1);
    SyntheticRouter router(rng.LoadVectorWithStd(8, 0.032), 42);
    RoutingTable routing;
    record("synthetic_route_into", 32, TimeIt([&] {
             router.RouteInto(32, 2, /*shift=*/0, &routing);
             DoNotOptimize(routing.tokens.data());
           }));
  }

  // The learned gate at the serving shapes (decode: 32 tokens at N 64;
  // prefill: 512 tokens at N 256; E 8, topk 2), serial like a one-thread
  // server, scratch and table reused across calls as the server does.
  for (const auto& [tokens, embed] :
       {std::pair<int64_t, int64_t>{32, 64}, {512, 256}}) {
    ScopedThreadLimit serial(1);
    Rng rng(3);
    const GateNetwork gate(Tensor::Randn(Shape{embed, 8}, rng));
    const Tensor x = Tensor::Randn(Shape{tokens, embed}, rng);
    GateScratch scratch;
    RoutingTable routing;
    record("gate_route", tokens, TimeIt([&] {
             gate.RouteInto(x, 2, scratch, &routing);
             DoNotOptimize(routing.tokens.data());
           }));
  }

  // One checksummed remote PutRow plus one verified CopyRow of the same row:
  // the per-token transport cost of the serving plane's integrity checks.
  for (int64_t cols : {int64_t{64}, int64_t{256}}) {
    HeapIntegrityOptions integrity;
    integrity.checksum_rows = true;
    SymmetricHeap heap(2, integrity);
    const SymmetricBufferId buf = heap.Allocate("rows", Shape{1, cols});
    Rng rng(4);
    const Tensor src = Tensor::Randn(Shape{1, cols}, rng);
    std::vector<float> dst(static_cast<size_t>(cols));
    record("heap_put_copy_row", cols, TimeIt([&] {
             heap.PutRow(buf, 0, 1, 0, src.row(0));
             heap.CopyRow(buf, 0, 1, 0, dst);
             DoNotOptimize(dst.data());
           }));
  }

  // GELU over the serving hidden tiles (decode: 32 tokens x topk 2 rows at
  // ffn 128; prefill: 512 x 2 rows at ffn 512), f32, one thread. The same
  // pre-activation values are restored before each call, so every call
  // sees the same (Randn-distributed) inputs.
  for (const auto& [rows, cols] :
       {std::pair<int64_t, int64_t>{64, 128}, {1024, 512}}) {
    ScopedThreadLimit serial(1);
    Rng rng(5);
    const Tensor pre = Tensor::Randn(Shape{rows, cols}, rng);
    Tensor hidden = pre;
    record("gelu_rows", rows * cols, TimeIt([&] {
             std::copy(pre.data().begin(), pre.data().end(),
                       hidden.data().begin());
             ApplyActivationTile(hidden, ActivationKind::kGelu, 0, rows, 0,
                                 cols);
             DoNotOptimize(hidden.data().data());
           }),
           std::to_string(rows) + "x" + std::to_string(cols));
  }

  // Token synthesis, in ns per normal: scalar Rng::Normal, and FillNormal
  // over one decode perturbation row (64, the serving embedding) and over a
  // weight-sized span.
  auto record_per_normal = [&](const std::string& name, int64_t normals,
                               const TimedLoop& loop) {
    const double ns = loop.ns_per_iter / static_cast<double>(normals);
    table.AddRow({name, std::to_string(normals), FormatDouble(ns, 1),
                  FormatDouble(1e3 / ns, 1)});
    reporter.Report(name + "/ns_per_normal", ns, "ns");
  };
  {
    constexpr int64_t kDraws = 1024;
    Rng rng(6);
    double sum = 0.0;
    record_per_normal("rng_normal_scalar", kDraws, TimeIt([&] {
                        for (int64_t d = 0; d < kDraws; ++d) {
                          sum += rng.Normal();
                        }
                        DoNotOptimize(sum);
                      }));
  }
  for (int64_t normals : {int64_t{64}, int64_t{65536}}) {
    Rng rng(6);
    std::vector<float> out(static_cast<size_t>(normals));
    record_per_normal("rng_fill_normal/" + std::to_string(normals), normals,
                      TimeIt([&] {
                        rng.FillNormal(out, 0.0, 1.0);
                        DoNotOptimize(out.data());
                      }));
  }

  for (int64_t tokens : {int64_t{4096}, int64_t{16384}}) {
    ModelConfig model = Mixtral8x7B();
    const ParallelConfig parallel{1, 8};
    Placement placement(model, parallel, tokens);
    Rng rng(2);
    SyntheticRouter router(rng.LoadVectorWithStd(8, 0.0), 7);
    const RoutingTable routing = router.Route(tokens, model.topk);
    record("route_plan_build", tokens, TimeIt([&] {
             RoutePlan plan(placement, routing);
             DoNotOptimize(plan.ForRank(0).TotalRows());
           }));
  }

  for (int64_t tokens : {int64_t{4096}, int64_t{16384}}) {
    ModelConfig model = Mixtral8x7B();
    const ParallelConfig parallel{1, 8};
    WorkloadOptions options;
    options.materialize = false;
    const MoeWorkload w = MakeWorkload(model, parallel, tokens, options);
    record("layer0_schedule_build", tokens, TimeIt([&] {
             const Layer0Schedule schedule = BuildLayer0Schedule(
                 w.plan.ForRank(0), 0, parallel.ep,
                 w.placement.HiddenPerTpRank(), 128, 128,
                 /*reschedule=*/true);
             DoNotOptimize(schedule.runs.data());
           }));
    record("layer1_schedule_build", tokens, TimeIt([&] {
             const Layer1Schedule schedule =
                 BuildLayer1Schedule(w.plan.ForRank(0), model.embedding, 128,
                                     128, /*reschedule=*/true);
             DoNotOptimize(schedule.runs.data());
           }));
  }

  std::cout << table.Render() << "\n";
  return 0;
}
