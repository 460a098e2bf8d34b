// Microbenchmark: the functional-plane blocked GroupGEMM.
//
// Measures the host GEMM kernel used by the functional executors: whole
// problems, tile-granular execution (the COMET path), the grouped form
// whose tile-order invariance makes rescheduling numerically free, and the
// serving tile shapes. Every record is reported beside a measured bound: a
// peak probe of separate vector multiplies and adds, the arithmetic the
// bit-exact kernel is limited to under -ffp-contract=off.
#include <algorithm>
#include <cstdint>
#include <utility>

#include "bench/bench_common.h"
#include "moe/group_gemm.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace comet;
using namespace comet::bench;

namespace {

typedef float ProbeVec __attribute__((vector_size(16 * sizeof(float))));

// Single-thread f32 GFLOP/s of 24 independent vector chains, each step one
// multiply and one dependent add (no contraction): enough chains to be
// throughput-bound on both FP ports, so this is the bound for a kernel that
// issues the same instruction mix.
double MulAddPeakGflops() {
  constexpr int kChains = 24;
  constexpr int64_t kSteps = 4096;
  // Run-time operands keep the loop from being folded; m < 1 keeps the
  // chains finite.
  volatile float seed = 0.999f;
  const float m = seed;
  const float add = 1.0f - m;
  const TimedLoop loop = TimeIt([&] {
    // Local and fully unrolled, so every chain stays in a register.
    ProbeVec acc[kChains];
#pragma GCC unroll 24
    for (int c = 0; c < kChains; ++c) {
      acc[c] = ProbeVec{} + add * static_cast<float>(c);
    }
    for (int64_t s = 0; s < kSteps; ++s) {
#pragma GCC unroll 24
      for (int c = 0; c < kChains; ++c) {
        acc[c] = acc[c] * m + add;
      }
    }
#pragma GCC unroll 24
    for (int c = 0; c < kChains; ++c) {
      DoNotOptimize(acc[c]);
    }
  });
  const double flops = 2.0 * 16 * kChains * static_cast<double>(kSteps);
  return flops / loop.ns_per_iter;
}

}  // namespace

REGISTER_BENCH(micro_groupgemm, "Micro: blocked GroupGEMM functional kernels") {
  PrintHeader("Micro: GroupGEMM kernels",
              "host functional-plane GEMMs; mean ns per call, GFLOP/s and "
              "the share of the mul+add peak probe");
  const double peak = MulAddPeakGflops();
  reporter.Report("calib/mul_add_peak/gflops", peak, "GFLOP/s");
  AsciiTable table({"op", "size", "ns/op", "GFLOP/s", "of peak"});
  table.AddRow({"mul_add_peak", "24 chains", "-", FormatDouble(peak, 2),
                "100%"});

  auto record = [&](const std::string& op, const std::string& size,
                    double flops, const TimedLoop& loop) {
    const double gflops = flops / loop.ns_per_iter;
    table.AddRow({op, size, FormatDouble(loop.ns_per_iter, 0),
                  FormatDouble(gflops, 2),
                  FormatDouble(100.0 * gflops / peak, 0) + "%"});
    reporter.Report(op + "/" + size + "/ns_per_op", loop.ns_per_iter, "ns");
    reporter.Report(op + "/" + size + "/gflops", gflops, "GFLOP/s");
    reporter.Report(op + "/" + size + "/peak_frac", gflops / peak);
  };

  // The serving tile shapes, one thread: decode-sized (5, 8) and
  // prefill-sized (33, 128) row blocks against the layer-0 (k = embedding,
  // n = ffn) and layer-1 (k = ffn, n = embedding) weights of the decode and
  // prefill models, in 128-column tiles. Rows 5 and 8 read B in place;
  // 33 and 128 pack it.
  for (const auto& [k_s, n_s] : {std::pair<int64_t, int64_t>{64, 128},
                                {128, 64},
                                {256, 512},
                                {512, 256}}) {
    for (int64_t rows : {int64_t{5}, int64_t{8}, int64_t{33}, int64_t{128}}) {
      Rng rng(5);
      const Tensor a = Tensor::Randn(Shape{rows, k_s}, rng);
      const Tensor b = Tensor::Randn(Shape{k_s, n_s}, rng);
      Tensor c(Shape{rows, n_s});
      const int64_t tile_n = 128;
      const double flops = static_cast<double>(2 * rows * n_s * k_s);
      record("serve_tile",
             "m=" + std::to_string(rows) + ",k=" + std::to_string(k_s) +
                 ",n=" + std::to_string(n_s),
             flops, TimeIt([&] {
               for (int64_t cc = 0; cc < n_s; cc += tile_n) {
                 GemmTile(a, b, c, 0, rows, cc, std::min(cc + tile_n, n_s));
               }
               DoNotOptimize(c.data().data());
             }));
    }
  }

  const int64_t n = 64;
  const int64_t k = 128;
  for (int64_t m : {int64_t{64}, int64_t{256}, int64_t{1024}}) {
    Rng rng(1);
    const Tensor a = Tensor::Randn(Shape{m, k}, rng);
    const Tensor b = Tensor::Randn(Shape{k, n}, rng);
    Tensor c(Shape{m, n});
    const double flops = static_cast<double>(2 * m * n * k);
    record("gemm_whole", "m=" + std::to_string(m), flops, TimeIt([&] {
             Gemm(a, b, c);
             DoNotOptimize(c.data().data());
           }));

    const int64_t tile = 32;
    record("gemm_tiled", "m=" + std::to_string(m), flops, TimeIt([&] {
             for (int64_t r = 0; r < m; r += tile) {
               for (int64_t cc = 0; cc < n; cc += tile) {
                 GemmTile(a, b, c, r, std::min(r + tile, m), cc,
                          std::min(cc + tile, n));
               }
             }
             DoNotOptimize(c.data().data());
           }));
  }

  for (int64_t groups : {int64_t{2}, int64_t{8}}) {
    const int64_t m = 128;
    Rng rng(2);
    std::vector<Tensor> a_store;
    std::vector<Tensor> b_store;
    std::vector<Tensor> c_store;
    for (int64_t g = 0; g < groups; ++g) {
      a_store.push_back(Tensor::Randn(Shape{m, k}, rng));
      b_store.push_back(Tensor::Randn(Shape{k, n}, rng));
      c_store.emplace_back(Shape{m, n});
    }
    GroupGemmProblem problem;
    for (int64_t g = 0; g < groups; ++g) {
      problem.a.push_back(&a_store[static_cast<size_t>(g)]);
      problem.b.push_back(&b_store[static_cast<size_t>(g)]);
      problem.c.push_back(&c_store[static_cast<size_t>(g)]);
    }
    const auto tiles = EnumerateTiles(problem, 32, 32);
    const double flops = static_cast<double>(groups * 2 * m * n * k);
    record("group_gemm", "groups=" + std::to_string(groups), flops, TimeIt([&] {
             RunGroupGemm(problem, tiles);
             DoNotOptimize(c_store[0].data().data());
           }));
  }

  // Pool-dispatched grouped problem at executor-like tile sizes: the case
  // the parallel tile engine targets (run with --threads/COMET_THREADS to
  // see scaling; tiles partition C disjointly so results are identical).
  {
    const int64_t groups = 4, m = 512, kk = 256, nn = 128;
    Rng rng(3);
    std::vector<Tensor> a_store, b_store, c_store;
    GroupGemmProblem problem;
    for (int64_t g = 0; g < groups; ++g) {
      a_store.push_back(Tensor::Randn(Shape{m, kk}, rng));
      b_store.push_back(Tensor::Randn(Shape{kk, nn}, rng));
      c_store.emplace_back(Shape{m, nn});
    }
    for (int64_t g = 0; g < groups; ++g) {
      problem.a.push_back(&a_store[static_cast<size_t>(g)]);
      problem.b.push_back(&b_store[static_cast<size_t>(g)]);
      problem.c.push_back(&c_store[static_cast<size_t>(g)]);
    }
    const auto tiles = EnumerateTiles(problem, 128, 128);
    const double flops = static_cast<double>(groups * 2 * m * nn * kk);
    // Fixed metric name (the active thread count is reported separately):
    // perf-trajectory diffs match records by (bench, metric).
    record("group_gemm_pool", "groups=" + std::to_string(groups), flops,
           TimeIt([&] {
             RunGroupGemm(problem, tiles);
             DoNotOptimize(c_store[0].data().data());
           }));
  }
  // Mixed-precision path (--dtype): 2-byte operands, f32 accumulate, RNE
  // round on store. Measures what the epilogue rounding pass costs on top of
  // the f32 kernel (the compute itself is identical).
  const DType lp = BenchDType();
  if (lp != DType::kF32) {
    const int64_t m = 1024;
    Rng rng(4);
    const Tensor a = Tensor::Randn(Shape{m, k}, rng, 1.0f, lp);
    const Tensor b = Tensor::Randn(Shape{k, n}, rng, 1.0f, lp);
    Tensor c(Shape{m, n}, lp);
    const double flops = static_cast<double>(2 * m * n * k);
    record("gemm_" + DTypeName(lp), "m=" + std::to_string(m), flops,
           TimeIt([&] {
             Gemm(a, b, c);
             DoNotOptimize(c.data().data());
           }));
  }
  reporter.Report("threads", static_cast<double>(GlobalThreadCount()));

  std::cout << table.Render() << "\n";
  return 0;
}
