// Micro: steady-state serving iteration cost and allocation count.
//
// Drives MoeServer through the dispatcher hooks (BeginRun / Offer /
// StepIteration) under saturating load -- the same drive pattern
// alloc_test pins -- and measures two windows per config:
//
//   cold:   the first iterations after BeginRun, while pools, nc memo
//           entries and executor output slabs are still growing. This is
//           where the refactor MOVED the allocations: its allocs/iter is
//           the "before" picture of the old allocate-per-iteration path.
//   steady: a mid-run window after warm-up. The zero-allocation contract
//           says allocs/iter here is exactly 0; the bench FAILS (non-zero
//           exit) if it is not, so a Release CI smoke of
//           `comet_bench --only micro_serve_iter` pins the contract outside
//           the test tier too.
//
// ns/iteration and iterations/s are host wall-clock (the serving loop is
// real host work; only the modelled GPU time is simulated), so those two
// are machine-dependent. allocs/iteration is exact and reproducible.
#include "bench/bench_common.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "hw/gpu_spec.h"
#include "serve/request.h"
#include "serve/server.h"
#include "util/alloc_counter.h"
#include "util/check.h"

using namespace comet;
using namespace comet::bench;

namespace {

ModelConfig IterBenchModel() {
  ModelConfig m;
  m.name = "serve-bench";
  m.layers = 1;
  m.num_experts = 8;
  m.topk = 2;
  m.embedding = 64;
  m.ffn_hidden = 128;
  return m;
}

ServeOptions IterServeOptions(int ep, int num_threads) {
  ServeOptions o;
  o.model = IterBenchModel();
  o.parallel = ParallelConfig{1, ep};
  o.seed = 20260807;
  o.dtype = BenchDType();
  o.num_threads = num_threads;
  o.token_budget = 32;
  o.max_active = 16;
  o.queue_capacity = 64;
  return o;
}

struct WindowStats {
  double ns_per_iter = 0.0;
  double allocs_per_iter = 0.0;
  double bytes_per_iter = 0.0;
  int64_t tokens = 0;
};

// Runs `iters` saturated iterations, timing and allocation-counting the
// whole window. The AllocCounter's enabled-path cost is a few atomic adds
// per alloc -- zero allocs in steady state means zero timing skew there.
template <typename OfferFn>
WindowStats MeasureWindow(MoeServer& server, OfferFn&& offer_some, int iters,
                          double* now) {
  using Clock = std::chrono::steady_clock;
  WindowStats out;
  const int64_t tokens_before = server.View().batched_tokens;
  util::AllocStats stats;
  const auto start = Clock::now();
  {
    util::AllocWindow w;
    for (int i = 0; i < iters; ++i) {
      offer_some();
      double end = 0.0;
      COMET_CHECK(server.StepIteration(*now, &end))
          << "bench backlog drained mid-window";
      *now = end;
    }
    stats = w.Snapshot();
  }
  const double elapsed_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  out.ns_per_iter = elapsed_ns / static_cast<double>(iters);
  out.allocs_per_iter =
      static_cast<double>(stats.allocs) / static_cast<double>(iters);
  out.bytes_per_iter =
      static_cast<double>(stats.bytes) / static_cast<double>(iters);
  out.tokens = server.View().batched_tokens - tokens_before;
  return out;
}

}  // namespace

REGISTER_BENCH(micro_serve_iter,
               "Micro: serving StepIteration ns + allocs, cold vs steady") {
  PrintHeader("Serving iteration: cold (warm-up) vs steady state",
              "tiny MoE (E=8 topk=2 N=64 K=128), budget 32 tokens/iter, "
              "max_active 16; allocs counted by the interposed operator new");

  constexpr int kColdIters = 32;
  constexpr int kSteadyIters = 512;
  constexpr int kOfferPerIter = 4;
  constexpr int64_t kRequests =
      static_cast<int64_t>(kColdIters + kSteadyIters + 64) * kOfferPerIter;

  bool steady_state_clean = true;
  AsciiTable table({"threads", "ep", "cold allocs/it", "cold ns/it",
                    "steady allocs/it", "steady ns/it", "iters/s", "tok/it"});
  for (const int num_threads : {1, 8}) {
    for (const int ep : {1, 4}) {
      // Saturating backlog, all arrivals at t=0 (prompt 4..16, decode 0..7:
      // offered tokens/iter comfortably exceed the 32-token budget).
      std::vector<RequestSpec> arrivals;
      int64_t max_prompt = 0, max_decode = 0, total_tokens = 0;
      for (int64_t i = 0; i < kRequests; ++i) {
        RequestSpec r;
        r.id = i;
        r.seed = static_cast<uint64_t>(i) * 1000003ULL + 5;
        r.prompt_tokens = 4 + (i % 13);
        r.decode_tokens = i % 8;
        r.arrival_us = 0.0;
        max_prompt = std::max(max_prompt, r.prompt_tokens);
        max_decode = std::max(max_decode, r.decode_tokens);
        total_tokens += r.TotalTokens();
        arrivals.push_back(r);
      }

      MoeServer server(IterServeOptions(ep, num_threads), H800Cluster(ep));
      MoeServer::RunBounds bounds;
      bounds.expected_requests = kRequests;
      bounds.expected_tokens = total_tokens;
      bounds.max_prompt_tokens = max_prompt;
      bounds.max_decode_tokens = max_decode;
      server.BeginRun(bounds);

      size_t next = 0;
      const auto offer_some = [&] {
        for (int k = 0; k < kOfferPerIter && next < arrivals.size(); ++k) {
          server.Offer(arrivals[next++]);
        }
      };

      double now = 0.0;
      const WindowStats cold =
          MeasureWindow(server, offer_some, kColdIters, &now);
      const WindowStats steady =
          MeasureWindow(server, offer_some, kSteadyIters, &now);
      if (steady.allocs_per_iter != 0.0) {
        steady_state_clean = false;
      }

      const double iters_per_s = 1e9 / steady.ns_per_iter;
      const double tok_per_iter =
          static_cast<double>(steady.tokens) / kSteadyIters;
      table.AddRow({std::to_string(num_threads), std::to_string(ep),
                    FormatDouble(cold.allocs_per_iter, 2),
                    FormatDouble(cold.ns_per_iter, 0),
                    FormatDouble(steady.allocs_per_iter, 2),
                    FormatDouble(steady.ns_per_iter, 0),
                    FormatDouble(iters_per_s, 0),
                    FormatDouble(tok_per_iter, 1)});

      const std::string prefix =
          "t" + std::to_string(num_threads) + "_ep" + std::to_string(ep) + "_";
      reporter.Report(prefix + "cold_allocs_per_iter", cold.allocs_per_iter);
      reporter.Report(prefix + "cold_bytes_per_iter", cold.bytes_per_iter,
                      "B");
      reporter.Report(prefix + "cold_ns_per_iter", cold.ns_per_iter, "ns");
      reporter.Report(prefix + "steady_allocs_per_iter",
                      steady.allocs_per_iter);
      reporter.Report(prefix + "steady_ns_per_iter", steady.ns_per_iter,
                      "ns");
      reporter.Report(prefix + "steady_iters_per_s", iters_per_s, "it/s");
      reporter.Report(prefix + "steady_tokens_per_iter", tok_per_iter,
                      "tok");
    }
  }
  std::cout << table.Render() << "\n";
  PrintPaperNote(
      "no paper figure: pins the serving loop's zero-allocation contract. "
      "Expected shape: cold allocs/it > 0 (pool buffers, nc memo, output "
      "slabs growing to their high-water marks -- the old path paid these "
      "EVERY iteration), steady allocs/it exactly 0 at every thread count "
      "and EP width; steady ns/it is host scheduling + functional-plane "
      "compute for a 32-token batch.");

  if (!steady_state_clean) {
    std::cout << "FAIL: steady-state allocs/iteration > 0 -- the "
                 "zero-allocation contract is broken (run with "
                 "COMET_ALLOC_TRAP=1 to trap the first allocation)\n";
    return 1;
  }
  return 0;
}
