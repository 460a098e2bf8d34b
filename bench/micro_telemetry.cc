// Micro: telemetry-plane overhead on the steady-state serving iteration.
//
// Runs the micro_serve_iter drive pattern twice per config -- telemetry off
// (the default) and telemetry on (registry + span ring recording every
// iteration) -- and reports the steady-state ns/iteration delta. The
// telemetry plane's contract is that recording is a handful of relaxed
// atomic stores per iteration: the target is <2% overhead, and the bench
// FAILS (`comet_bench --only micro_telemetry` exits non-zero) if the ON runs
// allocate in steady state, since that would break the zero-allocation
// contract alloc_test pins with telemetry enabled.
//
// ns/iteration is host wall-clock and machine-dependent; allocs/iteration
// and the served digests (checked equal OFF vs ON here) are exact.
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

ModelConfig TelemetryBenchModel() {
  ModelConfig m;
  m.name = "serve-bench";
  m.layers = 1;
  m.num_experts = 8;
  m.topk = 2;
  m.embedding = 64;
  m.ffn_hidden = 128;
  return m;
}

ServeOptions TelemetryServeOptions(int ep, int num_threads, bool telemetry) {
  ServeOptions o;
  o.model = TelemetryBenchModel();
  o.parallel = ParallelConfig{1, ep};
  o.seed = 20260807;
  o.dtype = BenchDType();
  o.num_threads = num_threads;
  o.token_budget = 32;
  o.max_active = 16;
  o.queue_capacity = 64;
  o.telemetry.enabled = telemetry;
  return o;
}

struct SteadyStats {
  double ns_per_iter = 0.0;
  double allocs_per_iter = 0.0;
  uint64_t digest = 0;
};

// Saturated drive: warm up kColdIters, then time + alloc-count kSteadyIters.
SteadyStats RunConfig(int ep, int num_threads, bool telemetry) {
  constexpr int kColdIters = 32;
  constexpr int kSteadyIters = 512;
  constexpr int kOfferPerIter = 4;
  constexpr int64_t kRequests =
      static_cast<int64_t>(kColdIters + kSteadyIters + 64) * kOfferPerIter;

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

  MoeServer server(TelemetryServeOptions(ep, num_threads, telemetry),
                   H800Cluster(ep));
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
  for (int i = 0; i < kColdIters; ++i) {
    offer_some();
    double end = 0.0;
    COMET_CHECK(server.StepIteration(now, &end));
    now = end;
  }

  using Clock = std::chrono::steady_clock;
  SteadyStats out;
  util::AllocStats stats;
  const auto start = Clock::now();
  {
    util::AllocWindow w;
    for (int i = 0; i < kSteadyIters; ++i) {
      offer_some();
      double end = 0.0;
      COMET_CHECK(server.StepIteration(now, &end))
          << "bench backlog drained mid-window";
      now = end;
    }
    stats = w.Snapshot();
  }
  const double elapsed_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  out.ns_per_iter = elapsed_ns / static_cast<double>(kSteadyIters);
  out.allocs_per_iter =
      static_cast<double>(stats.allocs) / static_cast<double>(kSteadyIters);
  // FNV-1a over the retired requests' output digests, retirement order.
  // Both passes run the same iterations over the same arrivals, so equal
  // folds mean every served bit matched.
  uint64_t digest = 1469598103934665603ULL;
  for (const RequestRecord& rec : server.View().completed) {
    for (int shift = 0; shift < 64; shift += 8) {
      digest ^= (rec.output_digest >> shift) & 0xffULL;
      digest *= 1099511628211ULL;
    }
  }
  out.digest = digest;
  return out;
}

}  // namespace

REGISTER_BENCH(micro_telemetry,
               "Micro: telemetry-plane overhead on steady-state serving") {
  PrintHeader("Telemetry plane: steady-state iteration cost, off vs on",
              "tiny MoE (E=8 topk=2 N=64 K=128), budget 32 tokens/iter; "
              "ON records ~30 metrics + iteration/phase spans per step");

  bool contract_clean = true;
  AsciiTable table({"threads", "ep", "off ns/it", "on ns/it", "delta %",
                    "on allocs/it", "digest match"});
  for (const int num_threads : {1, 8}) {
    for (const int ep : {1, 4}) {
      const SteadyStats off = RunConfig(ep, num_threads, /*telemetry=*/false);
      const SteadyStats on = RunConfig(ep, num_threads, /*telemetry=*/true);
      const double delta_pct =
          (on.ns_per_iter - off.ns_per_iter) / off.ns_per_iter * 100.0;
      const bool digests_match = off.digest == on.digest;
      if (on.allocs_per_iter != 0.0 || !digests_match) {
        contract_clean = false;
      }
      table.AddRow({std::to_string(num_threads), std::to_string(ep),
                    FormatDouble(off.ns_per_iter, 0),
                    FormatDouble(on.ns_per_iter, 0),
                    FormatDouble(delta_pct, 2),
                    FormatDouble(on.allocs_per_iter, 2),
                    digests_match ? "yes" : "NO"});

      const std::string prefix =
          "t" + std::to_string(num_threads) + "_ep" + std::to_string(ep) + "_";
      reporter.Report(prefix + "off_ns_per_iter", off.ns_per_iter, "ns");
      reporter.Report(prefix + "on_ns_per_iter", on.ns_per_iter, "ns");
      reporter.Report(prefix + "overhead_pct", delta_pct, "%");
      reporter.Report(prefix + "on_allocs_per_iter", on.allocs_per_iter);
      reporter.Report(prefix + "digest_match", digests_match ? 1.0 : 0.0);
    }
  }
  std::cout << table.Render() << "\n";
  PrintPaperNote(
      "no paper figure: pins the telemetry plane's overhead contract. "
      "Expected shape: delta under ~2% (relaxed atomic counter bumps + one "
      "span-ring store per iteration and phase), ON allocs/it exactly 0, "
      "digests identical -- observation never changes a served bit.");

  if (!contract_clean) {
    std::cout << "FAIL: telemetry ON allocated in steady state or changed "
                 "a served digest -- the observation contract is broken\n";
    return 1;
  }
  return 0;
}
