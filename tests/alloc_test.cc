// The allocation-count regression tier (docs/ARCHITECTURE.md, "The
// allocation plane").
//
// Three layers of pinning:
//  1. The allocator primitives themselves (AllocCounter interposition,
//     FixedPool, InlineVec): capacity retention, loud CheckError on
//     exhaustion.
//  2. The tentpole contract: a steady-state MoeServer::StepIteration --
//     admission, packing, routing, the full functional executor pass across
//     every rank, harvesting and retirement -- performs ZERO heap
//     allocations, across host threads {1,8} x EP {1,4} x dtype
//     {f32,bf16}. The counter is process-wide, so an allocation on a pool
//     worker or a parked rank thread fails the test just like one on the
//     serving loop.
//  3. Digest pins: the zero-allocation refactor must be bit-invisible.
//     Serving reports (combined digest, per-request latency bit patterns,
//     iteration/token counts, simulated duration) and the cluster plane's
//     per-request digest are pinned to golden values captured BEFORE the
//     refactor. Any future "optimization" that changes a rounding point, a
//     draw order or the packing discipline trips these before it lands.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "hw/gpu_spec.h"
#include "serve/cluster.h"
#include "serve/loadgen.h"
#include "serve/request.h"
#include "serve/server.h"
#include "util/alloc_counter.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/inline_vec.h"

namespace comet {
namespace {

using util::AllocCounter;
using util::AllocStats;
using util::AllocWindow;
using util::FixedPool;
using util::InlineVec;

// ---- the counter itself ----------------------------------------------------

TEST(AllocCounter, InterposerIsLinkedIn) {
  // If this fails, the build stopped linking alloc_counter.cc's operator
  // new/delete into the test binary and every zero-allocation assertion
  // below is vacuous.
  ASSERT_TRUE(AllocCounter::Interposed());
}

TEST(AllocCounter, CountsOnlyInsideWindow) {
  std::vector<int> warm;
  warm.reserve(1);  // outside any window: never counted
  uint64_t before;
  {
    AllocWindow w;
    before = w.Snapshot().allocs;
    // Direct operator-new call: a new-EXPRESSION paired with its delete may
    // legally be elided at -O3, which would make this test vacuous.
    void* p = ::operator new(32);
    ::operator delete(p);
    const AllocStats s = w.Snapshot();
    EXPECT_GE(s.allocs, before + 1);
    EXPECT_GE(s.frees, 1u);
    EXPECT_GE(s.bytes, 32u);
  }
  EXPECT_FALSE(AllocCounter::enabled());
}

TEST(AllocCounter, AttributesToThread) {
  AllocWindow w;
  void* p = ::operator new(sizeof(double));  // not elidable (see above)
  ::operator delete(p);
  EXPECT_GE(AllocCounter::Thread().allocs, 1u);
}

// ---- FixedPool -------------------------------------------------------------

TEST(FixedPool, AcquireReleaseCyclesAreAllocationFree) {
  FixedPool<std::vector<int>> pool(4);
  // Warm the pooled objects' internal capacity.
  std::vector<std::vector<int>*> held;
  for (int i = 0; i < 4; ++i) {
    held.push_back(pool.Acquire());
    held.back()->reserve(64);
  }
  for (auto* p : held) {
    pool.Release(p);
  }

  AllocWindow w;
  for (int iter = 0; iter < 100; ++iter) {
    auto* p = pool.Acquire();
    p->clear();
    for (int i = 0; i < 64; ++i) {
      p->push_back(i);  // within warmed capacity
    }
    pool.Release(p);
  }
  EXPECT_EQ(w.Snapshot().allocs, 0u);
}

TEST(FixedPool, ReleasedObjectsKeepTheirBuffers) {
  FixedPool<std::vector<int>> pool(1);
  auto* p = pool.Acquire();
  p->reserve(128);
  const size_t cap = p->capacity();
  pool.Release(p);
  auto* q = pool.Acquire();
  EXPECT_EQ(q, p) << "single-object pool must hand back the same storage";
  EXPECT_GE(q->capacity(), cap) << "release must not shed capacity";
  pool.Release(q);
}

TEST(FixedPool, ExhaustionThrowsLoudly) {
  FixedPool<int> pool(2);
  int* a = pool.Acquire();
  int* b = pool.Acquire();
  EXPECT_THROW(pool.Acquire(), CheckError);
  pool.Release(a);
  EXPECT_NO_THROW(pool.Release(b));
  EXPECT_THROW(pool.Release(a), CheckError) << "double release";
  EXPECT_EQ(pool.capacity(), 2u);
  EXPECT_EQ(pool.outstanding(), 0u);
}

// ---- InlineVec -------------------------------------------------------------

TEST(InlineVec, StaysInlineUpToN) {
  AllocWindow w;
  InlineVec<int64_t, 8> v;
  for (int64_t i = 0; i < 8; ++i) {
    v.push_back(i);
  }
  EXPECT_TRUE(v.is_inline());
  InlineVec<int64_t, 8> copy = v;  // copies are inline too
  EXPECT_TRUE(copy.is_inline());
  EXPECT_EQ(copy, v);
  std::vector<InlineVec<int64_t, 8>> table;
  table.reserve(16);
  for (int i = 0; i < 16; ++i) {
    table.push_back(v);  // the RoutingTable pattern
  }
  EXPECT_EQ(w.Snapshot().allocs, 1u) << "only the table's own reserve";
}

TEST(InlineVec, SpillsBeyondNAndStaysCorrect) {
  InlineVec<int64_t, 4> v;
  for (int64_t i = 0; i < 12; ++i) {
    v.push_back(i);
  }
  EXPECT_FALSE(v.is_inline());
  ASSERT_EQ(v.size(), 12u);
  for (int64_t i = 0; i < 12; ++i) {
    EXPECT_EQ(v[static_cast<size_t>(i)], i);
  }
  InlineVec<int64_t, 4> copy = v;
  EXPECT_EQ(copy, v);
  v.clear();
  EXPECT_TRUE(v.empty());
}

// ---- the serving scenario (mirrors serve_test's helpers) -------------------

ModelConfig ServeModel() {
  ModelConfig m;
  m.name = "serve-tiny";
  m.layers = 1;
  m.num_experts = 8;
  m.topk = 2;
  m.embedding = 32;
  m.ffn_hidden = 64;
  return m;
}

ServeOptions BaseServeOptions(int ep, DType dtype, int num_threads) {
  ServeOptions o;
  o.model = ServeModel();
  o.parallel = ParallelConfig{1, ep};
  o.seed = 1234;
  o.dtype = dtype;
  o.num_threads = num_threads;
  o.token_budget = 16;
  o.max_active = 8;
  o.queue_capacity = 64;
  return o;
}

LoadGenOptions BaseLoadOptions(int64_t n = 24) {
  LoadGenOptions o;
  o.seed = 77;
  o.offered_rps = 2000.0;
  o.num_requests = n;
  o.prompt = LengthDist::Uniform(2, 6);
  o.decode = LengthDist::Uniform(0, 4);
  return o;
}

// ---- the tentpole: zero allocations per steady-state StepIteration ---------

// Drives a server through the dispatcher hooks under saturating load: offer
// a trickle each iteration so the queue never drains, warm up past every
// capacity high-water mark (pool buffers, nc memo for the saturated batch
// shape, executor output slabs), then count a mid-run window.
void ExpectZeroAllocSteadyState(int num_threads, int ep, DType dtype,
                                bool telemetry = false) {
  SCOPED_TRACE(testing::Message() << "threads=" << num_threads << " ep=" << ep
                                  << " dtype=" << DTypeName(dtype)
                                  << " telemetry=" << telemetry);
  constexpr int64_t kRequests = 220;
  constexpr int kWarmupIters = 12;
  constexpr int kWindowIters = 24;
  constexpr int kOfferPerIter = 3;

  std::vector<RequestSpec> arrivals;
  int64_t max_prompt = 0, max_decode = 0, total_tokens = 0;
  for (int64_t i = 0; i < kRequests; ++i) {
    RequestSpec r;
    r.id = i;
    r.seed = static_cast<uint64_t>(i) * 1000003ULL + 5;
    r.prompt_tokens = 2 + (i % 5);  // 2..6, like the golden load
    r.decode_tokens = i % 5;        // 0..4
    r.arrival_us = 0.0;
    max_prompt = std::max(max_prompt, r.prompt_tokens);
    max_decode = std::max(max_decode, r.decode_tokens);
    total_tokens += r.TotalTokens();
    arrivals.push_back(r);
  }

  ServeOptions options = BaseServeOptions(ep, dtype, num_threads);
  options.telemetry.enabled = telemetry;
  MoeServer server(options, H800Cluster(ep));
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
  double now = 0.0, end = 0.0;
  for (int i = 0; i < kWarmupIters; ++i) {
    offer_some();
    ASSERT_TRUE(server.StepIteration(now, &end));
    now = end;
  }

  AllocStats stats;
  {
    AllocWindow w;
    for (int i = 0; i < kWindowIters; ++i) {
      offer_some();
      ASSERT_TRUE(server.StepIteration(now, &end));
      now = end;
    }
    stats = w.Snapshot();
  }
  EXPECT_EQ(stats.allocs, 0u)
      << stats.allocs << " heap allocations (" << stats.bytes
      << " bytes) leaked into " << kWindowIters
      << " steady-state iterations; set COMET_ALLOC_TRAP=1 to get a "
         "backtrace at the first one";
  EXPECT_EQ(stats.frees, 0u);

  // The run must still finish and account coherently after the window.
  while (server.StepIteration(now, &end)) {
    offer_some();
    now = end;
  }
  while (next < arrivals.size()) {
    server.Offer(arrivals[next++]);
    while (server.StepIteration(now, &end)) {
      now = end;
    }
  }
  const ServeReport report = server.BuildReport(now);
  EXPECT_EQ(static_cast<int64_t>(report.completed.size()) + report.shed,
            kRequests);
}

TEST(ZeroAllocServing, SteadyStateAcrossThreadsEpDtype) {
  for (int num_threads : {1, 8}) {
    for (int ep : {1, 4}) {
      for (DType dtype : {DType::kF32, DType::kBF16}) {
        ExpectZeroAllocSteadyState(num_threads, ep, dtype);
      }
    }
  }
}

// The telemetry plane's recording (registry counters/gauges/histograms +
// the span ring, all live in this window) must be as allocation-free as the
// loop it observes: same window, telemetry ON.
TEST(ZeroAllocServing, SteadyStateWithTelemetryOn) {
  for (int num_threads : {1, 8}) {
    for (int ep : {1, 4}) {
      ExpectZeroAllocSteadyState(num_threads, ep, DType::kF32,
                                 /*telemetry=*/true);
    }
  }
}

// A window that admits requests into pooled LiveRequests no earlier
// iteration ever used: warm-up keeps at most a few requests live (long
// prompts, one offered per iteration), then the window floods the batcher
// with short requests up to max_active. Every batch packs exactly
// token_budget tokens, so only the fresh pool objects are new.
TEST(ZeroAllocServing, FirstUseOfPooledRequestsIsAllocationFree) {
  constexpr int64_t kWarmRequests = 16;
  constexpr int64_t kWindowRequests = 40;
  constexpr int kWindowIters = 8;
  ServeOptions options = BaseServeOptions(1, DType::kF32, 1);
  options.max_active = 16;
  std::vector<RequestSpec> arrivals;
  for (int64_t i = 0; i < kWarmRequests + kWindowRequests; ++i) {
    RequestSpec r;
    r.id = i;
    r.seed = static_cast<uint64_t>(i) * 1000003ULL + 5;
    const bool warm = i < kWarmRequests;
    r.prompt_tokens = warm ? options.token_budget : 1;
    r.decode_tokens = warm ? 1 : 3;
    arrivals.push_back(r);
  }
  MoeServer server(options, H800Cluster(1));
  MoeServer::RunBounds bounds;
  bounds.expected_requests = static_cast<int64_t>(arrivals.size());
  bounds.expected_tokens = kWarmRequests * (options.token_budget + 1) +
                           kWindowRequests * 4;
  bounds.max_prompt_tokens = options.token_budget;
  bounds.max_decode_tokens = 3;
  server.BeginRun(bounds);

  double now = 0.0, end = 0.0;
  for (int64_t i = 0; i < kWarmRequests; ++i) {
    server.Offer(arrivals[static_cast<size_t>(i)]);
    ASSERT_TRUE(server.StepIteration(now, &end));
    now = end;
  }
  for (int64_t i = kWarmRequests; i < kWarmRequests + kWindowRequests; ++i) {
    server.Offer(arrivals[static_cast<size_t>(i)]);
  }
  const int64_t tokens_before = server.View().batched_tokens;
  AllocStats stats;
  {
    AllocWindow w;
    for (int i = 0; i < kWindowIters; ++i) {
      ASSERT_TRUE(server.StepIteration(now, &end));
      now = end;
    }
    stats = w.Snapshot();
  }
  ASSERT_EQ(server.View().batched_tokens - tokens_before,
            kWindowIters * options.token_budget)
      << "a partial batch is a new shape, which may allocate legitimately";
  EXPECT_EQ(stats.allocs, 0u) << stats.allocs << " heap allocations ("
                              << stats.bytes << " bytes)";
  EXPECT_EQ(stats.frees, 0u);
}

// ---- digest pins: the refactor is bit-invisible ----------------------------

// Golden values captured on the pre-refactor serving plane (allocating
// BuildBatchWorkload / RunBatch path), serving BaseLoadOptions(24) through
// BaseServeOptions(ep, dtype, 1). Latency values are pinned as f64 bit
// patterns -- "close" is not a thing the simulated clock is allowed to be.
struct ServeGolden {
  int ep;
  DType dtype;
  uint64_t combined_digest;
  uint64_t req_digest;  // FNV over (id, output_digest, queue_wait, ttft,
                        // e2e, mean_itl) of every completed record, id order
  int64_t completed;
  int64_t shed;
  int64_t iterations;
  int64_t batched_tokens;
  uint64_t ttft_p50_bits;
  uint64_t ttft_p99_bits;
  uint64_t itl_p99_bits;
  uint64_t e2e_p99_bits;
  uint64_t queue_wait_p99_bits;
  uint64_t sim_duration_bits;
};

constexpr ServeGolden kServeGoldens[] = {
    {1, DType::kF32, 0x090039d1a50fb32eULL, 0xea27038452594fc1ULL, 24, 0, 57,
     141, 0x404bcf4c84e55f00ULL, 0x40586738b88d7fc0ULL, 0x404bcf5869d5e200ULL,
     0x40733d6ea7e7a97cULL, 0x4044ff2adeade200ULL, 0x40c51c5984fedcd3ULL},
    {1, DType::kBF16, 0xe7ca02ae05f060c2ULL, 0x9e3759e4bd910e3dULL, 24, 0, 57,
     141, 0x404bcf4c84e55f00ULL, 0x40586738b88d7fc0ULL, 0x404bcf5869d5e200ULL,
     0x40733d6ea7e7a97cULL, 0x4044ff2adeade200ULL, 0x40c51c5984fedcd3ULL},
    {4, DType::kF32, 0x090039d1a50fb32eULL, 0x2b6f7bc81942d53fULL, 24, 0, 57,
     141, 0x404d69934a694540ULL, 0x405a2595ce77ada0ULL, 0x404d69b785750a80ULL,
     0x40753e21a33ba8d4ULL, 0x4046e22659815c40ULL, 0x40c51df35de6c0a0ULL},
    {4, DType::kBF16, 0xe7ca02ae05f060c2ULL, 0x2e42094ea5f04d13ULL, 24, 0, 57,
     141, 0x404d69934a694540ULL, 0x405a2595ce77ada0ULL, 0x404d69b785750a80ULL,
     0x40753e21a33ba8d4ULL, 0x4046e22659815c40ULL, 0x40c51df35de6c0a0ULL},
};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

uint64_t RequestDigest(const std::vector<RequestRecord>& completed) {
  uint64_t h = Fnv1aInit();
  for (const RequestRecord& c : completed) {
    h = Fnv1aAdd(h, &c.id, sizeof(c.id));
    h = Fnv1aAdd(h, &c.output_digest, sizeof(c.output_digest));
    h = Fnv1aAdd(h, &c.queue_wait_us, sizeof(c.queue_wait_us));
    h = Fnv1aAdd(h, &c.ttft_us, sizeof(c.ttft_us));
    h = Fnv1aAdd(h, &c.e2e_us, sizeof(c.e2e_us));
    h = Fnv1aAdd(h, &c.mean_itl_us, sizeof(c.mean_itl_us));
  }
  return h;
}

TEST(DigestPin, ServeReportsMatchPreRefactorGoldens) {
  for (const ServeGolden& g : kServeGoldens) {
    // The goldens were captured single-threaded; the data plane is
    // thread-count invariant, so they must hold at 8 threads too.
    for (int num_threads : {1, 8}) {
      SCOPED_TRACE(testing::Message()
                   << "ep=" << g.ep << " dtype=" << DTypeName(g.dtype)
                   << " threads=" << num_threads);
      const auto arrivals = LoadGenerator(BaseLoadOptions()).GenerateAll();
      MoeServer server(BaseServeOptions(g.ep, g.dtype, num_threads),
                       H800Cluster(g.ep));
      const ServeReport r = server.Serve(arrivals);

      EXPECT_EQ(r.combined_digest, g.combined_digest);
      EXPECT_EQ(RequestDigest(r.completed), g.req_digest);
      EXPECT_EQ(static_cast<int64_t>(r.completed.size()), g.completed);
      EXPECT_EQ(r.shed, g.shed);
      EXPECT_EQ(r.iterations, g.iterations);
      EXPECT_EQ(r.batched_tokens, g.batched_tokens);
      EXPECT_EQ(Bits(r.ttft_us.p50), g.ttft_p50_bits);
      EXPECT_EQ(Bits(r.ttft_us.p99), g.ttft_p99_bits);
      EXPECT_EQ(Bits(r.itl_us.p99), g.itl_p99_bits);
      EXPECT_EQ(Bits(r.e2e_us.p99), g.e2e_p99_bits);
      EXPECT_EQ(Bits(r.queue_wait_us.p99), g.queue_wait_p99_bits);
      EXPECT_EQ(Bits(r.sim_duration_us), g.sim_duration_bits);
    }
  }
}

TEST(DigestPin, ClusterRunMatchesPreRefactorGolden) {
  ClusterOptions co;
  co.server = BaseServeOptions(2, DType::kBF16, 1);
  co.replicas = 2;
  co.placement = PlacementPolicy::kPowerOfTwo;
  const auto arrivals = LoadGenerator(BaseLoadOptions(32)).GenerateAll();
  MoeCluster cluster(co, H800Cluster(2));
  const ClusterReport r = cluster.Run(arrivals);

  uint64_t req_digest = Fnv1aInit();
  for (const RequestRecord& c : r.completed) {
    req_digest = Fnv1aAdd(req_digest, &c.id, sizeof(c.id));
    req_digest = Fnv1aAdd(req_digest, &c.output_digest,
                          sizeof(c.output_digest));
    req_digest = Fnv1aAdd(req_digest, &c.ttft_us, sizeof(c.ttft_us));
    req_digest = Fnv1aAdd(req_digest, &c.e2e_us, sizeof(c.e2e_us));
  }
  EXPECT_EQ(req_digest, 0xfbf4acda239cfa0dULL);
  EXPECT_EQ(static_cast<int64_t>(r.completed.size()), 32);
  EXPECT_EQ(r.shed, 0);
  EXPECT_EQ(r.dispatched, 32);
}

// The chaos golden: one fleet with every cluster mechanism live at once --
// 3 replicas behind p2c, drifting synthetic skew with the adaptation loop
// closed, fail -> recover on one replica and corrupt -> recover on another,
// backoff retries with seeded jitter, hedging, the dispatch log and
// telemetry. Every report field, the f64 bits of all four latency
// summaries, the dispatch log and the three telemetry exports are pinned.
ClusterOptions ChaosClusterOptions(int num_threads, double span_us) {
  ClusterOptions co;
  co.server = BaseServeOptions(2, DType::kF32, num_threads);
  co.server.routing = ServeRoutingMode::kSynthetic;
  co.server.synthetic_load_std = 0.1;
  co.server.drift_period_us = span_us / 4.0;
  co.server.adaptation.enabled = true;
  co.server.adaptation.hot_factor = 1.4;
  co.server.adaptation.cool_factor = 1.1;
  co.server.adaptation.cooldown_iterations = 4;
  co.server.telemetry.enabled = true;
  co.server.slo.ttft_us = 400.0;
  co.server.slo.itl_us = 120.0;
  co.replicas = 3;
  co.placement = PlacementPolicy::kPowerOfTwo;
  co.placement_seed = 9;
  co.in_flight = InFlightPolicy::kRetryBackoff;
  co.retry_budget = 2;
  co.retry_backoff_us = 60.0;
  co.hedge_queue_wait_us = 80.0;
  co.health.probe_backoff_us = 200.0;
  co.recovery_warmup_us = 100.0;
  co.record_dispatch_log = true;
  co.faults.events = {{0.3 * span_us, 1, FaultKind::kFail},
                      {0.45 * span_us, 2, FaultKind::kCorrupt},
                      {0.6 * span_us, 1, FaultKind::kRecover},
                      {0.8 * span_us, 2, FaultKind::kRecover}};
  return co;
}

using Pins = std::vector<std::pair<std::string, uint64_t>>;

uint64_t Fnv1aString(const std::string& s) {
  return Fnv1aAdd(Fnv1aInit(), s.data(), s.size());
}

Pins ChaosPins(const MoeCluster& cluster, const ClusterReport& r) {
  const auto u = [](int64_t v) { return static_cast<uint64_t>(v); };
  Pins pins = {
      {"completed", r.completed.size()},
      {"offered", u(r.offered)},
      {"dispatched", u(r.dispatched)},
      {"shed", u(r.shed)},
      {"failed_in_flight", u(r.failed_in_flight)},
      {"retries_exhausted", u(r.retries_exhausted)},
      {"redispatched", u(r.redispatched)},
      {"retries", u(r.retries)},
      {"hedged", u(r.hedged)},
      {"hedge_wins", u(r.hedge_wins)},
      {"wasted_tokens", u(r.wasted_tokens)},
      {"iterations", u(r.iterations)},
      {"batched_tokens", u(r.batched_tokens)},
      {"padding_tokens", u(r.padding_tokens)},
      {"promotions", u(r.promotions)},
      {"retirements", u(r.retirements)},
      {"replicated_rows", u(r.replicated_rows)},
      {"replica_failures", u(r.replica_failures)},
      {"replicas_drained", u(r.replicas_drained)},
      {"replicas_recovered", u(r.replicas_recovered)},
      {"corruptions_detected", u(r.corruptions_detected)},
      {"breaker_opens", u(r.breaker_opens)},
      {"probes", u(r.probes)},
      {"sim_duration_us", Bits(r.sim_duration_us)},
      {"throughput_tokens_per_s", Bits(r.throughput_tokens_per_s)},
      {"slo_attainment", Bits(r.slo_attainment)},
      {"slo_violations", u(r.slo_violations)},
      {"combined_digest", r.combined_digest},
  };
  for (size_t i = 0; i < r.per_replica_completed.size(); ++i) {
    pins.emplace_back("per_replica_completed." + std::to_string(i),
                      u(r.per_replica_completed[i]));
  }
  for (size_t i = 0; i < r.per_replica_iterations.size(); ++i) {
    pins.emplace_back("per_replica_iterations." + std::to_string(i),
                      u(r.per_replica_iterations[i]));
  }
  const std::pair<const char*, const LatencySummary*> summaries[] = {
      {"queue_wait", &r.queue_wait_us},
      {"ttft", &r.ttft_us},
      {"itl", &r.itl_us},
      {"e2e", &r.e2e_us}};
  for (const auto& [name, s] : summaries) {
    const std::string p = name;
    pins.emplace_back(p + ".count", s->count);
    pins.emplace_back(p + ".mean", Bits(s->mean));
    pins.emplace_back(p + ".min", Bits(s->min));
    pins.emplace_back(p + ".max", Bits(s->max));
    pins.emplace_back(p + ".p50", Bits(s->p50));
    pins.emplace_back(p + ".p95", Bits(s->p95));
    pins.emplace_back(p + ".p99", Bits(s->p99));
  }
  uint64_t req = RequestDigest(r.completed);
  for (const RequestRecord& c : r.completed) {
    req = Fnv1aAdd(req, &c.retries, sizeof(c.retries));
    req = Fnv1aAdd(req, &c.hedged, sizeof(c.hedged));
  }
  pins.emplace_back("request_digest", req);
  uint64_t log = Fnv1aInit();
  for (const DispatchDecision& d : r.dispatch_log) {
    const int64_t ints[] = {d.request_id,
                            static_cast<int64_t>(d.session),
                            d.replica,
                            static_cast<int64_t>(d.accepting_mask),
                            d.candidate_a,
                            d.candidate_b,
                            d.load_a,
                            d.load_b,
                            d.sticky_hit,
                            d.redispatch,
                            d.retry,
                            d.hedge,
                            d.probe};
    log = Fnv1aAdd(log, ints, sizeof(ints));
    log = Fnv1aAdd(log, &d.time_us, sizeof(d.time_us));
  }
  pins.emplace_back("dispatch_log.size", r.dispatch_log.size());
  pins.emplace_back("dispatch_log", log);
  pins.emplace_back("chrome_trace", Fnv1aString(cluster.ExportChromeTrace()));
  pins.emplace_back("prometheus", Fnv1aString(cluster.ExportPrometheusText()));
  pins.emplace_back("jsonl", Fnv1aString(cluster.ExportTelemetryJsonl()));
  return pins;
}

const Pins kChaosGolden = {
    {"completed", 0x0000000000000040ULL},
    {"offered", 0x0000000000000040ULL},
    {"dispatched", 0x0000000000000044ULL},
    {"shed", 0x0000000000000000ULL},
    {"failed_in_flight", 0x0000000000000000ULL},
    {"retries_exhausted", 0x0000000000000000ULL},
    {"redispatched", 0x0000000000000002ULL},
    {"retries", 0x0000000000000002ULL},
    {"hedged", 0x0000000000000002ULL},
    {"hedge_wins", 0x0000000000000001ULL},
    {"wasted_tokens", 0x0000000000000006ULL},
    {"iterations", 0x0000000000000051ULL},
    {"batched_tokens", 0x0000000000000194ULL},
    {"padding_tokens", 0x0000000000000030ULL},
    {"promotions", 0x0000000000000008ULL},
    {"retirements", 0x0000000000000005ULL},
    {"replicated_rows", 0x000000000000003bULL},
    {"replica_failures", 0x0000000000000002ULL},
    {"replicas_drained", 0x0000000000000000ULL},
    {"replicas_recovered", 0x0000000000000002ULL},
    {"corruptions_detected", 0x0000000000000001ULL},
    {"breaker_opens", 0x0000000000000002ULL},
    {"probes", 0x0000000000000002ULL},
    {"sim_duration_us", 0x40a45e9803d2c90fULL},
    {"throughput_tokens_per_s", 0x4102ea2dfd44d7aaULL},
    {"slo_attainment", 0x3fef800000000000ULL},
    {"slo_violations", 0x0000000000000001ULL},
    {"combined_digest", 0xd6d240772e51dd7aULL},
    {"per_replica_completed.0", 0x0000000000000021ULL},
    {"per_replica_completed.1", 0x000000000000000fULL},
    {"per_replica_completed.2", 0x0000000000000010ULL},
    {"per_replica_iterations.0", 0x0000000000000020ULL},
    {"per_replica_iterations.1", 0x0000000000000017ULL},
    {"per_replica_iterations.2", 0x000000000000001aULL},
    {"queue_wait.count", 0x0000000000000040ULL},
    {"queue_wait.mean", 0x404bc83504646e0eULL},
    {"queue_wait.min", 0x0000000000000000ULL},
    {"queue_wait.max", 0x407879cfd702b2f0ULL},
    {"queue_wait.p50", 0x40288b4b26241b00ULL},
    {"queue_wait.p95", 0x4071395ca09d84c0ULL},
    {"queue_wait.p99", 0x407879cfd702b2f0ULL},
    {"ttft.count", 0x0000000000000040ULL},
    {"ttft.mean", 0x405d49691b9c1a9eULL},
    {"ttft.min", 0x404d68eb0c8b13f2ULL},
    {"ttft.max", 0x407c26f889c73dfcULL},
    {"ttft.p50", 0x405254cba7b79650ULL},
    {"ttft.p95", 0x4074e696265eae54ULL},
    {"ttft.p99", 0x407c26f889c73dfcULL},
    {"itl.count", 0x000000000000007eULL},
    {"itl.mean", 0x404d663967b63eb7ULL},
    {"itl.min", 0x404bcf34bb0458a0ULL},
    {"itl.max", 0x404d73bd098a1f40ULL},
    {"itl.p50", 0x404d6928de3736c0ULL},
    {"itl.p95", 0x404d6a031cd95980ULL},
    {"itl.p99", 0x404d6e46ef992400ULL},
    {"e2e.count", 0x0000000000000040ULL},
    {"e2e.mean", 0x406d1d04ced9c02dULL},
    {"e2e.min", 0x404d692ed0af784cULL},
    {"e2e.max", 0x40856dba26d21df4ULL},
    {"e2e.p50", 0x406d693b73ef03b0ULL},
    {"e2e.p95", 0x407c40e090014848ULL},
    {"e2e.p99", 0x40856dba26d21df4ULL},
    {"request_digest", 0x9cc2f99d44798194ULL},
    {"dispatch_log.size", 0x0000000000000044ULL},
    {"dispatch_log", 0x31529e7b202cd549ULL},
    {"chrome_trace", 0xce32d9f156d994a9ULL},
    {"prometheus", 0x96d720550521e706ULL},
    {"jsonl", 0x06c624cf92c08296ULL},
};

TEST(DigestPin, ChaosClusterMatchesPreRefactorGolden) {
  LoadGenOptions load = BaseLoadOptions(64);
  load.offered_rps = 20000.0;
  load.arrival = ArrivalProcess::kBursty;
  load.num_sessions = 8;
  const auto arrivals = LoadGenerator(load).GenerateAll();
  for (int num_threads : {1, 8}) {
    SCOPED_TRACE(testing::Message() << "threads=" << num_threads);
    MoeCluster cluster(
        ChaosClusterOptions(num_threads, arrivals.back().arrival_us),
        H800Cluster(2));
    const ClusterReport r = cluster.Run(arrivals);
    const Pins pins = ChaosPins(cluster, r);
    // On a mismatch, print every pin in the table's own syntax.
    std::string actual;
    for (const auto& [name, value] : pins) {
      char line[96];
      std::snprintf(line, sizeof(line), "    {\"%s\", 0x%016llxULL},\n",
                    name.c_str(), static_cast<unsigned long long>(value));
      actual += line;
    }
    ASSERT_EQ(pins.size(), kChaosGolden.size()) << actual;
    for (size_t i = 0; i < pins.size(); ++i) {
      EXPECT_EQ(pins[i].first, kChaosGolden[i].first);
      EXPECT_EQ(pins[i].second, kChaosGolden[i].second)
          << pins[i].first << "; actual pins:\n" << actual;
    }
  }
}

}  // namespace
}  // namespace comet
