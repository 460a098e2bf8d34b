// Serving-plane tests: admission queue (bounded MPMC + shed policies),
// load generator (seeded open-loop arrivals), continuous batcher (randomized
// packing property tests), and the end-to-end server.
//
// The acceptance invariant of the subsystem: a serving run is a pure
// function of (seed, config). Identical seed/config produce bit-identical
// per-request output digests and identical simulated-clock latency
// percentiles at 1 and 8 host threads, across EP {1,4} and dtype
// {f32,bf16} -- the thread/rank-count bit-exactness of the data plane
// (PRs 2-4) lifted to the serving layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "comm/symmetric_heap.h"
#include "serve/admission_queue.h"
#include "serve/batcher.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "util/check.h"
#include "util/rng.h"

namespace comet {
namespace {

// ---- admission queue -------------------------------------------------------

RequestSpec Req(int64_t id, int64_t prompt = 4, int64_t decode = 2,
                double arrival_us = 0.0) {
  RequestSpec r;
  r.id = id;
  r.seed = static_cast<uint64_t>(id) * 1000003ULL + 5;
  r.prompt_tokens = prompt;
  r.decode_tokens = decode;
  r.arrival_us = arrival_us;
  return r;
}

TEST(AdmissionQueue, FifoOrder) {
  AdmissionQueue q(8);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(q.TryPush(Req(i)));
  }
  EXPECT_EQ(q.size(), 5);
  for (int64_t i = 0; i < 5; ++i) {
    const auto r = q.TryPop();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->id, i);
  }
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(AdmissionQueue, ShedNewestRejectsWhenFull) {
  AdmissionQueue q(2);
  EXPECT_TRUE(q.TryPush(Req(0)));
  EXPECT_TRUE(q.TryPush(Req(1)));
  EXPECT_FALSE(q.TryPush(Req(2)));
  EXPECT_EQ(q.size(), 2);
  EXPECT_EQ(q.total_admitted(), 2);
  EXPECT_EQ(q.total_shed(), 1);
  // The survivors are the OLDEST two.
  EXPECT_EQ(q.TryPop()->id, 0);
  EXPECT_EQ(q.TryPop()->id, 1);
}

TEST(AdmissionQueue, CloseWakesBlockedConsumer) {
  AdmissionQueue q(4);
  std::optional<RequestSpec> got = Req(99);
  std::thread consumer([&] { got = q.Pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
  EXPECT_FALSE(got.has_value());
  EXPECT_FALSE(q.TryPush(Req(1))) << "closed queue sheds everything";
}

TEST(AdmissionQueue, RejectsNonPositiveCapacity) {
  EXPECT_THROW(AdmissionQueue(0), CheckError);
}

// The MPMC contract under real threads (the TSan job runs this suite):
// every produced request is either popped exactly once or counted shed,
// never duplicated, never lost.
TEST(AdmissionQueue, MpmcConservationUnderContention) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 200;
  AdmissionQueue q(16);

  std::vector<std::thread> threads;
  std::vector<std::vector<int64_t>> popped(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      while (const auto r = q.Pop()) {
        popped[static_cast<size_t>(c)].push_back(r->id);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.TryPush(Req(static_cast<int64_t>(p) * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  // Let the consumers drain, then release them.
  while (q.size() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  q.Close();
  for (auto& t : threads) {
    t.join();
  }

  std::set<int64_t> seen;
  int64_t total_popped = 0;
  for (const auto& v : popped) {
    for (int64_t id : v) {
      EXPECT_TRUE(seen.insert(id).second) << "duplicate pop of id " << id;
      ++total_popped;
    }
  }
  EXPECT_EQ(total_popped, q.total_admitted());
  EXPECT_EQ(q.total_admitted() + q.total_shed(),
            static_cast<int64_t>(kProducers) * kPerProducer);
}

// ---- load generator --------------------------------------------------------

TEST(LoadGen, DeterministicForSameSeed) {
  LoadGenOptions options;
  options.seed = 42;
  options.num_requests = 50;
  options.arrival = ArrivalProcess::kBursty;
  LoadGenerator a(options);
  LoadGenerator b(options);
  const auto ra = a.GenerateAll();
  const auto rb = b.GenerateAll();
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].id, rb[i].id);
    EXPECT_EQ(ra[i].seed, rb[i].seed);
    EXPECT_EQ(ra[i].prompt_tokens, rb[i].prompt_tokens);
    EXPECT_EQ(ra[i].decode_tokens, rb[i].decode_tokens);
    EXPECT_EQ(ra[i].arrival_us, rb[i].arrival_us);
  }
}

TEST(LoadGen, ArrivalsAreMonotone) {
  for (ArrivalProcess p : {ArrivalProcess::kPoisson, ArrivalProcess::kBursty}) {
    LoadGenOptions options;
    options.seed = 7;
    options.arrival = p;
    options.num_requests = 200;
    const auto reqs = LoadGenerator(options).GenerateAll();
    ASSERT_EQ(reqs.size(), 200u);
    for (size_t i = 1; i < reqs.size(); ++i) {
      EXPECT_GE(reqs[i].arrival_us, reqs[i - 1].arrival_us)
          << ArrivalProcessName(p);
    }
  }
}

TEST(LoadGen, PoissonHitsOfferedRate) {
  LoadGenOptions options;
  options.seed = 3;
  options.offered_rps = 1000.0;  // mean gap 1000 us
  options.num_requests = 5000;
  const auto reqs = LoadGenerator(options).GenerateAll();
  const double mean_gap =
      reqs.back().arrival_us / static_cast<double>(reqs.size());
  EXPECT_NEAR(mean_gap, 1000.0, 50.0);
}

TEST(LoadGen, BurstyPreservesRateAndBunchesArrivals) {
  LoadGenOptions options;
  options.seed = 11;
  options.offered_rps = 1000.0;
  options.arrival = ArrivalProcess::kBursty;
  options.mean_burst = 5.0;
  options.num_requests = 5000;
  const auto reqs = LoadGenerator(options).GenerateAll();
  const double mean_gap =
      reqs.back().arrival_us / static_cast<double>(reqs.size());
  // Same long-run rate as Poisson (looser tolerance: burst-size variance).
  EXPECT_NEAR(mean_gap, 1000.0, 150.0);
  // ... but arrivals bunch: many consecutive pairs share a timestamp.
  int64_t simultaneous = 0;
  for (size_t i = 1; i < reqs.size(); ++i) {
    if (reqs[i].arrival_us == reqs[i - 1].arrival_us) {
      ++simultaneous;
    }
  }
  EXPECT_GT(simultaneous, static_cast<int64_t>(reqs.size()) / 2)
      << "mean burst 5 => ~4/5 of arrivals share an epoch timestamp";
}

TEST(LoadGen, LengthDistributionsRespectBounds) {
  LoadGenOptions options;
  options.seed = 5;
  options.num_requests = 500;
  options.prompt = LengthDist::Uniform(3, 9);
  options.decode = LengthDist::Bimodal(2, 40, 0.25);
  const auto reqs = LoadGenerator(options).GenerateAll();
  int64_t long_decodes = 0;
  for (const auto& r : reqs) {
    EXPECT_GE(r.prompt_tokens, 3);
    EXPECT_LE(r.prompt_tokens, 9);
    EXPECT_TRUE(r.decode_tokens == 2 || r.decode_tokens == 40);
    long_decodes += r.decode_tokens == 40 ? 1 : 0;
  }
  EXPECT_GT(long_decodes, 60);
  EXPECT_LT(long_decodes, 200);

  options.prompt = LengthDist::Fixed(6);
  for (const auto& r : LoadGenerator(options).GenerateAll()) {
    EXPECT_EQ(r.prompt_tokens, 6);
  }
}

TEST(LoadGen, RejectsBadOptions) {
  LoadGenOptions options;
  options.offered_rps = 0.0;
  EXPECT_THROW(LoadGenerator{options}, CheckError);
  options.offered_rps = 100.0;
  options.prompt = LengthDist::Fixed(0);  // empty prompts are not requests
  EXPECT_THROW(LoadGenerator{options}, CheckError);
  options.prompt = LengthDist::Fixed(4);
  options.mean_burst = 0.5;
  EXPECT_THROW(LoadGenerator{options}, CheckError);
}

// ---- continuous batcher ----------------------------------------------------

TEST(Batcher, DecodePreemptsPrefillAndChunksPrompts) {
  ContinuousBatcher b(BatcherOptions{.token_budget = 4});
  // Request 0: prompt 6, decode 2. Alone, it prefills in chunks 4 + 2.
  b.Admit(Req(0, /*prompt=*/6, /*decode=*/2));
  BatchPlan p1 = b.Pack();
  ASSERT_EQ(p1.entries.size(), 1u);
  EXPECT_FALSE(p1.entries[0].decode);
  EXPECT_EQ(p1.entries[0].num_tokens, 4);
  b.Complete(p1);

  // A newcomer shares the next iteration with request 0's prefill tail.
  b.Admit(Req(1, /*prompt=*/5, /*decode=*/0));
  BatchPlan p2 = b.Pack();
  ASSERT_EQ(p2.entries.size(), 2u);
  EXPECT_EQ(p2.entries[0].slot, 0);
  EXPECT_EQ(p2.entries[0].num_tokens, 2);  // finishes prompt 0
  EXPECT_EQ(p2.entries[1].slot, 1);
  EXPECT_EQ(p2.entries[1].num_tokens, 2);  // leftover budget, chunked
  b.Complete(p2);

  // Request 0 now decodes; decode outranks request 1's remaining prefill.
  BatchPlan p3 = b.Pack();
  ASSERT_EQ(p3.entries.size(), 2u);
  EXPECT_TRUE(p3.entries[0].decode);
  EXPECT_EQ(p3.entries[0].slot, 0);
  EXPECT_FALSE(p3.entries[1].decode);
  EXPECT_EQ(p3.entries[1].slot, 1);
  EXPECT_EQ(p3.entries[1].num_tokens, 3);
  const auto finished = b.Complete(p3);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_EQ(finished[0], 1);  // request 1 had no decode steps
}

TEST(Batcher, MaxActiveGatesAdmission) {
  ContinuousBatcher b(BatcherOptions{.token_budget = 8, .max_active = 2});
  b.Admit(Req(0));
  EXPECT_TRUE(b.CanAdmit());
  b.Admit(Req(1));
  EXPECT_FALSE(b.CanAdmit());
  EXPECT_THROW(b.Admit(Req(2)), CheckError);
  // Finishing a request frees a slot.
  while (b.HasLiveWork()) {
    b.Complete(b.Pack());
  }
  EXPECT_TRUE(b.CanAdmit());
}

// The satellite property suite: randomized request streams through
// Pack/Complete, asserting on EVERY iteration that
//  (a) the per-iteration token budget is never exceeded,
//  (b) decode entries precede prefill entries and each class is in
//      admission (FIFO) order with no skip-ahead,
//  (c) no (request, position) token is lost or duplicated across the run.
TEST(Batcher, RandomizedPackingInvariants) {
  Rng rng(20260729);
  for (int trial = 0; trial < 100; ++trial) {
    const int64_t budget = rng.UniformInt(1, 16);
    const int64_t max_active = rng.UniformInt(0, 6);  // 0 = unbounded
    ContinuousBatcher b(
        BatcherOptions{.token_budget = budget, .max_active = max_active});

    const int64_t num_requests = rng.UniformInt(1, 24);
    std::vector<RequestSpec> pending;
    for (int64_t i = 0; i < num_requests; ++i) {
      pending.push_back(
          Req(i, rng.UniformInt(1, 12), rng.UniformInt(0, 6)));
    }
    std::reverse(pending.begin(), pending.end());  // pop_back admits in order

    // (slot, position) -> scheduled count; filled as plans execute.
    std::map<std::pair<int64_t, int64_t>, int64_t> scheduled;
    std::vector<int64_t> admitted_slots;
    int64_t safety = 0;
    while (!pending.empty() || b.HasLiveWork()) {
      ASSERT_LT(++safety, 10000) << "batcher failed to make progress";
      // Stagger admission: a random number of arrivals join this round.
      int64_t admits = rng.UniformInt(0, 3);
      while (admits-- > 0 && !pending.empty() && b.CanAdmit()) {
        admitted_slots.push_back(b.Admit(pending.back()));
        pending.pop_back();
      }
      if (!b.HasLiveWork()) {
        continue;
      }

      // Eligibility snapshot BEFORE packing, for the FIFO assertions.
      std::vector<int64_t> eligible_decode, eligible_prefill;
      for (int64_t slot : admitted_slots) {
        if (b.finished(slot)) {
          continue;
        }
        const RequestSpec& spec = b.spec(slot);
        if (b.prefill_done(slot) < spec.prompt_tokens) {
          eligible_prefill.push_back(slot);
        } else if (b.decode_done(slot) < spec.decode_tokens) {
          eligible_decode.push_back(slot);
        }
      }

      const BatchPlan plan = b.Pack();
      // (a) budget.
      ASSERT_LE(plan.TotalTokens(), budget);
      // (b) class order + FIFO-without-skipping within each class: the
      // scheduled decode slots must be exactly a PREFIX of the eligible
      // decode slots (in order), and likewise for prefill.
      std::vector<int64_t> got_decode, got_prefill;
      bool seen_prefill = false;
      std::set<int64_t> slots_in_plan;
      for (const BatchEntry& e : plan.entries) {
        ASSERT_GT(e.num_tokens, 0);
        ASSERT_TRUE(slots_in_plan.insert(e.slot).second)
            << "slot " << e.slot << " appears twice in one plan";
        if (e.decode) {
          ASSERT_FALSE(seen_prefill) << "decode entry after prefill entry";
          got_decode.push_back(e.slot);
        } else {
          seen_prefill = true;
          got_prefill.push_back(e.slot);
        }
      }
      ASSERT_LE(got_decode.size(), eligible_decode.size());
      for (size_t i = 0; i < got_decode.size(); ++i) {
        ASSERT_EQ(got_decode[i], eligible_decode[i])
            << "decode class broke FIFO at position " << i;
      }
      ASSERT_LE(got_prefill.size(), eligible_prefill.size());
      for (size_t i = 0; i < got_prefill.size(); ++i) {
        ASSERT_EQ(got_prefill[i], eligible_prefill[i])
            << "prefill class broke FIFO at position " << i;
      }
      // (c) accounting: record each scheduled (slot, position).
      for (const BatchEntry& e : plan.entries) {
        for (int64_t i = 0; i < e.num_tokens; ++i) {
          ++scheduled[{e.slot, e.start_pos + i}];
        }
      }
      b.Complete(plan);
    }

    // (c) every token of every admitted request ran exactly once.
    ASSERT_EQ(admitted_slots.size(), static_cast<size_t>(num_requests));
    for (int64_t slot : admitted_slots) {
      const RequestSpec& spec = b.spec(slot);
      EXPECT_TRUE(b.finished(slot));
      for (int64_t pos = 0; pos < spec.TotalTokens(); ++pos) {
        const auto it = scheduled.find({slot, pos});
        ASSERT_TRUE(it != scheduled.end())
            << "trial " << trial << ": token (" << slot << ", " << pos
            << ") never scheduled";
        EXPECT_EQ(it->second, 1)
            << "trial " << trial << ": token (" << slot << ", " << pos
            << ") scheduled " << it->second << " times";
      }
    }
    const int64_t expected_total = [&] {
      int64_t n = 0;
      for (int64_t slot : admitted_slots) {
        n += b.spec(slot).TotalTokens();
      }
      return n;
    }();
    EXPECT_EQ(static_cast<int64_t>(scheduled.size()), expected_total);
  }
}

// ---- server ----------------------------------------------------------------

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

TEST(Server, ServesEveryRequestToCompletion) {
  MoeServer server(BaseServeOptions(2, DType::kF32, 1), H800Cluster(2));
  LoadGenerator gen(BaseLoadOptions());
  const ServeReport report = server.Serve(gen);

  EXPECT_EQ(report.offered, 24);
  EXPECT_EQ(static_cast<int64_t>(report.completed.size()) + report.shed, 24);
  EXPECT_EQ(report.shed, 0) << "this load is far below capacity";
  EXPECT_GT(report.iterations, 0);
  EXPECT_GT(report.batched_tokens, 0);
  EXPECT_GT(report.throughput_tokens_per_s, 0.0);
  EXPECT_GT(server.executor().profile_memo_misses(), 0u)
      << "RunBatchInto should be profiling each new batch shape once";

  for (const RequestRecord& r : report.completed) {
    EXPECT_GE(r.queue_wait_us, 0.0);
    // The first token cannot precede the first scheduling.
    EXPECT_GT(r.ttft_us, r.queue_wait_us);
    EXPECT_GE(r.e2e_us, r.ttft_us);
    EXPECT_NE(r.output_digest, Fnv1aInit()) << "request produced no output";
    if (r.decode_tokens == 0) {
      EXPECT_EQ(r.e2e_us, r.ttft_us);
      EXPECT_EQ(r.mean_itl_us, 0.0);
    } else {
      EXPECT_GT(r.mean_itl_us, 0.0);
    }
  }
  // Percentile summaries cover all completed requests.
  EXPECT_EQ(report.ttft_us.count, report.completed.size());
  EXPECT_LE(report.ttft_us.p50, report.ttft_us.p99);
}

// The acceptance matrix: identical seed/config => bit-identical per-request
// outputs and identical latency metrics at 1 vs 8 threads, across EP {1,4}
// and dtype {f32,bf16}.
TEST(Server, DeterministicAcrossThreadCounts) {
  for (int ep : {1, 4}) {
    for (DType dtype : {DType::kF32, DType::kBF16}) {
      SCOPED_TRACE(std::string("ep=") + std::to_string(ep) +
                   " dtype=" + DTypeName(dtype));
      const auto arrivals = LoadGenerator(BaseLoadOptions()).GenerateAll();
      MoeServer serial(BaseServeOptions(ep, dtype, 1), H800Cluster(ep));
      MoeServer threaded(BaseServeOptions(ep, dtype, 8), H800Cluster(ep));
      const ServeReport a = serial.Serve(arrivals);
      const ServeReport b = threaded.Serve(arrivals);

      ASSERT_EQ(a.completed.size(), b.completed.size());
      EXPECT_EQ(a.shed, b.shed);
      EXPECT_EQ(a.iterations, b.iterations);
      EXPECT_EQ(a.batched_tokens, b.batched_tokens);
      EXPECT_EQ(a.padding_tokens, b.padding_tokens);
      for (size_t i = 0; i < a.completed.size(); ++i) {
        const RequestRecord& ra = a.completed[i];
        const RequestRecord& rb = b.completed[i];
        EXPECT_EQ(ra.id, rb.id);
        EXPECT_EQ(ra.output_digest, rb.output_digest)
            << "request " << ra.id << " output bits changed with threads";
        // Simulated-clock metrics are doubles computed identically: exact.
        EXPECT_EQ(ra.queue_wait_us, rb.queue_wait_us);
        EXPECT_EQ(ra.ttft_us, rb.ttft_us);
        EXPECT_EQ(ra.e2e_us, rb.e2e_us);
        EXPECT_EQ(ra.mean_itl_us, rb.mean_itl_us);
      }
      EXPECT_EQ(a.combined_digest, b.combined_digest);
      EXPECT_EQ(a.sim_duration_us, b.sim_duration_us);
      EXPECT_EQ(a.ttft_us.p50, b.ttft_us.p50);
      EXPECT_EQ(a.ttft_us.p95, b.ttft_us.p95);
      EXPECT_EQ(a.ttft_us.p99, b.ttft_us.p99);
      EXPECT_EQ(a.itl_us.p99, b.itl_us.p99);
      EXPECT_EQ(a.queue_wait_us.p99, b.queue_wait_us.p99);
      EXPECT_EQ(a.e2e_us.p99, b.e2e_us.p99);
    }
  }
}

// Per-request outputs do not depend on batch composition: the same request
// stream served with a different token budget (hence different batch
// shapes, padding and iteration count) produces the same per-request
// digests. Latency metrics of course move; the BITS of each request's
// outputs must not -- content-based routing and coordinate-ordered
// reductions make each token's result independent of its batch neighbors.
TEST(Server, OutputsIndependentOfBatchComposition) {
  // Arrivals bunch tightly so the token budget actually shapes the batches.
  LoadGenOptions load = BaseLoadOptions(16);
  load.arrival = ArrivalProcess::kBursty;
  load.mean_burst = 8.0;
  load.offered_rps = 50000.0;
  const auto arrivals = LoadGenerator(load).GenerateAll();
  ServeOptions small = BaseServeOptions(2, DType::kF32, 1);
  small.token_budget = 8;
  ServeOptions large = BaseServeOptions(2, DType::kF32, 1);
  large.token_budget = 32;
  const ServeReport a = MoeServer(small, H800Cluster(2)).Serve(arrivals);
  const ServeReport b = MoeServer(large, H800Cluster(2)).Serve(arrivals);
  ASSERT_EQ(a.completed.size(), b.completed.size());
  EXPECT_NE(a.iterations, b.iterations) << "budgets too close to differ";
  for (size_t i = 0; i < a.completed.size(); ++i) {
    EXPECT_EQ(a.completed[i].output_digest, b.completed[i].output_digest)
        << "request " << a.completed[i].id;
  }
}

TEST(Server, ShedsUnderOverload) {
  ServeOptions options = BaseServeOptions(1, DType::kF32, 1);
  options.queue_capacity = 4;
  options.max_active = 2;
  options.token_budget = 4;
  LoadGenOptions load = BaseLoadOptions(64);
  // Everything arrives in one burst: far beyond queue + batcher capacity.
  load.arrival = ArrivalProcess::kBursty;
  load.mean_burst = 64.0;
  load.offered_rps = 1e6;
  MoeServer server(options, H800Cluster(1));
  LoadGenerator gen(load);
  const ServeReport report = server.Serve(gen);
  EXPECT_GT(report.shed, 0);
  EXPECT_EQ(static_cast<int64_t>(report.completed.size()) + report.shed, 64);
}

TEST(Server, SloAccounting) {
  const auto arrivals = LoadGenerator(BaseLoadOptions(16)).GenerateAll();
  // No SLO configured: attainment is trivially 1.
  ServeOptions no_slo = BaseServeOptions(1, DType::kF32, 1);
  const ServeReport r0 = MoeServer(no_slo, H800Cluster(1)).Serve(arrivals);
  EXPECT_EQ(r0.slo_attainment, 1.0);
  EXPECT_EQ(r0.slo_violations, 0);

  // Generous SLO: everything meets it.
  ServeOptions generous = BaseServeOptions(1, DType::kF32, 1);
  generous.slo = SloTargets{.ttft_us = 1e12, .itl_us = 1e12};
  const ServeReport r1 = MoeServer(generous, H800Cluster(1)).Serve(arrivals);
  EXPECT_EQ(r1.slo_attainment, 1.0);
  EXPECT_EQ(r1.slo_violations, 0);

  // Impossible TTFT: nothing does.
  ServeOptions harsh = BaseServeOptions(1, DType::kF32, 1);
  harsh.slo = SloTargets{.ttft_us = 1e-3};
  const ServeReport r2 = MoeServer(harsh, H800Cluster(1)).Serve(arrivals);
  EXPECT_EQ(r2.slo_attainment, 0.0);
  EXPECT_EQ(r2.slo_violations,
            static_cast<int64_t>(r2.completed.size()) + r2.shed);
}

// ---- fail-fast signal timeout (satellite) ----------------------------------

TEST(SignalTimeout, ExecutorRejectsNonPositiveTimeout) {
  EXPECT_THROW(CometExecutor(CometOptions{.signal_wait_timeout_ms = 0}),
               CheckError);
  EXPECT_THROW(CometExecutor(CometOptions{.signal_wait_timeout_ms = -5}),
               CheckError);
}

TEST(SignalTimeout, ShortTimeoutFailsFastOnWedgedSignal) {
  SymmetricHeap heap(2);
  const auto sig = heap.AllocateSignals("wedged", 1);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(heap.WaitUntilSignalGe(sig, 0, 0, 1, /*timeout_ms=*/30),
               CheckError);
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // The old hardcoded default waited 60 s; a configured 30 ms bound must
  // surface the wedge within CI noise of that bound.
  EXPECT_LT(elapsed_s, 5.0);
}

TEST(SignalTimeout, ServingRunHonorsConfiguredTimeout) {
  // A healthy run with a tight (but sufficient) bound completes: the option
  // threads through MoeServer -> CometOptions -> WaitUntilSignalGe without
  // tripping on live producers.
  ServeOptions options = BaseServeOptions(4, DType::kF32, 8);
  options.signal_wait_timeout_ms = 5'000;
  MoeServer server(options, H800Cluster(4));
  LoadGenerator gen(BaseLoadOptions(8));
  const ServeReport report = server.Serve(gen);
  EXPECT_EQ(static_cast<int64_t>(report.completed.size()), 8);
}

}  // namespace
}  // namespace comet
