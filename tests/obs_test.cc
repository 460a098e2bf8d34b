// The telemetry-plane test tier (docs/ARCHITECTURE.md, "The telemetry
// plane").
//
// Four contracts:
//  1. OFF is the default and changes nothing: served digests with the
//     telemetry field default-constructed match the PR 9 goldens.
//  2. ON changes no served bit either: combined digests with telemetry
//     enabled equal the OFF digests at threads {1,8} x EP {1,4}.
//  3. Telemetry output is itself deterministic: the Chrome trace,
//     Prometheus snapshot and JSONL dump are byte-identical across host
//     thread counts, for the single server and for a cluster run with
//     faults, retries, hedging and recovery in play.
//  4. The primitives hold up: the registry is safe under a multi-writer
//     hammer (TSan tier), the span ring overwrites oldest-first without
//     allocating, and the exporters emit well-formed output.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "hw/gpu_spec.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "obs/telemetry.h"
#include "serve/cluster.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "util/check.h"

namespace comet {
namespace {

// ---- serving scenario (mirrors alloc_test / serve_test helpers) ------------

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

ServeOptions BaseServeOptions(int ep, DType dtype, int num_threads,
                              bool telemetry) {
  ServeOptions o;
  o.model = ServeModel();
  o.parallel = ParallelConfig{1, ep};
  o.seed = 1234;
  o.dtype = dtype;
  o.num_threads = num_threads;
  o.token_budget = 16;
  o.max_active = 8;
  o.queue_capacity = 64;
  o.telemetry.enabled = telemetry;
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

// Combined digests of the golden load, captured before the telemetry plane
// existed (same values alloc_test pins): digests depend on dtype only.
constexpr uint64_t kGoldenDigestF32 = 0x090039d1a50fb32eULL;
constexpr uint64_t kGoldenDigestBf16 = 0xe7ca02ae05f060c2ULL;

// ---- contract 1 + 2: telemetry never changes a served bit ------------------

TEST(TelemetryOffContract, ServedBitsMatchPreTelemetryGoldens) {
  const auto arrivals = LoadGenerator(BaseLoadOptions()).GenerateAll();
  for (int ep : {1, 4}) {
    for (DType dtype : {DType::kF32, DType::kBF16}) {
      SCOPED_TRACE(testing::Message()
                   << "ep=" << ep << " dtype=" << DTypeName(dtype));
      MoeServer server(BaseServeOptions(ep, dtype, 1, /*telemetry=*/false),
                       H800Cluster(ep));
      const ServeReport r = server.Serve(arrivals);
      EXPECT_EQ(r.combined_digest, dtype == DType::kF32 ? kGoldenDigestF32
                                                        : kGoldenDigestBf16);
    }
  }
}

TEST(TelemetryOnContract, ServedBitsIdenticalToOffAcrossThreadsAndEp) {
  const auto arrivals = LoadGenerator(BaseLoadOptions()).GenerateAll();
  for (int num_threads : {1, 8}) {
    for (int ep : {1, 4}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << num_threads << " ep=" << ep);
      MoeServer on(BaseServeOptions(ep, DType::kF32, num_threads,
                                    /*telemetry=*/true),
                   H800Cluster(ep));
      const ServeReport r = on.Serve(arrivals);
      EXPECT_EQ(r.combined_digest, kGoldenDigestF32)
          << "telemetry ON changed a served bit";
      // And the run actually recorded: the plane must not be trivially off.
      EXPECT_EQ(on.telemetry().metrics().iterations->value(),
                static_cast<uint64_t>(r.iterations));
      EXPECT_EQ(on.telemetry().metrics().requests_completed->value(),
                static_cast<uint64_t>(r.completed.size()));
      EXPECT_GT(on.telemetry().spans().size(), 0u);
    }
  }
}

// comet_heap_traffic_bytes_total is the sum of each iteration's heap
// traffic. The heap restarts its traffic total with every layer run, so the
// counter adds that total; it must not difference consecutive totals, which
// goes negative whenever an iteration moves fewer bytes than the one before.
// EP 4, because a single rank moves no bytes.
TEST(TelemetryOnContract, HeapTrafficCounterSumsPerIterationTraffic) {
  const auto arrivals = LoadGenerator(BaseLoadOptions()).GenerateAll();
  for (int num_threads : {1, 8}) {
    SCOPED_TRACE(testing::Message() << "threads=" << num_threads);
    MoeServer server(BaseServeOptions(/*ep=*/4, DType::kF32, num_threads,
                                      /*telemetry=*/true),
                     H800Cluster(4));
    server.BeginRun();
    for (const RequestSpec& spec : arrivals) {
      ASSERT_TRUE(server.Offer(spec));
    }
    uint64_t sum = 0;
    double previous = 0.0;
    bool shrank = false;
    double now = 0.0;
    double end = 0.0;
    while (server.StepIteration(now, &end)) {
      const double bytes =
          server.executor().serving_heap_stats().total_traffic_bytes;
      sum += static_cast<uint64_t>(bytes);
      shrank = shrank || bytes < previous;
      previous = bytes;
      now = end;
    }
    EXPECT_GT(sum, 0u);
    EXPECT_TRUE(shrank) << "no iteration moved fewer bytes than the last";
    EXPECT_EQ(server.telemetry().metrics().heap_traffic_bytes->value(), sum);
    EXPECT_NE(server.ExportPrometheusText().find(
                  "comet_heap_traffic_bytes_total{replica=\"0\"} " +
                  std::to_string(sum) + "\n"),
              std::string::npos);
  }
}

// ---- contract 3: telemetry output is thread-count invariant ----------------

struct Snapshots {
  std::string trace;
  std::string prometheus;
  std::string jsonl;
};

Snapshots ServerSnapshots(int num_threads, int ep) {
  const auto arrivals = LoadGenerator(BaseLoadOptions()).GenerateAll();
  MoeServer server(
      BaseServeOptions(ep, DType::kF32, num_threads, /*telemetry=*/true),
      H800Cluster(ep));
  (void)server.Serve(arrivals);
  return Snapshots{server.ExportChromeTrace(), server.ExportPrometheusText(),
                   server.ExportTelemetryJsonl()};
}

TEST(TelemetryDeterminism, ServerSnapshotsByteIdenticalAcrossThreads) {
  for (int ep : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "ep=" << ep);
    const Snapshots t1 = ServerSnapshots(1, ep);
    const Snapshots t8 = ServerSnapshots(8, ep);
    EXPECT_EQ(t1.trace, t8.trace);
    EXPECT_EQ(t1.prometheus, t8.prometheus);
    EXPECT_EQ(t1.jsonl, t8.jsonl);
  }
}

// Cluster scenario with the whole recovery plane active: a mid-run failure,
// a recovery, hedging and backoff retries. The trace must carry the
// dispatcher's story and still be byte-identical across thread counts.
ClusterOptions FaultyClusterOptions(int num_threads) {
  ClusterOptions co;
  co.server = BaseServeOptions(2, DType::kBF16, num_threads,
                               /*telemetry=*/true);
  co.replicas = 2;
  co.placement = PlacementPolicy::kLeastLoaded;
  co.in_flight = InFlightPolicy::kRetryBackoff;
  co.hedge_queue_wait_us = 100.0;
  co.recovery_warmup_us = 300.0;
  return co;
}

// Near-burst arrivals: deep queues when the failure hits, so the death
// drains in-flight work into backoff retries and queued requests hedge.
LoadGenOptions BurstLoadOptions(int64_t n) {
  LoadGenOptions o = BaseLoadOptions(n);
  o.offered_rps = 200000.0;
  return o;
}

Snapshots ClusterSnapshots(int num_threads, uint64_t* digest) {
  const auto arrivals = LoadGenerator(BurstLoadOptions(48)).GenerateAll();
  ClusterOptions co = FaultyClusterOptions(num_threads);
  const double t_last = arrivals.back().arrival_us;
  co.faults.events.push_back({t_last * 0.5, 0, FaultKind::kFail});
  co.faults.events.push_back({t_last * 2.0, 0, FaultKind::kRecover});
  MoeCluster cluster(co, H800Cluster(2));
  const ClusterReport r = cluster.Run(arrivals);
  *digest = r.combined_digest;
  EXPECT_GT(r.replica_failures, 0);
  EXPECT_GT(r.replicas_recovered, 0);
  EXPECT_GT(r.retries, 0) << "failure must land on in-flight work";
  return Snapshots{cluster.ExportChromeTrace(), cluster.ExportPrometheusText(),
                   cluster.ExportTelemetryJsonl()};
}

TEST(TelemetryDeterminism, ClusterWithFaultsByteIdenticalAcrossThreads) {
  uint64_t digest1 = 0, digest8 = 0;
  const Snapshots t1 = ClusterSnapshots(1, &digest1);
  const Snapshots t8 = ClusterSnapshots(8, &digest8);
  EXPECT_EQ(digest1, digest8);
  EXPECT_EQ(t1.trace, t8.trace);
  EXPECT_EQ(t1.prometheus, t8.prometheus);
  EXPECT_EQ(t1.jsonl, t8.jsonl);

  // The trace carries the recovery story: death, recovery, retries and the
  // breaker transitions the failure forced.
  EXPECT_NE(t1.trace.find("\"fault: fail\""), std::string::npos);
  EXPECT_NE(t1.trace.find("\"replica death\""), std::string::npos);
  EXPECT_NE(t1.trace.find("\"replica recover\""), std::string::npos);
  EXPECT_NE(t1.trace.find("\"retry\""), std::string::npos);
  EXPECT_NE(t1.trace.find("\"breaker open\""), std::string::npos);
  // The cluster registry renders unlabeled, replicas labeled.
  EXPECT_NE(t1.prometheus.find("comet_cluster_replica_failures_total 1"),
            std::string::npos);
  EXPECT_NE(t1.prometheus.find("comet_serve_iterations_total{replica=\"0\"}"),
            std::string::npos);
}

// A recovered replica's registry carries its predecessor's totals: the
// fleet-wide iteration count must survive the kRecover swap.
TEST(TelemetryRecovery, RecoveredReplicaCarriesArchivedTotals) {
  uint64_t digest = 0;
  (void)digest;
  const auto arrivals = LoadGenerator(BaseLoadOptions(32)).GenerateAll();
  ClusterOptions co = FaultyClusterOptions(1);
  co.faults.events.push_back(
      {arrivals[arrivals.size() * 2 / 5].arrival_us, 0, FaultKind::kFail});
  co.faults.events.push_back(
      {arrivals[arrivals.size() * 3 / 5].arrival_us, 0, FaultKind::kRecover});
  MoeCluster cluster(co, H800Cluster(2));
  const ClusterReport r = cluster.Run(arrivals);
  ASSERT_GT(r.replicas_recovered, 0);
  uint64_t telemetry_iterations = 0;
  for (int rep = 0; rep < cluster.num_replicas(); ++rep) {
    telemetry_iterations +=
        cluster.replica(rep).telemetry().metrics().iterations->value();
  }
  EXPECT_EQ(telemetry_iterations, static_cast<uint64_t>(r.iterations))
      << "iterations recorded before the kRecover swap were lost";
}

// ---- contract 4: primitives ------------------------------------------------

TEST(MetricsRegistry, HandlesAreStableAndResetKeepsSchema) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.RegisterCounter("c_total", "a counter");
  obs::Gauge* g = reg.RegisterGauge("g", "a gauge");
  obs::HistogramMetric* h = reg.RegisterHistogram("h", "a histogram");
  c->Add(3);
  g->Set(2.5);
  h->Observe(7.0);
  ASSERT_EQ(reg.entries().size(), 3u);
  reg.ResetValues();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0.0);
  EXPECT_EQ(h->Snapshot().count(), 0u);
  EXPECT_EQ(reg.entries().size(), 3u) << "reset must keep registrations";
}

TEST(MetricsRegistry, MergeFromAddsCountersAndHistogramsKeepsGauges) {
  obs::MetricsRegistry a, b;
  obs::Counter* ca = a.RegisterCounter("c_total", "");
  obs::Gauge* ga = a.RegisterGauge("g", "");
  obs::HistogramMetric* ha = a.RegisterHistogram("h", "");
  obs::Counter* cb = b.RegisterCounter("c_total", "");
  obs::Gauge* gb = b.RegisterGauge("g", "");
  obs::HistogramMetric* hb = b.RegisterHistogram("h", "");
  ca->Add(5);
  ga->Set(1.0);
  ha->Observe(3.0);
  cb->Add(7);
  gb->Set(9.0);
  hb->Observe(100.0);
  a.MergeFrom(b);
  EXPECT_EQ(ca->value(), 12u);
  EXPECT_EQ(ga->value(), 1.0) << "gauges keep the live incarnation's value";
  EXPECT_EQ(ha->Snapshot().count(), 2u);
  EXPECT_EQ(ha->sum(), 103.0);
  EXPECT_EQ(cb->value(), 7u) << "MergeFrom must not mutate the source";
}

// Multi-writer hammer over one registry: every hot-path operation from 8
// threads at once. Values are integers, so the expected totals are exact.
// TSan runs this tier; a data race here fails CI loudly.
TEST(MetricsRegistry, ConcurrentHammerKeepsExactTotals) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.RegisterCounter("c_total", "");
  obs::Gauge* g = reg.RegisterGauge("g", "");
  obs::HistogramMetric* h = reg.RegisterHistogram("h", "");
  constexpr int kThreads = 8;
  constexpr int kOps = 20'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        c->Add(1);
        g->Set(static_cast<double>(t));
        h->Observe(static_cast<double>(i % 64));
        if (i % 1024 == 0) {
          (void)h->Snapshot();  // concurrent observer
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kOps);
  const Histogram snap = h->Snapshot();
  EXPECT_EQ(snap.count(), static_cast<uint64_t>(kThreads) * kOps);
  // Sum of integers < 2^53: exact in double at ANY interleaving.
  double expect_sum = 0.0;
  for (int i = 0; i < kOps; ++i) {
    expect_sum += static_cast<double>(i % 64);
  }
  EXPECT_EQ(snap.sum(), expect_sum * kThreads);
  const double gv = g->value();
  EXPECT_GE(gv, 0.0);
  EXPECT_LT(gv, static_cast<double>(kThreads));
}

TEST(SpanRing, OverwritesOldestAndCountsDrops) {
  obs::SpanRing ring;
  ring.Reserve(4);
  for (int i = 0; i < 6; ++i) {
    ring.Record(obs::SpanKind::kAdmit, static_cast<double>(i),
                static_cast<double>(i), static_cast<uint64_t>(i), 0.0);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 2u);
  std::vector<obs::SpanRecord> got;
  ring.AppendTo(&got);
  ASSERT_EQ(got.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(got[i].id, i + 2) << "oldest-first, oldest two overwritten";
  }
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 4);
}

TEST(SpanRing, ZeroCapacityDropsEverything) {
  obs::SpanRing ring;
  ring.Record(obs::SpanKind::kAdmit, 0.0, 0.0, 1, 0.0);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 1u);
  std::vector<obs::SpanRecord> got;
  ring.AppendTo(&got);
  EXPECT_TRUE(got.empty());
}

TEST(Exporters, ChromeTraceShapeAndLanes) {
  obs::SpanRing ring;
  ring.Reserve(8);
  ring.Record(obs::SpanKind::kIteration, 10.0, 30.0, 1, 16.0);
  ring.Record(obs::SpanKind::kPhaseGating, 12.0, 14.0, 1, 0.0);
  ring.Record(obs::SpanKind::kAdmit, 5.0, 5.0, 42, 6.0);
  obs::MetricsRegistry reg;
  obs::ReplicaTelemetry view;
  view.name = "replica \"zero\"";  // exercises JSON escaping
  view.replica = 0;
  view.live = &ring;
  view.registry = &reg;
  const std::string trace = obs::ToChromeTraceJson({&view, 1});
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(trace.substr(trace.size() - 2), "]}");
  EXPECT_NE(trace.find("\"replica \\\"zero\\\"\""), std::string::npos);
  // Duration span on the iterations lane; instant on the events lane.
  EXPECT_NE(trace.find("\"name\":\"iteration\",\"ph\":\"X\",\"ts\":10,"
                       "\"dur\":20,\"pid\":1,\"tid\":1"),
            std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"admit\",\"ph\":\"i\",\"s\":\"t\",\"ts\":5,"
                       "\"pid\":1,\"tid\":0"),
            std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"gating\""), std::string::npos);
}

TEST(Exporters, PrometheusExposition) {
  obs::MetricsRegistry reg;
  reg.RegisterCounter("demo_total", "demo counter")->Add(41);
  reg.RegisterGauge("demo_gauge", "demo gauge")->Set(0.5);
  obs::HistogramMetric* h = reg.RegisterHistogram("demo_us", "demo histogram");
  for (int i = 1; i <= 100; ++i) {
    h->Observe(static_cast<double>(i));
  }
  obs::ReplicaTelemetry view;
  view.replica = 0;
  view.registry = &reg;
  const std::string text = obs::ToPrometheusText({&view, 1});
  EXPECT_NE(text.find("# HELP demo_total demo counter\n"
                      "# TYPE demo_total counter\n"
                      "demo_total{replica=\"0\"} 41\n"),
            std::string::npos);
  EXPECT_NE(text.find("demo_gauge{replica=\"0\"} 0.5\n"), std::string::npos);
  // Histograms render as summaries: nearest-rank upper bounds + sum/count.
  EXPECT_NE(text.find("# TYPE demo_us summary\n"), std::string::npos);
  EXPECT_NE(text.find("demo_us{replica=\"0\",quantile=\"0.5\"} 64\n"),
            std::string::npos);
  EXPECT_NE(text.find("demo_us_sum{replica=\"0\"} 5050\n"),
            std::string::npos);
  EXPECT_NE(text.find("demo_us_count{replica=\"0\"} 100\n"),
            std::string::npos);
}

TEST(Exporters, JsonlOneRecordPerLine) {
  obs::SpanRing ring;
  ring.Reserve(4);
  ring.Record(obs::SpanKind::kIteration, 0.0, 10.0, 1, 4.0);
  ring.Record(obs::SpanKind::kComplete, 10.0, 10.0, 7, 0.0);
  obs::ReplicaTelemetry view;
  view.replica = 2;
  view.live = &ring;
  const std::string jsonl = obs::ToJsonl({&view, 1});
  EXPECT_EQ(jsonl,
            "{\"replica\":2,\"kind\":\"iteration\",\"start_us\":0,"
            "\"end_us\":10,\"id\":1,\"value\":4}\n"
            "{\"replica\":2,\"kind\":\"complete\",\"start_us\":10,"
            "\"end_us\":10,\"id\":7,\"value\":0}\n");
}

}  // namespace
}  // namespace comet
