// Cluster quickstart: a fleet of MoE serving replicas behind a global
// dispatcher, with placement policies and a replica failure mid-run.
//
//   $ ./examples/cluster_quickstart
//
// Walks the cluster plane end to end:
//  1. configure a 4-replica fleet (each replica a full EP=4 serving plane
//     of the same model) and one open-loop request stream,
//  2. run it under each placement policy -- round-robin, least-loaded,
//     power-of-two-choices, sticky sessions -- and compare tails,
//  3. re-run one config: the report is bit-identical (a cluster run is a
//     pure function of seeds + config, at any host thread count),
//  4. kill a replica mid-run: its in-flight requests are re-dispatched and
//     recomputed elsewhere, with EXACTLY the same output bits as the
//     no-fault run -- only their latency pays for the failure,
//  5. recovery plane: the dead replica comes back (fresh executor, cold
//     caches, a warm-up window), in-flight requests retry with exponential
//     backoff, long-queued ones hedge a second copy, the circuit breaker
//     walks open -> half-open -> closed -- and the output bits STILL match
//     the no-fault run,
//  6. telemetry plane: re-run the recovery scenario with tracing ON, check
//     the served bits are untouched, and export a Chrome trace (open it in
//     chrome://tracing or Perfetto) plus a Prometheus text snapshot.
#include <iostream>

#include "obs/exporters.h"
#include "serve/cluster.h"
#include "util/table.h"

using namespace comet;

int main() {
  ModelConfig model;
  model.name = "cluster-quickstart";
  model.layers = 1;
  model.num_experts = 8;
  model.topk = 2;
  model.embedding = 64;
  model.ffn_hidden = 128;

  ServeOptions server;
  server.model = model;
  server.parallel = ParallelConfig{/*tp=*/1, /*ep=*/4};
  server.seed = 7;
  server.dtype = DType::kBF16;
  server.token_budget = 32;
  server.max_active = 16;
  server.queue_capacity = 64;
  server.slo = SloTargets{.ttft_us = 2000.0, .itl_us = 500.0};

  // One stream for every experiment below: 120 requests across 12 sessions
  // (sessions give the sticky policy an affinity key to keep).
  LoadGenOptions load;
  load.seed = 99;
  load.offered_rps = 40000.0;
  load.num_requests = 120;
  load.num_sessions = 12;
  load.prompt = LengthDist::Uniform(4, 16);
  load.decode = LengthDist::Uniform(1, 8);
  const std::vector<RequestSpec> arrivals =
      LoadGenerator(load).GenerateAll();

  // --- 4 replicas x 4 placement policies over the same stream ---------------
  std::cout << "=== placement policies, 4 replicas, same 120-request stream "
            << "===\n\n";
  AsciiTable table({"placement", "ttft p99 us", "e2e p99 us", "SLO %",
                    "tok/s", "per-replica completed"});
  uint64_t rr_digest = 0;
  for (const PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastLoaded,
        PlacementPolicy::kPowerOfTwo, PlacementPolicy::kSticky}) {
    ClusterOptions options;
    options.server = server;
    options.replicas = 4;
    options.placement = policy;
    options.placement_seed = 13;
    MoeCluster cluster(options, H800Cluster(4));
    const ClusterReport report = cluster.Run(arrivals);

    std::string spread;
    for (size_t r = 0; r < report.per_replica_completed.size(); ++r) {
      if (r > 0) {
        spread += " ";
      }
      spread += std::to_string(report.per_replica_completed[r]);
    }
    table.AddRow({PlacementPolicyName(policy),
                  FormatDouble(report.ttft_us.p99, 1),
                  FormatDouble(report.e2e_us.p99, 1),
                  FormatPercent(report.slo_attainment),
                  FormatDouble(report.throughput_tokens_per_s, 0), spread});
    if (policy == PlacementPolicy::kRoundRobin) {
      rr_digest = report.combined_digest;
    } else if (report.combined_digest != rr_digest) {
      std::cout << "BUG: placement changed output bits\n";
      return 1;
    }
  }
  std::cout << table.Render() << "\n";
  std::cout << "combined digest is IDENTICAL across policies: outputs are a "
            << "function of the\nrequest, not of where it ran.\n\n";

  // --- determinism: re-running a config reproduces it bit for bit -----------
  ClusterOptions p2c;
  p2c.server = server;
  p2c.replicas = 4;
  p2c.placement = PlacementPolicy::kPowerOfTwo;
  p2c.placement_seed = 13;
  MoeCluster cluster(p2c, H800Cluster(4));
  const ClusterReport a = cluster.Run(arrivals);
  const ClusterReport b = cluster.Run(arrivals);
  std::cout << "re-ran p2c config: digests "
            << (a.combined_digest == b.combined_digest ? "identical"
                                                       : "DIFFER (bug!)")
            << ", p99 TTFT identical: "
            << (a.ttft_us.p99 == b.ttft_us.p99 ? "yes" : "NO (bug!)")
            << "\n\n";

  // --- fault injection: kill replica 0 mid-run ------------------------------
  ClusterOptions faulty = p2c;
  faulty.in_flight = InFlightPolicy::kRedispatch;
  faulty.faults.events.push_back(FaultEvent{
      /*time_us=*/a.sim_duration_us * 0.4, /*replica=*/0, FaultKind::kFail});
  const ClusterReport failed = MoeCluster(faulty, H800Cluster(4)).Run(arrivals);
  std::cout << "=== replica 0 fails at 40% of the run ===\n"
            << "replica failures: " << failed.replica_failures
            << ", re-dispatched in-flight requests: " << failed.redispatched
            << "\ncompleted " << failed.completed.size() << "/"
            << failed.offered << " -- and every output digest matches the "
            << "no-fault run: "
            << (failed.combined_digest == a.combined_digest ? "yes"
                                                            : "NO (bug!)")
            << "\n(re-dispatched requests are recomputed from scratch; "
            << "outputs depend on the\nrequest seed and weights, never on "
            << "which replica or batch served them)\n\n";

  // --- recovery plane: fail, retry with backoff, hedge, recover -------------
  //
  // Replica 0 dies at 40% of the run and restarts at 60% with a warm-up
  // window. In-flight requests at the moment of death retry with
  // exponential backoff + seeded jitter (budget 3); a request stuck in a
  // queue past the hedge bound gets one speculative second copy, first
  // completion wins, the loser's tokens are counted as waste. The dead
  // replica's circuit breaker force-opens and re-admits traffic through a
  // half-open probe. All of it is on the simulated clock and seeded: the
  // whole trajectory -- and every output bit -- is reproducible.
  ClusterOptions recov = p2c;
  // Two replicas, not four: losing one must actually halve capacity, so the
  // outage builds real queues and the hedge bound has something to rescue.
  recov.replicas = 2;
  recov.in_flight = InFlightPolicy::kRetryBackoff;
  recov.retry_budget = 3;
  recov.retry_backoff_us = 200.0;
  recov.recovery_warmup_us = a.sim_duration_us * 0.02;
  recov.hedge_queue_wait_us = 100.0;
  recov.health.probe_backoff_us = 500.0;
  recov.faults.events = {
      FaultEvent{a.sim_duration_us * 0.4, /*replica=*/0, FaultKind::kFail},
      FaultEvent{a.sim_duration_us * 0.6, /*replica=*/0, FaultKind::kRecover},
  };
  const ClusterReport rec = MoeCluster(recov, H800Cluster(4)).Run(arrivals);
  std::cout << "=== 2-replica fleet: replica 0 fails at 40%, recovers at 60% "
            << "(+2% warm-up) ===\n"
            << "retries: " << rec.retries
            << ", retries exhausted: " << rec.retries_exhausted
            << ", hedged: " << rec.hedged << " (wins: " << rec.hedge_wins
            << ", wasted tokens: " << rec.wasted_tokens << ")\n"
            << "breaker opens: " << rec.breaker_opens
            << ", half-open probes: " << rec.probes
            << ", replicas recovered: " << rec.replicas_recovered << "\n"
            << "completed " << rec.completed.size() << "/" << rec.offered
            << " -- every completed request's digest matches the no-fault "
            << "run: ";
  bool rec_bits_ok = true;
  {
    // Per-request check (not combined_digest: a retries-exhausted request
    // has no record, so the combined hash over fewer records differs even
    // though every served bit is right).
    std::vector<uint64_t> clean_by_id(arrivals.size() + 1, 0);
    for (const RequestRecord& r : a.completed) {
      clean_by_id[static_cast<size_t>(r.id)] = r.output_digest;
    }
    for (const RequestRecord& r : rec.completed) {
      if (clean_by_id[static_cast<size_t>(r.id)] != r.output_digest) {
        rec_bits_ok = false;
      }
    }
  }
  std::cout << (rec_bits_ok ? "yes" : "NO (bug!)")
            << "\n(faults, retries and hedges move latency, never bits: a "
            << "hedged request's two\ncopies compute identical outputs, so "
            << "whichever wins serves the same answer)\n\n";

  // --- telemetry plane: trace the recovery run, bits untouched --------------
  //
  // Same recovery scenario, telemetry ON: every iteration, phase, retry,
  // hedge and breaker transition lands in preallocated span rings stamped
  // with the simulated clock. Recording is alloc-free and reads nothing the
  // serving path depends on, so the served bits are identical to the
  // telemetry-off run above -- and the exported artifacts are themselves
  // deterministic (byte-identical at any host thread count).
  ClusterOptions traced = recov;
  traced.server.telemetry.enabled = true;
  MoeCluster tcluster(traced, H800Cluster(4));
  const ClusterReport trep = tcluster.Run(arrivals);
  bool tel_bits_ok = trep.combined_digest == rec.combined_digest;
  const std::string trace = tcluster.ExportChromeTrace();
  const std::string prom = tcluster.ExportPrometheusText();
  obs::WriteTextFile("cluster_quickstart_trace.json", trace);
  obs::WriteTextFile("cluster_quickstart_metrics.prom", prom);
  size_t spans = 0;
  for (const obs::ReplicaTelemetry& view : tcluster.TelemetryViews()) {
    if (view.archived != nullptr) { spans += view.archived->size(); }
    if (view.live != nullptr) { spans += view.live->size(); }
  }
  std::cout << "=== same recovery run, telemetry ON ===\n"
            << "served bits identical to the telemetry-off run: "
            << (tel_bits_ok ? "yes" : "NO (bug!)") << "\n"
            << "captured " << spans << " spans across " << traced.replicas
            << " replicas + the cluster ring\n"
            << "wrote cluster_quickstart_trace.json (" << trace.size()
            << " bytes, chrome://tracing) and\ncluster_quickstart_metrics"
            << ".prom (" << prom.size() << " bytes, Prometheus exposition)\n"
            << "(the dead replica's spans survive recovery: they are "
            << "archived before the fresh\nreplica takes over, and its "
            << "counters carry the archived totals forward)\n";

  return (a.combined_digest == b.combined_digest &&
          failed.combined_digest == a.combined_digest && rec_bits_ok &&
          tel_bits_ok)
             ? 0
             : 1;
}
