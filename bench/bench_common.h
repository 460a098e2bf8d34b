// Shared infrastructure for the paper-figure benches.
//
// Every bench regenerates one table or figure from the paper's evaluation:
// it builds the paper's workload (timing plane only -- tensor contents are
// never touched), runs COMET and the baselines, and prints the same
// rows/series the paper reports, plus the paper's reference numbers where
// the text states them.
//
// Benches self-register with REGISTER_BENCH (one per translation unit) so a
// single `comet_bench` driver can list, filter and time all of them and emit
// machine-readable JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/fastermoe.h"
#include "baselines/megatron.h"
#include "baselines/tutel.h"
#include "core/comet_executor.h"
#include "exec/execution.h"
#include "moe/workload.h"
#include "serve/placement.h"
#include "util/table.h"

namespace comet::bench {

// ---- metric reporting ------------------------------------------------------

struct BenchMetric {
  std::string metric;
  double value = 0.0;
  std::string unit;  // "ms", "ns/op", "%", ... empty = dimensionless
};

// Collects the numbers a bench wants in the JSON output, alongside whatever
// human-readable tables it prints. The driver adds a `wall_ms` record per run
// on top of these.
class BenchReporter {
 public:
  void Report(std::string metric, double value, std::string unit = {}) {
    results_.push_back({std::move(metric), value, std::move(unit)});
  }
  const std::vector<BenchMetric>& results() const { return results_; }
  void Clear() { results_.clear(); }

 private:
  std::vector<BenchMetric> results_;
};

// ---- registry --------------------------------------------------------------

using BenchFn = int (*)(BenchReporter&);

struct BenchInfo {
  std::string name;
  std::string description;
  BenchFn fn = nullptr;
};

// Registered benches, in registration order (the driver sorts by name).
std::vector<BenchInfo>& Registry();

struct BenchRegistrar {
  BenchRegistrar(const char* name, const char* description, BenchFn fn);
};

// CLI entry point of `comet_bench`.
//   --list            print registered benches and exit
//   --only FILTERS    comma-separated filters: a filter equal to a
//                     registered name selects just that bench, any other
//                     selects every bench whose name contains it
//   --repeat N        run each selected bench N times
//   --json PATH       write name/metric/value records as JSON
//   --ranks R         EP world size for the functional multi-rank benches
int BenchMain(int argc, char** argv);

// Expert-parallel world size the functional multi-rank benches execute with
// (ext_multinode_functional). Set by `comet_bench --ranks R`; default 4.
int BenchRanks();
void SetBenchRanks(int ranks);

// Low-precision storage dtype for the dtype-parameterized benches
// (micro_groupgemm, ext_multinode_functional): their f32 records always run;
// a second pass runs at this dtype, with the dtype name baked into the
// metric names. Set by `comet_bench --dtype {f32,bf16,f16}`; default kBF16
// (the paper's training dtype). kF32 disables the extra pass.
DType BenchDType();
void SetBenchDType(DType dtype);

// Fleet sizes the cluster-scale serving sweep runs (serve_loadgen). Set by
// `comet_bench --replicas 1,2,4` (comma list); default {1, 2, 4, 8}.
const std::vector<int>& BenchReplicas();
void SetBenchReplicas(std::vector<int> replicas);

// Placement policies the cluster sweep runs. Set by `comet_bench
// --placement rr,p2c` (comma list of rr | least-loaded | p2c | sticky);
// default all four.
const std::vector<PlacementPolicy>& BenchPlacements();
void SetBenchPlacements(std::vector<PlacementPolicy> placements);

// Recovery-plane sweep of the cluster serving bench (serve_loadgen): a
// fail-then-recover scenario swept over MTTR x retry budget x hedging,
// reporting SLO attainment, lost requests, wasted tokens, and whether every
// served bit matched the no-fault run. Set by `comet_bench --faults`;
// default off (the sweep roughly doubles serve_loadgen's runtime).
bool BenchFaults();
void SetBenchFaults(bool on);

// Telemetry emission from the cluster serving bench (serve_loadgen): when
// either path is non-empty, the bench re-runs a fault+recovery cluster
// scenario with the telemetry plane ON and writes a Chrome trace
// (--trace-out), a Prometheus text snapshot (--metrics-out), and a JSONL
// span log next to the trace -- after checking the telemetry-on digest
// equals the telemetry-off run's. Set by `comet_bench --trace-out PATH` /
// `--metrics-out PATH`; default empty (off).
const std::string& BenchTraceOut();
void SetBenchTraceOut(std::string path);
const std::string& BenchMetricsOut();
void SetBenchMetricsOut(std::string path);

// Adaptation-plane sweep of the serving bench (serve_loadgen): synthetic
// skewed routing (load std in {0, 0.032, 0.1} -- 0.032 is the paper's
// production trace, Figure 14), static and drifting hot spots, with
// hot-expert replication off vs on, reporting p99 ITL/e2e, promotions, and
// whether the served bits matched the unadapted run (they must: replication
// is bit-transparent). Set by `comet_bench --skew`; default off.
bool BenchSkew();
void SetBenchSkew(bool on);

// Declares + registers a bench in one go. One per translation unit:
//
//   REGISTER_BENCH(fig09_end_to_end, "Figure 9: end-to-end model latency") {
//     ...;           // `reporter` is in scope for BenchReporter::Report
//     return 0;
//   }
#define REGISTER_BENCH(ident, description)                                 \
  static int CometBenchBody(::comet::bench::BenchReporter&);               \
  static const ::comet::bench::BenchRegistrar kCometBenchRegistrar{        \
      #ident, description, &CometBenchBody};                               \
  static int CometBenchBody(                                               \
      [[maybe_unused]] ::comet::bench::BenchReporter& reporter)

// ---- micro-timing helpers --------------------------------------------------

template <typename T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

struct TimedLoop {
  double ns_per_iter = 0.0;
  int64_t iters = 0;
};

// Runs `fn` in growing batches until `min_time_s` of wall clock has been
// spent, then reports mean ns per call -- a no-dependency stand-in for
// google-benchmark, good enough for the host-side metadata ops we time.
template <typename F>
TimedLoop TimeIt(F&& fn, double min_time_s = 0.2) {
  using Clock = std::chrono::steady_clock;
  TimedLoop out;
  int64_t batch = 1;
  double elapsed_s = 0.0;
  while (elapsed_s < min_time_s) {
    const auto start = Clock::now();
    for (int64_t i = 0; i < batch; ++i) {
      fn();
    }
    elapsed_s += std::chrono::duration<double>(Clock::now() - start).count();
    out.iters += batch;
    batch *= 2;
  }
  out.ns_per_iter = elapsed_s * 1e9 / static_cast<double>(out.iters);
  return out;
}

// ---- paper-workload helpers ------------------------------------------------

// Builds a timing-plane workload (no tensor materialization).
inline MoeWorkload TimedWorkload(const ModelConfig& model,
                                 const ParallelConfig& parallel,
                                 int64_t total_tokens, double load_std = 0.0,
                                 uint64_t seed = 1) {
  WorkloadOptions options;
  options.seed = seed;
  options.load_std = load_std;
  options.materialize = false;
  return MakeWorkload(model, parallel, total_tokens, options);
}

// The five systems of the paper's evaluation, in its plotting order.
struct SystemSet {
  MegatronExecutor megatron_te = MakeMegatronTe();
  MegatronExecutor megatron_cutlass = MakeMegatronCutlass();
  FasterMoeExecutor fastermoe;
  TutelExecutor tutel;
  CometExecutor comet;

  std::vector<MoeLayerExecutor*> All() {
    return {&megatron_te, &megatron_cutlass, &fastermoe, &tutel, &comet};
  }
  std::vector<MoeLayerExecutor*> Baselines() {
    return {&megatron_te, &megatron_cutlass, &fastermoe, &tutel};
  }
};

inline void PrintHeader(const std::string& title, const std::string& setup) {
  std::cout << "=== " << title << " ===\n";
  if (!setup.empty()) {
    std::cout << setup << "\n";
  }
  std::cout << "\n";
}

inline void PrintPaperNote(const std::string& note) {
  std::cout << "paper reference: " << note << "\n\n";
}

}  // namespace comet::bench
