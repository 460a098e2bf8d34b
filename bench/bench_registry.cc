// Bench registry + the comet_bench driver loop: list, filter, repeat, time
// and JSON-export the registered paper-figure benches.
#include "bench/bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>

#include "util/check.h"
#include "util/json_writer.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace comet::bench {
namespace {

struct RunRecord {
  std::string bench;
  int repeat = 0;
  BenchMetric metric;
};

// Collapses per-repeat records into one median record per (bench, metric),
// keeping first-appearance order. Median = exact nearest-rank p50
// (util/stats.h), so the collapsed value is always one that was actually
// measured; the collapsed record carries repeat = -1.
std::vector<RunRecord> MedianRecords(const std::vector<RunRecord>& records) {
  std::vector<RunRecord> out;
  std::vector<std::vector<double>> values;
  for (const RunRecord& r : records) {
    size_t slot = out.size();
    for (size_t i = 0; i < out.size(); ++i) {
      if (out[i].bench == r.bench && out[i].metric.metric == r.metric.metric) {
        slot = i;
        break;
      }
    }
    if (slot == out.size()) {
      out.push_back({r.bench, -1, r.metric});
      values.emplace_back();
    }
    values[slot].push_back(r.metric.value);
  }
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].metric.value = PercentileNearestRank(values[i], 50.0);
  }
  return out;
}

bool WriteJson(const std::string& path, const std::vector<RunRecord>& records,
               int repeat, bool median) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "comet_bench: cannot open --json path " << path << "\n";
    return false;
  }
  const auto number = [](double v) {
    std::string s;
    AppendJsonNumber(s, v);
    return s;
  };
  out << "{\n  \"schema\": \"comet_bench/v1\",\n  \"repeat\": " << repeat
      << ",\n  \"aggregate\": \"" << (median ? "median" : "none")
      << "\",\n  \"threads\": " << GlobalThreadCount() << ",\n  \"records\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const RunRecord& r = records[i];
    out << "    {\"bench\": \"" << JsonEscape(r.bench)
        << "\", \"repeat\": " << r.repeat << ", \"metric\": \""
        << JsonEscape(r.metric.metric)
        << "\", \"value\": " << number(r.metric.value)
        << ", \"unit\": \"" << JsonEscape(r.metric.unit) << "\"}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

void PrintUsage() {
  std::cout <<
      "usage: comet_bench [options]\n"
      "  --list           print registered benches and exit\n"
      "  --only FILTERS   comma-separated filters: a registered name runs\n"
      "                   just that bench, anything else every bench\n"
      "                   whose name contains it\n"
      "  --repeat N       run each selected bench N times (default 1)\n"
      "  --median         collapse repeats to one median record per metric\n"
      "                   in the JSON output (repeat field becomes -1)\n"
      "  --json PATH      write per-bench name/metric/value records\n"
      "  --threads N      worker threads for the functional/timing plane\n"
      "                   (default: COMET_THREADS env, else hardware)\n"
      "  --ranks R        expert-parallel ranks for the functional\n"
      "                   multi-rank benches (default 4)\n"
      "  --dtype D        low-precision dtype for the dtype-parameterized\n"
      "                   benches: f32, bf16 or f16 (default bf16; f32\n"
      "                   disables the low-precision pass)\n"
      "  --replicas LIST  fleet sizes for the cluster serving sweep, comma\n"
      "                   list (default 1,2,4,8)\n"
      "  --placement LIST placement policies for the cluster sweep, comma\n"
      "                   list of rr|least-loaded|p2c|sticky (default all)\n"
      "  --faults         also run the fail-then-recover recovery sweep of\n"
      "                   the cluster serving bench (default off)\n"
      "  --skew           also run the expert-skew adaptation sweep of the\n"
      "                   serving bench (replication off vs on; default off)\n"
      "  --trace-out P    serve_loadgen: run a telemetry-on fault+recovery\n"
      "                   cluster scenario and write its Chrome trace (and a\n"
      "                   JSONL span log at P.jsonl) to P\n"
      "  --metrics-out P  serve_loadgen: write the same scenario's Prometheus\n"
      "                   text-exposition snapshot to P\n"
      "  --help           this message\n";
}

int g_bench_ranks = 4;
DType g_bench_dtype = DType::kBF16;
std::vector<int> g_bench_replicas = {1, 2, 4, 8};
std::vector<PlacementPolicy> g_bench_placements = {
    PlacementPolicy::kRoundRobin,
    PlacementPolicy::kLeastLoaded,
    PlacementPolicy::kPowerOfTwo,
    PlacementPolicy::kSticky,
};
bool g_bench_faults = false;
bool g_bench_skew = false;
std::string g_bench_trace_out;
std::string g_bench_metrics_out;

}  // namespace

int BenchRanks() { return g_bench_ranks; }

void SetBenchRanks(int ranks) { g_bench_ranks = ranks; }

DType BenchDType() { return g_bench_dtype; }

void SetBenchDType(DType dtype) { g_bench_dtype = dtype; }

const std::vector<int>& BenchReplicas() { return g_bench_replicas; }

void SetBenchReplicas(std::vector<int> replicas) {
  g_bench_replicas = std::move(replicas);
}

const std::vector<PlacementPolicy>& BenchPlacements() {
  return g_bench_placements;
}

void SetBenchPlacements(std::vector<PlacementPolicy> placements) {
  g_bench_placements = std::move(placements);
}

bool BenchFaults() { return g_bench_faults; }

void SetBenchFaults(bool on) { g_bench_faults = on; }

bool BenchSkew() { return g_bench_skew; }

void SetBenchSkew(bool on) { g_bench_skew = on; }

const std::string& BenchTraceOut() { return g_bench_trace_out; }

void SetBenchTraceOut(std::string path) {
  g_bench_trace_out = std::move(path);
}

const std::string& BenchMetricsOut() { return g_bench_metrics_out; }

void SetBenchMetricsOut(std::string path) {
  g_bench_metrics_out = std::move(path);
}

std::vector<BenchInfo>& Registry() {
  static std::vector<BenchInfo>* registry = new std::vector<BenchInfo>();
  return *registry;
}

BenchRegistrar::BenchRegistrar(const char* name, const char* description,
                               BenchFn fn) {
  Registry().push_back({name, description, fn});
}

int BenchMain(int argc, char** argv) {
  bool list_only = false;
  bool median = false;
  std::vector<std::string> filters;
  int repeat = 1;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "comet_bench: " << arg << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--list") {
      list_only = true;
    } else if (arg == "--only") {
      const char* v = next();
      if (v == nullptr) return 2;
      bool any = false;
      for (const std::string& f : Split(v, ',')) {
        if (!f.empty()) {
          filters.push_back(f);
          any = true;
        }
      }
      if (!any) {
        std::cerr << "comet_bench: --only got an empty filter\n";
        return 2;
      }
    } else if (arg == "--repeat") {
      const char* v = next();
      if (v == nullptr) return 2;
      char* end = nullptr;
      const long n = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || n < 1) {
        std::cerr << "comet_bench: --repeat needs a positive integer, got '"
                  << v << "'\n";
        return 2;
      }
      repeat = static_cast<int>(n);
    } else if (arg == "--median") {
      median = true;
    } else if (arg == "--json") {
      const char* v = next();
      if (v == nullptr) return 2;
      json_path = v;
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return 2;
      char* end = nullptr;
      const long n = std::strtol(v, &end, 10);
      // Upper bound guards the long->int cast from silently truncating
      // (e.g. 2^32 -> 0 -> a serial run the user did not ask for).
      if (end == v || *end != '\0' || n < 1 || n > 4096) {
        std::cerr << "comet_bench: --threads needs an integer in [1, 4096], "
                  << "got '" << v << "'\n";
        return 2;
      }
      SetGlobalThreadCount(static_cast<int>(n));
    } else if (arg == "--ranks") {
      const char* v = next();
      if (v == nullptr) return 2;
      char* end = nullptr;
      const long n = std::strtol(v, &end, 10);
      // 64 ranks = 64 dedicated rank threads in the functional plane; more
      // is a typo, not a benchmark.
      if (end == v || *end != '\0' || n < 1 || n > 64) {
        std::cerr << "comet_bench: --ranks needs an integer in [1, 64], "
                  << "got '" << v << "'\n";
        return 2;
      }
      SetBenchRanks(static_cast<int>(n));
    } else if (arg == "--dtype") {
      const char* v = next();
      if (v == nullptr) return 2;
      const std::string d = v;
      if (d == "f32") {
        SetBenchDType(DType::kF32);
      } else if (d == "bf16") {
        SetBenchDType(DType::kBF16);
      } else if (d == "f16") {
        SetBenchDType(DType::kF16);
      } else {
        std::cerr << "comet_bench: --dtype must be f32, bf16 or f16, got '"
                  << d << "'\n";
        return 2;
      }
    } else if (arg == "--replicas") {
      const char* v = next();
      if (v == nullptr) return 2;
      std::vector<int> replicas;
      for (const std::string& part : Split(v, ',')) {
        char* end = nullptr;
        const long n = std::strtol(part.c_str(), &end, 10);
        // 64 is the dispatcher's accepting_mask width.
        if (part.empty() || end == part.c_str() || *end != '\0' || n < 1 ||
            n > 64) {
          std::cerr << "comet_bench: --replicas needs a comma list of "
                    << "integers in [1, 64], got '" << v << "'\n";
          return 2;
        }
        replicas.push_back(static_cast<int>(n));
      }
      if (replicas.empty()) {
        std::cerr << "comet_bench: --replicas got an empty list\n";
        return 2;
      }
      SetBenchReplicas(std::move(replicas));
    } else if (arg == "--placement") {
      const char* v = next();
      if (v == nullptr) return 2;
      std::vector<PlacementPolicy> placements;
      for (const std::string& part : Split(v, ',')) {
        try {
          placements.push_back(ParsePlacementPolicy(part));
        } catch (const CheckError&) {
          std::cerr << "comet_bench: --placement must be a comma list of "
                    << "rr|least-loaded|p2c|sticky, got '" << part << "'\n";
          return 2;
        }
      }
      if (placements.empty()) {
        std::cerr << "comet_bench: --placement got an empty list\n";
        return 2;
      }
      SetBenchPlacements(std::move(placements));
    } else if (arg == "--faults") {
      SetBenchFaults(true);
    } else if (arg == "--skew") {
      SetBenchSkew(true);
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (v == nullptr) return 2;
      SetBenchTraceOut(v);
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return 2;
      SetBenchMetricsOut(v);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      SetBenchTraceOut(arg.substr(std::string("--trace-out=").size()));
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      SetBenchMetricsOut(arg.substr(std::string("--metrics-out=").size()));
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else {
      std::cerr << "comet_bench: unknown option '" << arg << "'\n";
      PrintUsage();
      return 2;
    }
  }

  // Fail on an unwritable --json path up front, not after the whole run.
  // Append mode: probing must not truncate a previous run's results.
  if (!json_path.empty()) {
    std::ofstream probe(json_path, std::ios::app);
    if (!probe) {
      std::cerr << "comet_bench: cannot open --json path " << json_path
                << "\n";
      return 2;
    }
  }

  std::vector<BenchInfo> benches = Registry();
  std::sort(benches.begin(), benches.end(),
            [](const BenchInfo& a, const BenchInfo& b) {
              return a.name < b.name;
            });

  if (list_only) {
    for (const BenchInfo& info : benches) {
      std::cout << info.name << "  -  " << info.description << "\n";
    }
    std::cout << benches.size() << " benches registered\n";
    return 0;
  }

  // A filter that names a bench exactly selects only that bench (so
  // `ext_multinode` does not also pick `ext_multinode_functional`); any
  // other filter selects by substring.
  auto is_name = [&](const std::string& f) {
    return std::any_of(benches.begin(), benches.end(),
                       [&](const BenchInfo& info) { return info.name == f; });
  };
  auto matches = [&](const BenchInfo& info, const std::string& f) {
    return is_name(f) ? info.name == f
                      : info.name.find(f) != std::string::npos;
  };
  std::vector<BenchInfo> selected;
  for (const BenchInfo& info : benches) {
    if (filters.empty() ||
        std::any_of(filters.begin(), filters.end(), [&](const std::string& f) {
          return matches(info, f);
        })) {
      selected.push_back(info);
    }
  }
  if (selected.empty()) {
    std::cerr << "comet_bench: no bench matches the --only filters "
              << "(try --list)\n";
    return 1;
  }

  std::cout << "threads: " << GlobalThreadCount() << "\n";
  std::vector<RunRecord> records;
  int failures = 0;
  for (size_t b = 0; b < selected.size(); ++b) {
    const BenchInfo& info = selected[b];
    for (int rep = 0; rep < repeat; ++rep) {
      std::cout << "[" << (b + 1) << "/" << selected.size() << "] "
                << info.name;
      if (repeat > 1) std::cout << " (repeat " << rep + 1 << "/" << repeat << ")";
      std::cout << "\n";

      BenchReporter reporter;
      const auto start = std::chrono::steady_clock::now();
      const int rc = info.fn(reporter);
      const double wall_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count();
      if (rc != 0) {
        std::cerr << "comet_bench: " << info.name << " exited with " << rc
                  << "\n";
        ++failures;
      }
      records.push_back({info.name, rep, {"wall_ms", wall_ms, "ms"}});
      for (const BenchMetric& m : reporter.results()) {
        records.push_back({info.name, rep, m});
      }
    }
  }

  if (!json_path.empty() &&
      !WriteJson(json_path, median ? MedianRecords(records) : records, repeat,
                 median)) {
    return 1;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace comet::bench
