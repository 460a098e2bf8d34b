// perfbench --workload NAME --seed N --seconds S --trace 0|1
//           [--out-dir DIR] [--source-id ID]
// perfbench --metric-names
//
// Prints a manifest line, then as its last line one JSON object with the
// keys correct / attempted / failed / metrics. Exits 0 when the run
// completed (check "correct" for the oracle's verdict), 2 on bad usage, 1
// when the workload threw.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "perfbench.h"
#include "util/check.h"

namespace {

using namespace perfbench;

int Usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--source-id ID]\n"
               "       perfbench --metric-names\n";
  return 2;
}

// Threads the workload's process may use (at most nproc = 4).
int WorkloadThreads(const std::string& workload) {
  return workload == "paper_sweep" ? 4 : 1;
}

RunResult RunWorkload(const RunOptions& options) {
  if (options.workload == "serve_decode") {
    return RunServeDecode(options);
  }
  if (options.workload == "serve_prefill") {
    return RunServePrefill(options);
  }
  if (options.workload == "fleet_skew") {
    return RunFleetSkew(options);
  }
  return RunPaperSweep(options);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metric-names") {
      for (const MetricDef& m : EndToEndMetrics()) {
        std::cout << "end_to_end " << m.name << " " << m.unit << "\n";
      }
      for (const MetricDef& m : PerLayerMetrics()) {
        std::cout << "per_layer " << m.name << " " << m.unit << "\n";
      }
      for (const std::string_view w : WorkloadNames()) {
        std::cout << "workload " << w << "\n";
      }
      return 0;
    }
    if (i + 1 >= argc) {
      return Usage("missing value for " + arg);
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0.0;
      } else if (arg == "--trace") {
        options.trace = std::stoi(value) != 0;
        have_trace = value == "0" || value == "1";
      } else if (arg == "--out-dir") {
        options.out_dir = value;
      } else if (arg == "--source-id") {
        options.source_id = value;
      } else {
        return Usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return Usage("bad value for " + arg + ": " + value);
    }
  }
  bool known = false;
  for (const std::string_view w : WorkloadNames()) {
    known = known || w == options.workload;
  }
  if (!known) {
    return Usage("unknown workload '" + options.workload + "'");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds (> 0) and --trace 0|1 are required");
  }
  std::filesystem::create_directories(options.out_dir);

  const double calib = CalibrateGemmGflops();
  const std::string manifest =
      ManifestJson(options, WorkloadThreads(options.workload), calib);
  std::cout << manifest << std::endl;

  RunResult result;
  try {
    result = RunWorkload(options);
  } catch (const comet::CheckError& e) {
    std::cerr << "perfbench: " << options.workload
              << " threw CheckError: " << e.what() << "\n";
    return 1;
  }
  result.Set("peak_rss_mib", PeakRssMiB());
  result.Set("calib.gemm_gflops", calib);

  const std::string line = ResultLine(result, options.trace);
  std::ofstream record(options.out_dir + "/" + options.workload +
                       (options.trace ? ".traced" : "") + ".result.json");
  record << manifest << "\n" << line << "\n";
  std::cout << line << std::endl;
  return 0;
}
