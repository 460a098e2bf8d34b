#include <cpuid.h>

#include <cstring>
#include <sstream>
#include <thread>

#include "moe/group_gemm.h"
#include "perfbench.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS ""
#endif

namespace perfbench {

namespace {

// CPU brand string from CPUID leaves 0x80000002..4.
std::string CpuModel() {
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const size_t first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

double CalibrateGemmGflops() {
  // C(m, n) = A(m, k) x B(n, k)^T, one thread, f32: the GEMM kernel every
  // data-plane GEMM shares, on a fixed cache-resident shape.
  constexpr int64_t kM = 128, kN = 128, kK = 256;
  comet::Rng rng(1);
  const comet::Tensor a = comet::Tensor::Randn(comet::Shape{kM, kK}, rng);
  const comet::Tensor b = comet::Tensor::Randn(comet::Shape{kN, kK}, rng);
  comet::Tensor c(comet::Shape{kM, kN});
  comet::ScopedThreadLimit serial(1);
  comet::GemmNT(a, b, c);  // warm-up
  std::vector<double> gflops;
  for (int rep = 0; rep < 7; ++rep) {
    int calls = 0;
    const Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    while (elapsed < 0.02) {
      comet::GemmNT(a, b, c);
      ++calls;
      elapsed = SecondsSince(start);
    }
    gflops.push_back(2.0 * kM * kN * kK * calls / elapsed / 1e9);
  }
  return Median(gflops);
}

std::string ManifestJson(const RunOptions& options, int threads,
                         double calib_gflops) {
  std::ostringstream os;
  os << "{\"manifest\": {\"source\": " << JsonString(options.source_id)
     << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
     << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
     << ", \"flags\": " << JsonString(PERFBENCH_FLAGS)
     << ", \"cpu\": " << JsonString(CpuModel())
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"workload\": " << JsonString(options.workload)
     << ", \"threads\": " << threads << ", \"seed\": " << options.seed
     << ", \"seconds\": " << options.seconds
     << ", \"trace\": " << (options.trace ? 1 : 0)
     << ", \"calib.gemm_gflops\": " << calib_gflops << "}}";
  return os.str();
}

}  // namespace perfbench
