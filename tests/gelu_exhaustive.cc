// Exhaustive bit-exactness check of the GELU kernel: every one of the 2^32
// f32 bit patterns goes through TanhScalar, GeluScalar and the vectorized
// GELU row loop (ApplyActivationTile at f32), and each result must carry the
// exact bits of the fdlibm reference (tests/fdlibm_reference.h). It also
// counts how often the host libm's std::tanh differs from the reference --
// informational only, the kernel does not depend on the host libm.
//
// Built with the tests but not a ctest (it takes minutes):
//   ./build/tests/gelu_exhaustive        # threads: COMET_THREADS or all cores
// Exits 1 on any kernel mismatch, 0 otherwise.
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>

#include "moe/activation.h"
#include "tensor/tensor.h"
#include "tests/fdlibm_reference.h"
#include "util/thread_pool.h"

namespace {

using comet::ActivationKind;
namespace ref = comet::fdlibm_reference;

struct Counter {
  const char* name;
  std::atomic<uint64_t> mismatches{0};
  std::mutex mu;
  bool has_example = false;
  uint32_t example_input = 0, example_got = 0, example_want = 0;

  void Check(uint32_t input, float got, float want) {
    const uint32_t g = std::bit_cast<uint32_t>(got);
    const uint32_t w = std::bit_cast<uint32_t>(want);
    if (g == w) return;
    mismatches.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    if (!has_example || input < example_input) {
      has_example = true;
      example_input = input;
      example_got = g;
      example_want = w;
    }
  }

  void Print() const {
    std::printf("%-34s %12llu mismatches", name,
                static_cast<unsigned long long>(mismatches.load()));
    if (has_example) {
      std::printf("  (first: x=0x%08x got 0x%08x want 0x%08x)", example_input,
                  example_got, example_want);
    }
    std::printf("\n");
  }
};

}  // namespace

int main() {
  constexpr int64_t kBlock = int64_t{1} << 16;
  constexpr int64_t kBlocks = (int64_t{1} << 32) / kBlock;
  Counter tanh_scalar{"TanhScalar vs reference"};
  Counter gelu_scalar{"GeluScalar vs reference"};
  Counter gelu_tile{"ApplyActivationTile vs reference"};
  Counter host_tanh{"host std::tanh vs reference"};

  const auto start = std::chrono::steady_clock::now();
  comet::ParallelForChunks(0, kBlocks, 1, [&](int64_t b0, int64_t b1) {
    comet::Tensor tile(comet::Shape{1, kBlock});
    for (int64_t b = b0; b < b1; ++b) {
      const uint32_t base = static_cast<uint32_t>(b * kBlock);
      auto row = tile.row(0);
      for (int64_t i = 0; i < kBlock; ++i) {
        row[static_cast<size_t>(i)] =
            std::bit_cast<float>(base + static_cast<uint32_t>(i));
      }
      comet::ApplyActivationTile(tile, ActivationKind::kGelu, 0, 1, 0,
                                 kBlock);
      for (int64_t i = 0; i < kBlock; ++i) {
        const uint32_t bits = base + static_cast<uint32_t>(i);
        const float x = std::bit_cast<float>(bits);
        const float want_tanh = ref::Tanhf(x);
        const float want_gelu = ref::Gelu(x);
        tanh_scalar.Check(bits, comet::TanhScalar(x), want_tanh);
        host_tanh.Check(bits, std::tanh(x), want_tanh);
        gelu_scalar.Check(bits, comet::GeluScalar(x), want_gelu);
        gelu_tile.Check(bits, row[static_cast<size_t>(i)], want_gelu);
      }
    }
  });
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  std::printf("swept all 2^32 f32 inputs on %d threads in %.1f s\n",
              comet::GlobalThreadCount(), seconds);
  tanh_scalar.Print();
  gelu_scalar.Print();
  gelu_tile.Print();
  host_tanh.Print();
  const bool ok = tanh_scalar.mismatches == 0 &&
                  gelu_scalar.mismatches == 0 && gelu_tile.mismatches == 0;
  std::printf("%s\n", ok ? "OK: kernel bit-identical to fdlibm tanhf"
                         : "FAIL: kernel differs from fdlibm tanhf");
  return ok ? 0 : 1;
}
