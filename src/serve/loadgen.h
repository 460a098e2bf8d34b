// Seeded open-loop request generation on the simulated clock.
//
// Open-loop means arrivals are INDEPENDENT of service: the generator lays
// down request arrival times from the seed alone, and the server either
// keeps up or queues/sheds -- the load never politely waits for capacity
// (the closed-loop fallacy latency benchmarks warn about). Two arrival
// processes:
//  * kPoisson -- exponential inter-arrival gaps at `offered_rps`;
//  * kBursty  -- a compound (batch) Poisson process: burst epochs arrive at
//    offered_rps / mean_burst, each carrying a geometrically-distributed
//    number of simultaneous requests with mean `mean_burst`. The long-run
//    offered rate is identical to kPoisson's; only the variance moves, which
//    is exactly the knob tail-latency studies need.
//
// Prompt/decode lengths draw from configurable distributions (fixed,
// uniform, or the bimodal short-interactive / long-context mix production
// traces show). Everything derives from LoadGenOptions::seed, so a request
// stream is exactly reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/request.h"
#include "util/rng.h"

namespace comet {

enum class ArrivalProcess {
  kPoisson,
  kBursty,
};

const char* ArrivalProcessName(ArrivalProcess process);

// Distribution over token lengths (prompt or decode).
struct LengthDist {
  enum class Kind {
    kFixed,    // always `fixed`
    kUniform,  // uniform integer in [lo, hi]
    kBimodal,  // short_len with prob (1 - long_fraction), else long_len
  };
  Kind kind = Kind::kFixed;
  int64_t fixed = 8;
  int64_t lo = 1;
  int64_t hi = 16;
  int64_t short_len = 4;
  int64_t long_len = 32;
  double long_fraction = 0.1;

  static LengthDist Fixed(int64_t n);
  static LengthDist Uniform(int64_t lo, int64_t hi);
  static LengthDist Bimodal(int64_t short_len, int64_t long_len,
                            double long_fraction);

  // Smallest / largest value Sample can return.
  int64_t Min() const;
  int64_t Max() const;
  int64_t Sample(Rng& rng) const;

  // Loud up-front validation (CheckError): kUniform requires lo <= hi,
  // kBimodal requires long_fraction in [0, 1]. LoadGenerator calls this at
  // construction, so a malformed distribution fails when it is configured
  // -- not at whichever Sample first hits the broken branch (a kBimodal
  // stream with long_fraction 1e9 otherwise emits plausible requests until
  // the first draw lands in the nonsense region).
  void Validate() const;
};

struct LoadGenOptions {
  uint64_t seed = 1;
  // Mean offered load, requests per simulated second.
  double offered_rps = 100.0;
  ArrivalProcess arrival = ArrivalProcess::kPoisson;
  // kBursty: mean requests per burst epoch (>= 1; 1 degenerates to Poisson).
  double mean_burst = 4.0;
  int64_t num_requests = 100;
  // Sessions for sticky placement: > 0 draws each request's session key
  // uniformly from [0, num_sessions); 0 (default) gives every request its
  // own session (session == id) WITHOUT consuming a draw, so existing
  // seeded streams are bit-identical to what they were before sessions
  // existed.
  int64_t num_sessions = 0;
  LengthDist prompt = LengthDist::Uniform(4, 16);
  LengthDist decode = LengthDist::Uniform(1, 8);
};

// Streams `num_requests` RequestSpecs with non-decreasing arrival_us.
class LoadGenerator {
 public:
  explicit LoadGenerator(LoadGenOptions options);

  bool Done() const { return emitted_ >= options_.num_requests; }
  // Next request; CHECK-fails when Done().
  RequestSpec Next();

  // Drains the whole stream (convenience for benches/tests).
  std::vector<RequestSpec> GenerateAll();

 private:
  LoadGenOptions options_;
  Rng rng_;
  int64_t emitted_ = 0;
  double clock_us_ = 0.0;
  // kBursty: requests still to emit at the current epoch's timestamp.
  int64_t burst_remaining_ = 0;
};

}  // namespace comet
