// Unit conventions shared by the whole codebase.
//
// Time is carried as double MICROSECONDS everywhere in the timing plane
// (large enough range for end-to-end model runs, fine enough resolution for
// sub-microsecond tile events). Data sizes are carried as double BYTES;
// bandwidths as bytes per microsecond (== MB/s * 1e-6 ... we provide
// converters so call sites never do raw arithmetic on magic constants).
#pragma once

namespace comet {

constexpr double kBytesPerMiB = 1024.0 * 1024.0;

// ----- rates ---------------------------------------------------------------
// Bandwidth unit: bytes per microsecond. 1 GB/s == 1e9 B / 1e6 us == 1e3 B/us.
constexpr double GBps(double gb_per_s) { return gb_per_s * 1e3; }
// Compute unit: flops per microsecond. 1 TFLOP/s == 1e12 / 1e6 == 1e6 f/us.
constexpr double TFlops(double tflops) { return tflops * 1e6; }

}  // namespace comet
