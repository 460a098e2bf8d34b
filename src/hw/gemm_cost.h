// Analytic GEMM / GroupGEMM cost model.
//
// High-performance GEMM kernels process the output in BLOCK_M x BLOCK_N tiles
// (128x128 by default, matching the CUTLASS configuration the paper uses).
// The model charges:
//   * tile time   = 2*tm*tn*K flops at the per-SM sustained rate, discounted
//                   by a K-dependent efficiency (small K per rank -- i.e.
//                   large TP -- lowers arithmetic intensity),
//   * wave count  = ceil(tiles / SMs-used): wave quantization makes small
//                   GEMMs waste most of a wave, which is exactly the paper's
//                   Figure 1(b) observation that partitioned experts take
//                   t1 + t2 > t, and Figure 12's degradation at large TP,
//   * roofline    = a memory-bandwidth floor for memory-bound shapes.
//
// The same tile time feeds the fused-kernel simulator, so a GEMM timed as a
// monolithic kernel and the identical GEMM timed tile-by-tile in a fused
// kernel agree by construction (thread-block specialization keeps compute
// blocks unmodified -- paper §3.2.1).
#pragma once

#include <cstdint>
#include <vector>

#include "hw/gpu_spec.h"

namespace comet {

struct GemmShape {
  int64_t m = 0;
  int64_t n = 0;
  int64_t k = 0;
};

class GemmCostModel {
 public:
  // `bytes_per_element` is the logical training dtype (2 for BF16).
  GemmCostModel(GpuSpec gpu, int tile_m = 128, int tile_n = 128,
                double base_efficiency = 0.85, double bytes_per_element = 2.0);

  int tile_m() const { return tile_m_; }
  int tile_n() const { return tile_n_; }

  // Sustained time for ONE output tile with reduction depth k, on one SM,
  // at the model's native tile shape.
  double TileTimeUs(int64_t k) const;

  // Same for an arbitrary tile_m x tile_n tile. Smaller tiles lose MMA/TMA
  // pipeline efficiency (fixed per-tile prologue/epilogue, partial tensor
  // core fragments): this is the paper's §3.1.2 observation that splitting
  // the shared tensor "into individual rows or columns ... results in low
  // computational efficiency", and what makes the decomposition granularity
  // a real trade-off rather than finer-is-always-better.
  double TileTimeUs(int64_t k, int64_t tile_m, int64_t tile_n) const;

  // Efficiency factor in (0, 1] of a tm x tn tile relative to the native
  // shape; 1 at/above the native shape, falling toward 0 for 1-element
  // tiles. Exposed for tests and the granularity ablation.
  double TileShapeEfficiency(int64_t tile_m, int64_t tile_n) const;

  // Number of output tiles of a GEMM.
  int64_t NumTiles(const GemmShape& shape) const;

  // Whole-kernel time on `sms` SMs (wave-quantized, roofline-floored).
  // Shapes with m == 0 cost zero.
  double TimeUs(const GemmShape& shape, int sms) const;

  // GroupGEMM over per-expert shapes sharing one kernel: tiles from all
  // groups are pooled into waves. All groups must share n and k.
  double GroupTimeUs(const std::vector<GemmShape>& groups, int sms) const;

  // Efficiency factor in (0, 1]: ratio of sustained to ideal flops for a
  // given reduction depth. Exposed for tests and for the TE baseline which
  // applies a different curve.
  double KEfficiency(int64_t k) const;

 private:
  double MemoryFloorUs(const GemmShape& shape, int sms) const;

  GpuSpec gpu_;
  int tile_m_;
  int tile_n_;
  double base_efficiency_;
  double bytes_per_element_;
};

}  // namespace comet
