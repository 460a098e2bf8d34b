// Blocked CPU GEMM / GroupGEMM with explicit tile structure.
//
// High-performance GPU GroupGEMM kernels (CUTLASS grouped GEMM, which the
// paper builds on) decompose every per-expert problem into BLOCK_M x BLOCK_N
// output tiles and stream tiles through the SMs. COMET's whole contribution
// is about *ordering* those tiles, so the functional plane exposes the same
// tile structure: callers can run a whole problem at once (reference path) or
// compute one tile at a time in any order (COMET path) and must get identical
// results -- each output element is produced by exactly one tile.
//
// Mixed precision: when C's dtype is BF16/F16 every kernel computes in f32
// and rounds each C element once on store (RNE) -- the tensor-core contract.
// Inputs are expected to satisfy the representability invariant
// (tensor/tensor.h); they are consumed as their exact f32 masters. The
// rounded value is a pure function of its coordinates, so the tile-order and
// thread-count bit-exactness guarantees hold at every dtype.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace comet {

// C = A x B with A (m, k), B (k, n), C (m, n), row-major. Accumulates in
// f32; rounds on store at C's dtype; deterministic.
void Gemm(const Tensor& a, const Tensor& b, Tensor& c);

// Computes rows [row_begin, row_end) x cols [col_begin, col_end) of C only.
// Other elements of C are untouched.
void GemmTile(const Tensor& a, const Tensor& b, Tensor& c, int64_t row_begin,
              int64_t row_end, int64_t col_begin, int64_t col_end);

// C = A x B^T with A (m, k), B (n, k), C (m, n). The dgrad of a forward
// `Y = X W`: dX = dY W^T without materializing the transpose.
void GemmNT(const Tensor& a, const Tensor& b, Tensor& c);
// Tile variant of GemmNT over C rows/cols; untouched elsewhere.
void GemmNTTile(const Tensor& a, const Tensor& b, Tensor& c,
                int64_t row_begin, int64_t row_end, int64_t col_begin,
                int64_t col_end);

// C = A^T x B with A (m, k), B (m, n), C (k, n). The wgrad of a forward
// `Y = X W`: dW = X^T dY. The reduction runs over A/B rows in ascending
// order, so the result is deterministic for a fixed operand pair.
void GemmTN(const Tensor& a, const Tensor& b, Tensor& c);

// One output tile of a grouped problem.
struct GemmTileCoord {
  int64_t group = 0;      // which per-expert problem
  int64_t row_begin = 0;  // rows within the group's A/C
  int64_t row_end = 0;
  int64_t col_begin = 0;  // cols within the group's B/C
  int64_t col_end = 0;
};

// A grouped GEMM: per-group operand/output triples sharing (n, k).
struct GroupGemmProblem {
  std::vector<const Tensor*> a;  // (m_g, k)
  std::vector<const Tensor*> b;  // (k, n)
  std::vector<Tensor*> c;        // (m_g, n)
};

// Enumerates all tiles of the grouped problem in the canonical row-major,
// group-major order (group 0 tiles first, rows outer, cols inner) -- the
// order an unmodified grouped GEMM walks them (paper Figure 5 "GroupGEMM
// compute sequence" before rescheduling).
std::vector<GemmTileCoord> EnumerateTiles(const GroupGemmProblem& problem,
                                          int64_t tile_m, int64_t tile_n);

// Executes one tile of the grouped problem.
void RunTile(const GroupGemmProblem& problem, const GemmTileCoord& tile);

// Pre-sizes the CALLING thread's packed-B panel scratch (max_k x 32 floats,
// one column chunk of the NN register tile) for reduction depths up to
// `max_k`. Only tiles of more than 32 rows, or with a ragged column chunk,
// pack B; the rest read it in place. The scratch is thread-local; the serving
// plane runs this on every pool worker and rank thread during warm-up so
// steady-state tile kernels never allocate.
void WarmGemmScratch(int64_t max_k);

// Executes all tiles in the given order; with the canonical order this is
// the reference grouped GEMM.
void RunGroupGemm(const GroupGemmProblem& problem,
                  const std::vector<GemmTileCoord>& tiles);

}  // namespace comet
