#include "moe/group_gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/check.h"
#include "util/thread_pool.h"

namespace comet {
namespace {

// Lanes per Vec: one AVX-512 vector (two AVX2, four SSE2). The NT lane split
// and the TN block width are defined in these units.
constexpr int64_t kLanes = 16;

// One kLanes-wide accumulator/operand row. GCC/Clang vector extension rather
// than auto-vectorization: the explicit type pins the accumulators into
// vector registers (plain acc[4][16] arrays tempted GCC into outer-loop
// vectorization with stack-resident accumulators -- 6x slower). aligned(4)
// permits loads straight from row-major tensor storage. On targets without
// wide SIMD the compiler lowers the ops to narrower vectors; lane semantics
// (and therefore results) are identical everywhere.
typedef float Vec __attribute__((vector_size(kLanes * sizeof(float)),
                                 aligned(alignof(float))));

inline const Vec& LoadVec(const float* p) {
  return *reinterpret_cast<const Vec*>(p);
}

inline void StoreVec(float* p, const Vec& v) { std::memcpy(p, &v, sizeof(v)); }

// NN register tile: kMR rows x kNR columns of C held in 2 * kMR Vec
// accumulators, fed by two B vectors per reduction step. Sixteen independent
// add chains keep both FP ports busy at add latency 4.
constexpr int64_t kMR = 8;
constexpr int64_t kNR = 2 * kLanes;

// Tiles of at least this many rows copy each B column chunk into a
// contiguous panel; shorter ones (every decode tile) read B rows in place at
// stride n, because over four or fewer row blocks the copy costs about as
// much as the arithmetic it feeds.
constexpr int64_t kPackMinRows = 4 * kMR + 1;

// Rows of the TN register block.
constexpr int64_t kTNRows = 4;

// Row grain for the whole-matrix parallel wrappers: below this many rows per
// chunk the dispatch overhead beats the win.
constexpr int64_t kRowGrain = 8;

// The mixed-precision store: rounds the C region a kernel just produced to
// C's dtype (RNE). This is the tensor-core contract -- low-precision inputs,
// f32 accumulate, round once on store -- expressed as a second pass so the
// f32 microkernels stay untouched. Per-element rounding of a value that is
// itself a pure function of coordinates keeps the whole-vs-tiled and
// 1-vs-N-thread bit-exactness guarantees at every dtype. No-op for f32.
void QuantizeStore(Tensor& c, int64_t row_begin, int64_t row_end,
                   int64_t col_begin, int64_t col_end) {
  const DType dtype = c.dtype();
  if (dtype == DType::kF32) {
    return;
  }
  float* data = c.data().data();
  const int64_t n = c.cols();
  for (int64_t i = row_begin; i < row_end; ++i) {
    QuantizeSpan(std::span<float>(data + i * n + col_begin,
                                  static_cast<size_t>(col_end - col_begin)),
                 dtype);
  }
}

// Per-thread packed B panel (k x kNR). Thread-local so tile kernels stay
// reentrant across pool workers; grows only (WarmGemmScratch pre-sizes it).
std::vector<float>& PanelScratch() {
  thread_local std::vector<float> scratch;
  return scratch;
}

// ---- NN: C[i, j] = sum_p A[i, p] * B[p, j] ---------------------------------
//
// Accumulation order per C element is p-ascending with a single chain from
// zero, a pure function of (i, j, k): independent of the tile bounds, the
// register blocking and whether B was packed, so whole-vs-tiled and
// 1-vs-N-thread runs are bit-identical.

// One kRows x (kVecs * kLanes) block of C: A rows at `a` (stride k), B rows
// at `b` (stride ldb, kVecs full vectors readable per row), C rows at `c`
// (stride n), of which the first `width` columns are stored.
template <int kRows, int kVecs>
[[gnu::always_inline]] inline void MicroTile(const float* a, int64_t k,
                                            const float* b, int64_t ldb,
                                            float* c, int64_t n,
                                            int64_t width) {
  // The loops over r are unrolled, so acc is only ever indexed by constants
  // and lives in registers (GCC otherwise keeps all of it on the stack and
  // clears it with rep stos on every call).
  Vec acc[kRows][kVecs] = {};
  for (int64_t p = 0; p < k; ++p) {
    Vec bv[kVecs];
    for (int v = 0; v < kVecs; ++v) {
      bv[v] = LoadVec(b + p * ldb + v * kLanes);
    }
#pragma GCC unroll 16
    for (int r = 0; r < kRows; ++r) {
      const float a_rp = a[r * k + p];
      for (int v = 0; v < kVecs; ++v) {
        acc[r][v] += a_rp * bv[v];
      }
    }
  }
  if (width == kVecs * kLanes) {
#pragma GCC unroll 16
    for (int r = 0; r < kRows; ++r) {
      for (int v = 0; v < kVecs; ++v) {
        StoreVec(c + r * n + v * kLanes, acc[r][v]);
      }
    }
    return;
  }
  // Ragged chunk: through a stack row, so that only this path spills.
#pragma GCC unroll 16
  for (int r = 0; r < kRows; ++r) {
    float row[kVecs * kLanes];
    for (int v = 0; v < kVecs; ++v) {
      StoreVec(row + v * kLanes, acc[r][v]);
    }
    std::copy_n(row, width, c + r * n);
  }
}

// The last 1..kMR-1 rows of a row range, at the same template.
template <int kVecs, int kRows = kMR - 1>
void RemainderRows(int64_t rows, const float* a, int64_t k, const float* b,
                   int64_t ldb, float* c, int64_t n, int64_t width) {
  if (rows == kRows) {
    MicroTile<kRows, kVecs>(a, k, b, ldb, c, n, width);
  } else if constexpr (kRows > 1) {
    RemainderRows<kVecs, kRows - 1>(rows, a, k, b, ldb, c, n, width);
  }
}

// Rows [row_begin, row_end) of one column chunk; b and c start at its first
// column.
template <int kVecs>
void RowBlocks(const float* a, int64_t k, const float* b, int64_t ldb,
               float* c, int64_t n, int64_t row_begin, int64_t row_end,
               int64_t width) {
  int64_t i = row_begin;
  for (; i + kMR <= row_end; i += kMR) {
    MicroTile<kMR, kVecs>(a + i * k, k, b, ldb, c + i * n, n, width);
  }
  if (i < row_end) {
    RemainderRows<kVecs>(row_end - i, a + i * k, k, b, ldb, c + i * n, n,
                         width);
  }
}

void GemmTileImpl(const float* a, const float* b, float* c, int64_t k,
                  int64_t n, int64_t row_begin, int64_t row_end,
                  int64_t col_begin, int64_t col_end) {
  const bool tall = row_end - row_begin >= kPackMinRows;
  for (int64_t jj = col_begin; jj < col_end; jj += kNR) {
    const int64_t width = std::min(kNR, col_end - jj);
    // Chunks of up to kLanes columns (the gate's E experts) run one vector
    // wide instead of padding to kNR.
    const int64_t chunk = width > kLanes ? kNR : kLanes;
    const float* b_chunk = b + jj;
    int64_t ldb = n;
    if (tall || width != chunk) {
      // Pack, zero-padding a ragged chunk so full-vector loads stay inside
      // the panel.
      std::vector<float>& panel = PanelScratch();
      if (panel.size() < static_cast<size_t>(k * kNR)) {
        panel.resize(static_cast<size_t>(k * kNR));
      }
      float* pk = panel.data();
      for (int64_t p = 0; p < k; ++p) {
        const float* b_row = b + p * n + jj;
        float* dst = pk + p * chunk;
        for (int64_t t = 0; t < width; ++t) {
          dst[t] = b_row[t];
        }
        for (int64_t t = width; t < chunk; ++t) {
          dst[t] = 0.0f;
        }
      }
      b_chunk = pk;
      ldb = chunk;
    }
    if (chunk == kNR) {
      RowBlocks<2>(a, k, b_chunk, ldb, c + jj, n, row_begin, row_end, width);
    } else {
      RowBlocks<1>(a, k, b_chunk, ldb, c + jj, n, row_begin, row_end, width);
    }
  }
}

// ---- NT: C[i, j] = dot(A row i, B row j) -----------------------------------
//
// The dot runs kLanes independent accumulator lanes over p (lane l takes
// p = l, l + kLanes, ...), combined by a fixed binary tree. The lane split and
// the combine order depend only on k, never on the tile bounds, so the
// whole-vs-tiled bit-exactness contract holds. Lanes vectorize to one multiply
// and one add per kLanes elements.
float DotLanes(const float* a, const float* b, int64_t k) {
  Vec acc{};
  const int64_t k_main = k - (k % kLanes);
  for (int64_t p = 0; p < k_main; p += kLanes) {
    acc += LoadVec(a + p) * LoadVec(b + p);
  }
  for (int64_t p = k_main; p < k; ++p) {
    acc[p - k_main] += a[p] * b[p];
  }
  float lanes[kLanes];
  for (int64_t l = 0; l < kLanes; ++l) {
    lanes[l] = acc[l];
  }
  for (int64_t stride = kLanes / 2; stride > 0; stride /= 2) {
    for (int64_t l = 0; l < stride; ++l) {
      lanes[l] += lanes[l + stride];
    }
  }
  return lanes[0];
}

void GemmNTTileImpl(const float* a, const float* b, float* c, int64_t k,
                    int64_t n, int64_t row_begin, int64_t row_end,
                    int64_t col_begin, int64_t col_end) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (int64_t j = col_begin; j < col_end; ++j) {
      c_row[j] = DotLanes(a_row, b + j * k, k);
    }
  }
}

// ---- TN: C[q, j] = sum_i A[i, q] * B[i, j] ---------------------------------
//
// The i reduction always runs over the full [0, m) in ascending order with a
// single chain per C element (held in the register block), so splitting the
// output rows/cols across tiles or threads never reorders a sum.
void GemmTNTileImpl(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n, int64_t row_begin, int64_t row_end,
                    int64_t col_begin, int64_t col_end) {
  for (int64_t jj = col_begin; jj < col_end; jj += kLanes) {
    const int64_t width = std::min(kLanes, col_end - jj);
    for (int64_t qq = row_begin; qq < row_end; qq += kTNRows) {
      const int64_t rows = std::min(kTNRows, row_end - qq);
      if (rows == kTNRows && width == kLanes) {
        Vec acc0{}, acc1{}, acc2{}, acc3{};
        for (int64_t i = 0; i < m; ++i) {
          const float* a_row = a + i * k + qq;
          const Vec bp = LoadVec(b + i * n + jj);
          acc0 += a_row[0] * bp;
          acc1 += a_row[1] * bp;
          acc2 += a_row[2] * bp;
          acc3 += a_row[3] * bp;
        }
        const Vec* accs[kTNRows] = {&acc0, &acc1, &acc2, &acc3};
        for (int64_t r = 0; r < kTNRows; ++r) {
          float* c_row = c + (qq + r) * n + jj;
          for (int64_t t = 0; t < kLanes; ++t) {
            c_row[t] = (*accs[r])[t];
          }
        }
      } else {
        // Edge block: scalar accumulators, same per-element i-ascending
        // chain (partial-width vector loads would read past the B row).
        float acc[kTNRows][kLanes] = {};
        for (int64_t i = 0; i < m; ++i) {
          const float* bp = b + i * n + jj;
          for (int64_t r = 0; r < rows; ++r) {
            const float v = a[i * k + qq + r];
            for (int64_t t = 0; t < width; ++t) {
              acc[r][t] += v * bp[t];
            }
          }
        }
        for (int64_t r = 0; r < rows; ++r) {
          float* c_row = c + (qq + r) * n + jj;
          for (int64_t t = 0; t < width; ++t) {
            c_row[t] = acc[r][t];
          }
        }
      }
    }
  }
}

}  // namespace

void GemmTile(const Tensor& a, const Tensor& b, Tensor& c, int64_t row_begin,
              int64_t row_end, int64_t col_begin, int64_t col_end) {
  COMET_CHECK_EQ(a.shape().rank(), 2u);
  COMET_CHECK_EQ(b.shape().rank(), 2u);
  COMET_CHECK_EQ(c.shape().rank(), 2u);
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  COMET_CHECK_EQ(b.rows(), k);
  COMET_CHECK_EQ(c.rows(), m);
  COMET_CHECK_EQ(c.cols(), n);
  COMET_CHECK_GE(row_begin, 0);
  COMET_CHECK_LE(row_end, m);
  COMET_CHECK_GE(col_begin, 0);
  COMET_CHECK_LE(col_end, n);
  COMET_CHECK_LE(row_begin, row_end);
  COMET_CHECK_LE(col_begin, col_end);

  GemmTileImpl(a.data().data(), b.data().data(), c.data().data(), k, n,
               row_begin, row_end, col_begin, col_end);
  QuantizeStore(c, row_begin, row_end, col_begin, col_end);
}

void Gemm(const Tensor& a, const Tensor& b, Tensor& c) {
  COMET_CHECK_EQ(a.shape().rank(), 2u);
  COMET_CHECK_EQ(b.shape().rank(), 2u);
  COMET_CHECK_EQ(c.shape().rank(), 2u);
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  COMET_CHECK_EQ(b.rows(), k);
  COMET_CHECK_EQ(c.rows(), m);
  COMET_CHECK_EQ(c.cols(), n);
  const float* a_data = a.data().data();
  const float* b_data = b.data().data();
  float* c_data = c.data().data();
  // Row partition of C: chunks write disjoint rows, so the parallel run is
  // bit-identical to the serial one at any thread count.
  ParallelForChunks(0, m, kRowGrain, [&](int64_t rb, int64_t re) {
    GemmTileImpl(a_data, b_data, c_data, k, n, rb, re, 0, n);
    QuantizeStore(c, rb, re, 0, n);
  });
}

void GemmNTTile(const Tensor& a, const Tensor& b, Tensor& c,
                int64_t row_begin, int64_t row_end, int64_t col_begin,
                int64_t col_end) {
  COMET_CHECK_EQ(a.shape().rank(), 2u);
  COMET_CHECK_EQ(b.shape().rank(), 2u);
  COMET_CHECK_EQ(c.shape().rank(), 2u);
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.rows();
  COMET_CHECK_EQ(b.cols(), k);
  COMET_CHECK_EQ(c.rows(), m);
  COMET_CHECK_EQ(c.cols(), n);
  COMET_CHECK_GE(row_begin, 0);
  COMET_CHECK_LE(row_end, m);
  COMET_CHECK_GE(col_begin, 0);
  COMET_CHECK_LE(col_end, n);

  GemmNTTileImpl(a.data().data(), b.data().data(), c.data().data(), k, n,
                 row_begin, row_end, col_begin, col_end);
  QuantizeStore(c, row_begin, row_end, col_begin, col_end);
}

void GemmNT(const Tensor& a, const Tensor& b, Tensor& c) {
  COMET_CHECK_EQ(a.shape().rank(), 2u);
  COMET_CHECK_EQ(b.shape().rank(), 2u);
  COMET_CHECK_EQ(c.shape().rank(), 2u);
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.rows();
  COMET_CHECK_EQ(b.cols(), k);
  COMET_CHECK_EQ(c.rows(), m);
  COMET_CHECK_EQ(c.cols(), n);
  const float* a_data = a.data().data();
  const float* b_data = b.data().data();
  float* c_data = c.data().data();
  ParallelForChunks(0, m, kRowGrain, [&](int64_t rb, int64_t re) {
    GemmNTTileImpl(a_data, b_data, c_data, k, n, rb, re, 0, n);
    QuantizeStore(c, rb, re, 0, n);
  });
}

void GemmTN(const Tensor& a, const Tensor& b, Tensor& c) {
  COMET_CHECK_EQ(a.shape().rank(), 2u);
  COMET_CHECK_EQ(b.shape().rank(), 2u);
  COMET_CHECK_EQ(c.shape().rank(), 2u);
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  COMET_CHECK_EQ(b.rows(), m);
  COMET_CHECK_EQ(c.rows(), k);
  COMET_CHECK_EQ(c.cols(), n);
  const float* a_data = a.data().data();
  const float* b_data = b.data().data();
  float* c_data = c.data().data();
  // Partition over OUTPUT rows q; the i reduction inside each chunk still
  // covers all of [0, m) in order, so determinism is untouched.
  ParallelForChunks(0, k, kRowGrain, [&](int64_t rb, int64_t re) {
    GemmTNTileImpl(a_data, b_data, c_data, m, k, n, rb, re, 0, n);
    QuantizeStore(c, rb, re, 0, n);
  });
}

std::vector<GemmTileCoord> EnumerateTiles(const GroupGemmProblem& problem,
                                          int64_t tile_m, int64_t tile_n) {
  COMET_CHECK_GT(tile_m, 0);
  COMET_CHECK_GT(tile_n, 0);
  COMET_CHECK_EQ(problem.a.size(), problem.b.size());
  COMET_CHECK_EQ(problem.a.size(), problem.c.size());
  std::vector<GemmTileCoord> tiles;
  for (size_t g = 0; g < problem.a.size(); ++g) {
    const int64_t m = problem.a[g]->rows();
    const int64_t n = problem.b[g]->cols();
    for (int64_t r = 0; r < m; r += tile_m) {
      for (int64_t cc = 0; cc < n; cc += tile_n) {
        tiles.push_back(GemmTileCoord{static_cast<int64_t>(g), r,
                                      std::min(r + tile_m, m), cc,
                                      std::min(cc + tile_n, n)});
      }
    }
  }
  return tiles;
}

void WarmGemmScratch(int64_t max_k) {
  COMET_CHECK_GE(max_k, 0);
  std::vector<float>& panel = PanelScratch();
  const size_t need = static_cast<size_t>(max_k * kNR);
  if (panel.capacity() < need) {
    panel.reserve(need);
  }
}

void RunTile(const GroupGemmProblem& problem, const GemmTileCoord& tile) {
  COMET_CHECK_GE(tile.group, 0);
  COMET_CHECK_LT(static_cast<size_t>(tile.group), problem.a.size());
  const size_t g = static_cast<size_t>(tile.group);
  GemmTile(*problem.a[g], *problem.b[g], *problem.c[g], tile.row_begin,
           tile.row_end, tile.col_begin, tile.col_end);
}

void RunGroupGemm(const GroupGemmProblem& problem,
                  const std::vector<GemmTileCoord>& tiles) {
  // Tiles partition the grouped C disjointly (each output element belongs to
  // exactly one tile), so dispatching them across the pool is numerically
  // free -- the paper's §3.1 tile-independence claim re-expressed on CPU.
  ParallelFor(0, static_cast<int64_t>(tiles.size()), 1, [&](int64_t t) {
    RunTile(problem, tiles[static_cast<size_t>(t)]);
  });
}

}  // namespace comet
