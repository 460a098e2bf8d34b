// NVSHMEM-style symmetric heap emulation.
//
// NVSHMEM gives every rank a window into a global address space: a buffer
// allocated "symmetrically" exists at the same logical offset on every PE,
// and GPU-initiated put/get moves data between PEs at any granularity. The
// paper's fused kernels use exactly this to let each computation tile read or
// write only the tokens it needs (§2.2.1, §4 "NVSHMEM as communication
// library").
//
// This emulation keeps one real buffer per rank per allocation and exposes
// row-granular (token-granular) ops: PutRow and PutRowWithSignal write one
// row, CopyRow reads one, WaitUntilSignalGe/WaitSignalGe wait on a signal
// word. Every remote access is accounted in a per-(src,dst) traffic matrix, which the tests use to verify that COMET's
// rescheduled execution moves exactly the same bytes as the reference, and
// the timing plane uses to price communication.
//
// Dtype: an allocation made at kBF16/kF16 carries genuine 2-byte rows. Row
// puts/gets encode every element into a real 16-bit word (RNE) and decode on
// the far side, so values that are not representable at the buffer dtype are
// rounded by transport -- the paper's "allocated memory size is 2MN" buffers
// cannot carry f32 payloads, and neither can these. Traffic is accounted at
// the dtype width, so the same RoutePlan moves exactly half the bytes at a
// 2-byte dtype. Local() exposes the raw f32 master (the emulation's storage)
// for bulk initialization; callers own its representability (the executors
// only assign pre-quantized tensors).
//
// Thread safety: the heap is built for genuinely concurrent ranks (see
// runtime/rank_group.h). Allocation is NOT thread-safe -- allocate every
// buffer before launching the ranks. After that:
//  * row puts/gets to DISTINCT rows may run concurrently (the executors'
//    (token, slot, lane) partitions guarantee disjointness); same-row
//    conflicts are the caller's bug, exactly as on real symmetric memory;
//  * signal words are atomics: PutRowWithSignal release-publishes the
//    payload before bumping the word, and WaitUntilSignalGe/SignalValue
//    acquire-load it, so a consumer that observed the signal also observes
//    the row bytes;
//  * traffic accounting uses per-(src,dst) atomic byte counters -- there is
//    no mutex anywhere on the data path.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace comet {

using SymmetricBufferId = int64_t;

// The heap's row checksum: a 64-bit hash of the row's f32 bit patterns,
// folded one 8-byte word (two elements) at a time, an odd trailing element
// as a 4-byte word. Every fold h' = G(h ^ w), with G a bijection of the
// state, is one-to-one in h for a fixed word and in w for a fixed h. Two
// equal-length rows that differ in exactly one word therefore reach the
// differing fold with equal states, leave it with different ones, and stay
// different through every later fold: every single-bit flip changes the
// checksum.
uint64_t RowChecksum(std::span<const float> row);

// Transport-integrity options, off by default (training and bench paths
// trust the in-process heap; the serving plane turns verification on).
//
// With checksum_rows, every put records a RowChecksum of the row it stored
// (post-wire-quantization bits), and every CopyRow re-hashes the stored row
// and compares before handing the data out. A
// mismatch throws CheckError naming the buffer, rank and row -- a corrupted
// payload is always detected at its first consumer, never silently served.
// Rows that were never put (bulk Local() initialization) carry no checksum
// and are not verified; a non-const Local() invalidates that rank's
// checksums, so bulk rewrites do not trip stale sums.
//
// corrupt_rate > 0 arms the deterministic link-corruption injector: each
// PutRow flips one bit of the STORED payload (after the checksum is
// recorded, so detection is guaranteed) with probability corrupt_rate. The
// decision and the flipped bit are a pure hash of (corrupt_seed, buffer,
// rank, row, per-row put count) -- independent of thread interleaving, so a
// corrupted run is exactly reproducible at any thread count.
struct HeapIntegrityOptions {
  bool checksum_rows = false;
  double corrupt_rate = 0.0;
  uint64_t corrupt_seed = 0;
};

class SymmetricHeap {
 public:
  explicit SymmetricHeap(int world_size, HeapIntegrityOptions integrity = {});

  // Lifetime counters: rows the injector corrupted / reads that verified a
  // checksum (relaxed atomics; exact totals, arbitrary order).
  int64_t rows_corrupted() const {
    return static_cast<int64_t>(rows_corrupted_.load(std::memory_order_relaxed));
  }
  int64_t rows_verified() const {
    return static_cast<int64_t>(rows_verified_.load(std::memory_order_relaxed));
  }

  // Allocates a buffer of `shape` on every rank (zero-filled). The name is
  // for diagnostics only.
  SymmetricBufferId Allocate(const std::string& name, const Shape& shape,
                             DType dtype = DType::kF32);

  // Local view of rank `rank`'s copy.
  Tensor& Local(SymmetricBufferId buf, int rank);
  const Tensor& Local(SymmetricBufferId buf, int rank) const;

  // Fine-grained put: rank `src_rank` writes `data` into row `dst_row` of
  // `dst_rank`'s copy of `buf`. Local writes (src == dst) are not counted as
  // fabric traffic. CHECK-fails (naming the buffer) on an out-of-range rank
  // or row, or when `buf` is a signal-only allocation.
  void PutRow(SymmetricBufferId buf, int src_rank, int dst_rank,
              int64_t dst_row, std::span<const float> data);

  // Fine-grained get: rank `reader_rank` copies row `row` of `owner_rank`'s
  // copy of `buf` into `dst` (sizes must match); remote reads are accounted
  // as owner->reader traffic. Allocation-free, and concurrent reads of
  // DISTINCT rows are safe (the executors' row partitions guarantee
  // disjointness), so the row-gather hot paths call it from pool workers.
  // Fails like PutRow, naming the buffer.
  void CopyRow(SymmetricBufferId buf, int reader_rank, int owner_rank,
               int64_t row, std::span<float> dst);

  // ---- signaling (NVSHMEM put-with-signal / wait-until) ---------------------
  //
  // Real COMET gates each GEMM tile on the arrival of its tokens via signal
  // words updated by the producer's puts. The emulation keeps one atomic
  // uint64 signal array per rank per allocation; producers bump a signal
  // after delivering a row, consumers wait for the expected count before
  // touching the data. Sequential schedules assert with WaitSignalGe (an
  // unmet wait means the schedule consumed data before its producer ran);
  // concurrent ranks block with WaitUntilSignalGe.

  // Allocates `count` zero-initialized signal words on every rank.
  SymmetricBufferId AllocateSignals(const std::string& name, int64_t count);

  // PutRow + atomically add 1 to `sig[sig_index]` on the destination rank
  // (delivery-ordered, like NVSHMEM's put-with-signal: the payload is
  // release-published before the signal bump).
  void PutRowWithSignal(SymmetricBufferId buf, int src_rank, int dst_rank,
                        int64_t dst_row, std::span<const float> data,
                        SymmetricBufferId sig, int64_t sig_index);

  // Current value of a local signal word (acquire load).
  uint64_t SignalValue(SymmetricBufferId sig, int rank,
                       int64_t sig_index) const;

  // NVSHMEM wait_until(GE), non-blocking assert form: throws CheckError if
  // the signal has not reached `expected`. Used by sequential schedules,
  // where an unmet wait can only mean the schedule consumed data before its
  // producer ran -- a real bug.
  void WaitSignalGe(SymmetricBufferId sig, int rank, int64_t sig_index,
                    uint64_t expected) const;

  // NVSHMEM wait_until(GE), blocking form: spins (with yields) until the
  // signal reaches `expected`. Used by concurrent rank groups, where the
  // producer is a live peer task. Throws CheckError naming the buffer if
  // `timeout_ms` elapses first, so a dead producer surfaces as a test
  // failure instead of a hang. The executors thread
  // CometOptions::signal_wait_timeout_ms through here; the serving plane
  // lowers it so a wedged rank fails a load test fast.
  void WaitUntilSignalGe(SymmetricBufferId sig, int rank, int64_t sig_index,
                         uint64_t expected, int64_t timeout_ms = 60000) const;

  // ---- in-place reuse (the serving plane's persistent heap) -----------------
  //
  // A continuous batcher runs thousands of iterations against the same few
  // buffer shapes; constructing a fresh heap per iteration is pure warm-up
  // cost. The executor instead keeps one heap alive and, before each batch,
  // restores exactly the observable state a freshly constructed heap would
  // have: SetIntegrity re-arms the integrity knobs and drops every checksum
  // and per-row put count (so the deterministic corruption injector replays
  // the stream a fresh heap would produce), ResizeRows re-formats a data
  // buffer to the batch's row count (contents unspecified, like a fresh
  // zero-filled buffer whose rows are always fully written before any read),
  // ResetSignals zeroes every signal word, and ResetTraffic clears the
  // matrix. All four are allocation-free once capacities reach the run's
  // high-water mark (allocate buffers at their bounds up front). NOT
  // thread-safe -- call between iterations, never while ranks run.

  // Re-formats rank-2 data allocation `buf` to `rows` rows on every rank,
  // keeping columns and dtype. Checksums and put counts of the buffer reset.
  void ResizeRows(SymmetricBufferId buf, int64_t rows);
  // Zeroes every signal word of signal allocation `sig` on every rank.
  void ResetSignals(SymmetricBufferId sig);
  // Swaps the integrity options in place and resets all per-row integrity
  // state (checksums, valid flags, put counts) across every allocation.
  // First enable of checksum_rows materializes the per-row arrays (allocates
  // once); after that the reset reuses them.
  void SetIntegrity(const HeapIntegrityOptions& integrity);

  // Bytes moved src -> dst over the fabric since the last reset. Local
  // accesses are excluded.
  double Traffic(int src_rank, int dst_rank) const;
  double TotalTraffic() const;
  void ResetTraffic();

  // Total bytes currently allocated per rank (logical dtype accounting).
  double AllocatedBytesPerRank() const;

  size_t num_buffers() const { return buffers_.size(); }

 private:
  struct Allocation {
    std::string name;
    std::vector<Tensor> per_rank;
    // Non-empty for signal allocations: world_size arrays of `count` words.
    std::vector<std::vector<std::atomic<uint64_t>>> signals;
    // Per-rank row checksums (only when HeapIntegrityOptions::checksum_rows;
    // empty otherwise -- zero overhead when integrity is off). Distinct rows
    // touch distinct elements, so the executors' row-disjointness contract
    // covers these exactly like the data rows; producer->consumer visibility
    // rides the same release/acquire signal protocol as the payload.
    struct RowIntegrity {
      std::vector<uint64_t> sum;
      std::vector<uint8_t> valid;
      std::vector<uint32_t> puts;  // per-row put count: corruption stream key
    };
    std::vector<RowIntegrity> integrity;
  };

  Allocation& Get(SymmetricBufferId buf);
  const Allocation& Get(SymmetricBufferId buf) const;
  // Bounds-checked access to rank `rank`'s copy of a data allocation; every
  // failure message names the buffer and the offending index. Takes the
  // resolved Allocation so each row op pays one buffer-table lookup.
  Tensor& DataLocal(const Allocation& alloc, int rank, const char* op) const;
  const std::atomic<uint64_t>& SignalWord(SymmetricBufferId sig, int rank,
                                          int64_t sig_index,
                                          const char* op) const;
  void CheckRank(const Allocation& alloc, int rank, const char* op,
                 const char* role) const;
  void AccountTraffic(int src, int dst, double bytes);
  // Integrity hooks (all no-ops when checksum_rows is off). Record hashes
  // the stored row and marks it valid; Verify re-hashes and CHECK-fails on
  // mismatch; MaybeCorrupt applies the deterministic injector.
  void RecordRow(const Allocation& alloc, int rank, int64_t row) const;
  void VerifyRow(const Allocation& alloc, int rank, int64_t row,
                 const char* op) const;
  void MaybeCorrupt(SymmetricBufferId buf, const Allocation& alloc, int rank,
                    int64_t row) const;
  void InvalidateRank(const Allocation& alloc, int rank) const;

  int world_size_;
  HeapIntegrityOptions integrity_;
  mutable std::atomic<uint64_t> rows_corrupted_{0};
  mutable std::atomic<uint64_t> rows_verified_{0};
  std::vector<Allocation> buffers_;
  // world x world, row-major. Byte counts are integers, so relaxed atomic
  // adds make the totals independent of the arrival order a concurrent run
  // produces -- no mutex on the hot path.
  std::vector<std::atomic<uint64_t>> traffic_;
};

}  // namespace comet
