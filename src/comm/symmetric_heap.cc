#include "comm/symmetric_heap.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/check.h"

namespace comet {

namespace {

// splitmix64 finalizer: the corruption injector's pure decision hash.
uint64_t HashMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t RowChecksum(std::span<const float> row) {
  // G = multiply by an odd constant, then an xorshift: both bijective.
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto step = [&h](uint64_t w) {
    h = (h ^ w) * kMul;
    h ^= h >> 32;
  };
  const size_t n = row.size();
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint64_t w;
    std::memcpy(&w, row.data() + i, sizeof(w));
    step(w);
  }
  if (i < n) {
    uint32_t w;
    std::memcpy(&w, row.data() + i, sizeof(w));
    step(w);
  }
  return h;
}

SymmetricHeap::SymmetricHeap(int world_size, HeapIntegrityOptions integrity)
    : world_size_(world_size),
      integrity_(integrity),
      traffic_(static_cast<size_t>(world_size) * static_cast<size_t>(world_size)) {
  COMET_CHECK_GT(world_size_, 0);
  COMET_CHECK_GE(integrity_.corrupt_rate, 0.0);
  COMET_CHECK_LE(integrity_.corrupt_rate, 1.0);
}

SymmetricBufferId SymmetricHeap::Allocate(const std::string& name,
                                          const Shape& shape, DType dtype) {
  Allocation alloc;
  alloc.name = name;
  alloc.per_rank.reserve(static_cast<size_t>(world_size_));
  for (int r = 0; r < world_size_; ++r) {
    alloc.per_rank.emplace_back(shape, dtype);
  }
  if (integrity_.checksum_rows) {
    const size_t rows = static_cast<size_t>(alloc.per_rank[0].rows());
    alloc.integrity.resize(static_cast<size_t>(world_size_));
    for (auto& ri : alloc.integrity) {
      ri.sum.assign(rows, 0);
      ri.valid.assign(rows, 0);
      ri.puts.assign(rows, 0);
    }
  }
  buffers_.push_back(std::move(alloc));
  return static_cast<SymmetricBufferId>(buffers_.size()) - 1;
}

void SymmetricHeap::RecordRow(const Allocation& alloc, int rank,
                              int64_t row) const {
  // Both gates: SetIntegrity may disable checksumming while the (persistent)
  // arrays remain materialized -- behavior must match a heap built with
  // checksumming off.
  if (!integrity_.checksum_rows || alloc.integrity.empty()) {
    return;
  }
  auto& ri = const_cast<Allocation&>(alloc).integrity[static_cast<size_t>(rank)];
  const Tensor& t = alloc.per_rank[static_cast<size_t>(rank)];
  ri.sum[static_cast<size_t>(row)] = RowChecksum(t.row(row));
  ri.valid[static_cast<size_t>(row)] = 1;
}

void SymmetricHeap::VerifyRow(const Allocation& alloc, int rank, int64_t row,
                              const char* op) const {
  if (!integrity_.checksum_rows || alloc.integrity.empty()) {
    return;
  }
  const auto& ri = alloc.integrity[static_cast<size_t>(rank)];
  if (ri.valid[static_cast<size_t>(row)] == 0) {
    return;  // never put: bulk-initialized data carries no checksum
  }
  const Tensor& t = alloc.per_rank[static_cast<size_t>(rank)];
  const uint64_t have = RowChecksum(t.row(row));
  rows_verified_.fetch_add(1, std::memory_order_relaxed);
  COMET_CHECK_EQ(have, ri.sum[static_cast<size_t>(row)])
      << "transport integrity: checksum mismatch in " << op << " on \""
      << alloc.name << "\" row " << row << "@rank" << rank
      << " -- payload corrupted in flight";
}

void SymmetricHeap::MaybeCorrupt(SymmetricBufferId buf,
                                 const Allocation& alloc, int rank,
                                 int64_t row) const {
  if (integrity_.corrupt_rate <= 0.0 || !integrity_.checksum_rows ||
      alloc.integrity.empty()) {
    return;
  }
  auto& ri = const_cast<Allocation&>(alloc).integrity[static_cast<size_t>(rank)];
  // Keyed on the per-row put count, not on any global order: concurrent
  // ranks putting disjoint rows reach identical decisions at any thread
  // count, so a corrupted run is bit-reproducible.
  const uint32_t nth_put = ++ri.puts[static_cast<size_t>(row)];
  const uint64_t key =
      HashMix(integrity_.corrupt_seed ^
              HashMix(static_cast<uint64_t>(buf) * 0x9e3779b97f4a7c15ULL ^
                      (static_cast<uint64_t>(rank) << 40) ^
                      (static_cast<uint64_t>(row) << 8) ^ nth_put));
  const double draw =
      static_cast<double>(key >> 11) * (1.0 / 9007199254740992.0);  // [0, 1)
  if (draw >= integrity_.corrupt_rate) {
    return;
  }
  Tensor& t =
      const_cast<Tensor&>(alloc.per_rank[static_cast<size_t>(rank)]);
  auto stored = t.row(row);
  const uint64_t where = HashMix(key);
  const size_t elem = static_cast<size_t>(where % stored.size());
  const uint32_t bit = static_cast<uint32_t>((where >> 32) % 32);
  uint32_t bits = 0;
  std::memcpy(&bits, &stored[elem], sizeof(bits));
  bits ^= uint32_t{1} << bit;
  std::memcpy(&stored[elem], &bits, sizeof(bits));
  rows_corrupted_.fetch_add(1, std::memory_order_relaxed);
}

void SymmetricHeap::InvalidateRank(const Allocation& alloc, int rank) const {
  if (!integrity_.checksum_rows || alloc.integrity.empty()) {
    return;
  }
  auto& ri = const_cast<Allocation&>(alloc).integrity[static_cast<size_t>(rank)];
  std::fill(ri.valid.begin(), ri.valid.end(), uint8_t{0});
}

SymmetricHeap::Allocation& SymmetricHeap::Get(SymmetricBufferId buf) {
  COMET_CHECK_GE(buf, 0);
  COMET_CHECK_LT(static_cast<size_t>(buf), buffers_.size());
  return buffers_[static_cast<size_t>(buf)];
}

const SymmetricHeap::Allocation& SymmetricHeap::Get(SymmetricBufferId buf) const {
  COMET_CHECK_GE(buf, 0);
  COMET_CHECK_LT(static_cast<size_t>(buf), buffers_.size());
  return buffers_[static_cast<size_t>(buf)];
}

void SymmetricHeap::CheckRank(const Allocation& alloc, int rank,
                              const char* op, const char* role) const {
  COMET_CHECK(rank >= 0 && rank < world_size_)
      << op << " on \"" << alloc.name << "\": " << role << " rank " << rank
      << " out of range [0, " << world_size_ << ")";
}

Tensor& SymmetricHeap::DataLocal(const Allocation& alloc, int rank,
                                 const char* op) const {
  COMET_CHECK(!alloc.per_rank.empty())
      << op << " on \"" << alloc.name
      << "\": signal-only allocation has no data rows";
  CheckRank(alloc, rank, op, "target");
  // The heap is logically mutable through any buffer id; Allocation lookups
  // are shared between const and non-const entry points.
  return const_cast<Tensor&>(alloc.per_rank[static_cast<size_t>(rank)]);
}

namespace {

void CheckRowInRange(const std::string& name, const Tensor& t, int64_t row,
                     const char* op) {
  COMET_CHECK(row >= 0 && row < t.rows())
      << op << " on \"" << name << "\": row " << row << " out of range [0, "
      << t.rows() << ")";
}

// Moves a row through the allocation's wire format. For the 2-byte dtypes
// the payload is genuinely narrowed: each element passes through its 16-bit
// encoding (QuantizeSpan IS encode-then-decode, see tensor/dtype.h), so no
// information beyond BF16/F16 precision can survive transport -- exactly
// what a put through a 2MN-byte NVSHMEM buffer guarantees. f32 rows copy
// verbatim. Stateless, so concurrent ranks share nothing.
void CopyThroughWire(std::span<const float> src, std::span<float> dst,
                     DType dtype) {
  COMET_CHECK_EQ(src.size(), dst.size());
  std::copy(src.begin(), src.end(), dst.begin());
  QuantizeSpan(dst, dtype);
}

}  // namespace

Tensor& SymmetricHeap::Local(SymmetricBufferId buf, int rank) {
  const Allocation& alloc = Get(buf);
  // Mutable access invalidates the rank's checksums: the caller is about to
  // bulk-rewrite rows outside the put path (setup-phase initialization).
  InvalidateRank(alloc, rank);
  return DataLocal(alloc, rank, "Local");
}

const Tensor& SymmetricHeap::Local(SymmetricBufferId buf, int rank) const {
  return DataLocal(Get(buf), rank, "Local");
}

void SymmetricHeap::AccountTraffic(int src, int dst, double bytes) {
  if (src == dst) {
    return;
  }
  // Byte counts are whole numbers (rows x dtype size); summing them in any
  // order gives the same totals, so relaxed adds suffice.
  traffic_[static_cast<size_t>(src) * static_cast<size_t>(world_size_) +
           static_cast<size_t>(dst)]
      .fetch_add(static_cast<uint64_t>(bytes), std::memory_order_relaxed);
}

void SymmetricHeap::PutRow(SymmetricBufferId buf, int src_rank, int dst_rank,
                           int64_t dst_row, std::span<const float> data) {
  const Allocation& alloc = Get(buf);
  CheckRank(alloc, src_rank, "PutRow", "source");
  Tensor& dst = DataLocal(alloc, dst_rank, "PutRow");
  CheckRowInRange(alloc.name, dst, dst_row, "PutRow");
  CopyThroughWire(data, dst.row(dst_row), dst.dtype());
  // Checksum the stored bits FIRST, then maybe corrupt: an injected flip is
  // guaranteed to disagree with the recorded sum, so the first consumer of
  // the row detects it.
  RecordRow(alloc, dst_rank, dst_row);
  MaybeCorrupt(buf, alloc, dst_rank, dst_row);
  AccountTraffic(src_rank, dst_rank,
                 static_cast<double>(data.size()) *
                     static_cast<double>(DTypeSize(dst.dtype())));
}

void SymmetricHeap::CopyRow(SymmetricBufferId buf, int reader_rank,
                            int owner_rank, int64_t row, std::span<float> dst) {
  const Allocation& alloc = Get(buf);
  CheckRank(alloc, reader_rank, "CopyRow", "reader");
  const Tensor& src = DataLocal(alloc, owner_rank, "CopyRow");
  CheckRowInRange(alloc.name, src, row, "CopyRow");
  VerifyRow(alloc, owner_rank, row, "CopyRow");
  auto view = src.row(row);
  COMET_CHECK_EQ(view.size(), dst.size());
  AccountTraffic(owner_rank, reader_rank,
                 static_cast<double>(view.size()) *
                     static_cast<double>(DTypeSize(src.dtype())));
  CopyThroughWire(view, dst, src.dtype());
}

SymmetricBufferId SymmetricHeap::AllocateSignals(const std::string& name,
                                                 int64_t count) {
  COMET_CHECK_GT(count, 0);
  Allocation alloc;
  alloc.name = name;
  alloc.signals.reserve(static_cast<size_t>(world_size_));
  for (int r = 0; r < world_size_; ++r) {
    // Value-initialized atomics: every word starts at 0.
    alloc.signals.emplace_back(static_cast<size_t>(count));
  }
  buffers_.push_back(std::move(alloc));
  return static_cast<SymmetricBufferId>(buffers_.size()) - 1;
}

const std::atomic<uint64_t>& SymmetricHeap::SignalWord(SymmetricBufferId sig,
                                                       int rank,
                                                       int64_t sig_index,
                                                       const char* op) const {
  const Allocation& alloc = Get(sig);
  COMET_CHECK(!alloc.signals.empty())
      << op << " on \"" << alloc.name << "\": not a signal allocation";
  CheckRank(alloc, rank, op, "signal");
  const auto& words = alloc.signals[static_cast<size_t>(rank)];
  COMET_CHECK(sig_index >= 0 &&
              static_cast<size_t>(sig_index) < words.size())
      << op << " on \"" << alloc.name << "\": signal index " << sig_index
      << " out of range [0, " << words.size() << ")";
  return words[static_cast<size_t>(sig_index)];
}

void SymmetricHeap::PutRowWithSignal(SymmetricBufferId buf, int src_rank,
                                     int dst_rank, int64_t dst_row,
                                     std::span<const float> data,
                                     SymmetricBufferId sig,
                                     int64_t sig_index) {
  PutRow(buf, src_rank, dst_rank, dst_row, data);
  const std::atomic<uint64_t>& word =
      SignalWord(sig, dst_rank, sig_index, "PutRowWithSignal");
  // The signal word itself is a few bytes riding the same put; it is not
  // accounted so payload traffic stays exactly equal to the planned bytes
  // (the invariant the traffic tests pin down). The release order publishes
  // the row copied above to any consumer that acquire-loads the word.
  const_cast<std::atomic<uint64_t>&>(word).fetch_add(
      1, std::memory_order_release);
}

uint64_t SymmetricHeap::SignalValue(SymmetricBufferId sig, int rank,
                                    int64_t sig_index) const {
  return SignalWord(sig, rank, sig_index, "SignalValue")
      .load(std::memory_order_acquire);
}

void SymmetricHeap::WaitSignalGe(SymmetricBufferId sig, int rank,
                                 int64_t sig_index, uint64_t expected) const {
  const uint64_t value = SignalValue(sig, rank, sig_index);
  COMET_CHECK_GE(value, expected)
      << "wait_until on " << Get(sig).name << "[" << sig_index << "]@rank"
      << rank << ": schedule consumed data before its producer signalled";
}

void SymmetricHeap::WaitUntilSignalGe(SymmetricBufferId sig, int rank,
                                      int64_t sig_index, uint64_t expected,
                                      int64_t timeout_ms) const {
  const std::atomic<uint64_t>& word =
      SignalWord(sig, rank, sig_index, "WaitUntilSignalGe");
  if (word.load(std::memory_order_acquire) >= expected) {
    return;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  int spins = 0;
  while (word.load(std::memory_order_acquire) < expected) {
    // Short inline spin, then yield; check the clock only occasionally to
    // keep the wait loop syscall-light.
    if (++spins >= 64) {
      std::this_thread::yield();
    }
    if (spins % 256 == 0 && std::chrono::steady_clock::now() >= deadline) {
      COMET_CHECK(false)
          << "WaitUntilSignalGe on \"" << Get(sig).name << "\"[" << sig_index
          << "]@rank" << rank << ": producer never reached " << expected
          << " within " << timeout_ms << " ms (last value "
          << word.load(std::memory_order_acquire) << ")";
    }
  }
}

void SymmetricHeap::ResizeRows(SymmetricBufferId buf, int64_t rows) {
  Allocation& alloc = Get(buf);
  COMET_CHECK(!alloc.per_rank.empty())
      << "ResizeRows on \"" << alloc.name
      << "\": signal-only allocation has no data rows";
  COMET_CHECK_EQ(alloc.per_rank[0].shape().rank(), 2u)
      << "ResizeRows on \"" << alloc.name << "\": rank-2 buffers only";
  COMET_CHECK_GE(rows, 0);
  const int64_t cols = alloc.per_rank[0].cols();
  for (auto& t : alloc.per_rank) {
    t.ResetFormat2D(rows, cols, t.dtype());
  }
  for (auto& ri : alloc.integrity) {
    ri.sum.assign(static_cast<size_t>(rows), 0);
    ri.valid.assign(static_cast<size_t>(rows), 0);
    ri.puts.assign(static_cast<size_t>(rows), 0);
  }
}

void SymmetricHeap::ResetSignals(SymmetricBufferId sig) {
  Allocation& alloc = Get(sig);
  COMET_CHECK(!alloc.signals.empty())
      << "ResetSignals on \"" << alloc.name << "\": not a signal allocation";
  for (auto& words : alloc.signals) {
    for (auto& w : words) {
      w.store(0, std::memory_order_relaxed);
    }
  }
}

void SymmetricHeap::SetIntegrity(const HeapIntegrityOptions& integrity) {
  COMET_CHECK_GE(integrity.corrupt_rate, 0.0);
  COMET_CHECK_LE(integrity.corrupt_rate, 1.0);
  integrity_ = integrity;
  for (auto& alloc : buffers_) {
    if (alloc.per_rank.empty()) {
      continue;  // signal allocations carry no row integrity
    }
    const size_t rows = static_cast<size_t>(alloc.per_rank[0].rows());
    if (integrity_.checksum_rows && alloc.integrity.empty()) {
      alloc.integrity.resize(static_cast<size_t>(world_size_));
    }
    for (auto& ri : alloc.integrity) {
      ri.sum.assign(rows, 0);
      ri.valid.assign(rows, 0);
      ri.puts.assign(rows, 0);
    }
  }
}

double SymmetricHeap::Traffic(int src_rank, int dst_rank) const {
  COMET_CHECK_GE(src_rank, 0);
  COMET_CHECK_LT(src_rank, world_size_);
  COMET_CHECK_GE(dst_rank, 0);
  COMET_CHECK_LT(dst_rank, world_size_);
  return static_cast<double>(
      traffic_[static_cast<size_t>(src_rank) * static_cast<size_t>(world_size_) +
               static_cast<size_t>(dst_rank)]
          .load(std::memory_order_relaxed));
}

double SymmetricHeap::TotalTraffic() const {
  double total = 0.0;
  for (const auto& t : traffic_) {
    total += static_cast<double>(t.load(std::memory_order_relaxed));
  }
  return total;
}

void SymmetricHeap::ResetTraffic() {
  for (auto& t : traffic_) {
    t.store(0, std::memory_order_relaxed);
  }
}

double SymmetricHeap::AllocatedBytesPerRank() const {
  double total = 0.0;
  for (const auto& alloc : buffers_) {
    if (!alloc.per_rank.empty()) {
      total += alloc.per_rank[0].LogicalBytes();
    }
  }
  return total;
}

}  // namespace comet
