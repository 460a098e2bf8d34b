// Unit tests for the communication substrate: symmetric heap, functional
// collectives, collective cost models and the Table 3 memory planner.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "comm/collectives.h"
#include "comm/memory_planner.h"
#include "comm/symmetric_heap.h"
#include "util/check.h"
#include "util/rng.h"

namespace comet {
namespace {

// ---- symmetric heap ---------------------------------------------------------

TEST(SymmetricHeap, AllocatePerRankCopies) {
  SymmetricHeap heap(4);
  const auto buf = heap.Allocate("x", Shape{2, 3});
  EXPECT_EQ(heap.num_buffers(), 1u);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(heap.Local(buf, r).shape(), Shape({2, 3}));
  }
}

TEST(SymmetricHeap, PutRowMovesDataAndCountsTraffic) {
  SymmetricHeap heap(2);
  const auto buf = heap.Allocate("x", Shape{2, 4});
  const std::vector<float> row = {1, 2, 3, 4};
  heap.PutRow(buf, /*src=*/0, /*dst=*/1, /*dst_row=*/1, row);
  EXPECT_EQ(heap.Local(buf, 1).at({1, 2}), 3.0f);
  EXPECT_EQ(heap.Local(buf, 0).at({1, 2}), 0.0f);  // rank 0 copy untouched
  EXPECT_DOUBLE_EQ(heap.Traffic(0, 1), 16.0);      // 4 floats x 4 bytes
  EXPECT_DOUBLE_EQ(heap.Traffic(1, 0), 0.0);
}

TEST(SymmetricHeap, LocalAccessIsFree) {
  SymmetricHeap heap(2);
  const auto buf = heap.Allocate("x", Shape{1, 4});
  const std::vector<float> row = {1, 2, 3, 4};
  heap.PutRow(buf, 0, 0, 0, row);
  std::vector<float> got(4);
  heap.CopyRow(buf, 0, 0, 0, got);
  EXPECT_EQ(got[3], 4.0f);
  EXPECT_DOUBLE_EQ(heap.TotalTraffic(), 0.0);
}

TEST(SymmetricHeap, CopyRowCountsOwnerToReader) {
  SymmetricHeap heap(3);
  const auto buf = heap.Allocate("x", Shape{1, 8});
  std::vector<float> dst(8);
  heap.CopyRow(buf, /*reader=*/2, /*owner=*/0, 0, dst);
  EXPECT_DOUBLE_EQ(heap.Traffic(0, 2), 32.0);
}

TEST(SymmetricHeap, ResetTraffic) {
  SymmetricHeap heap(2);
  const auto buf = heap.Allocate("x", Shape{1, 4});
  std::vector<float> dst(4);
  heap.CopyRow(buf, 1, 0, 0, dst);
  EXPECT_GT(heap.TotalTraffic(), 0.0);
  heap.ResetTraffic();
  EXPECT_DOUBLE_EQ(heap.TotalTraffic(), 0.0);
}

TEST(SymmetricHeap, AllocatedBytesPerRank) {
  SymmetricHeap heap(2);
  heap.Allocate("a", Shape{4, 4});                 // 64 bytes f32
  heap.Allocate("b", Shape{2, 2}, DType::kBF16);   // 8 bytes logical
  EXPECT_DOUBLE_EQ(heap.AllocatedBytesPerRank(), 64.0 + 8.0);
}

// ---- the 2-byte wire --------------------------------------------------------

TEST(SymmetricHeapDtype, PutRowNarrowsToTheBufferDtype) {
  SymmetricHeap heap(2);
  const auto buf = heap.Allocate("x", Shape{1, 3}, DType::kBF16);
  // 1.0f + 2^-9 is NOT bf16-representable (bf16 ulp at 1.0 is 2^-7): the
  // wire must round it; representable values pass through untouched.
  const float not_representable = 1.0f + 0.001953125f;
  const std::vector<float> row = {not_representable, 1.5f, -0.25f};
  heap.PutRow(buf, 0, 1, 0, row);
  EXPECT_EQ(heap.Local(buf, 1).at({0, 0}),
            QuantizeScalar(not_representable, DType::kBF16));
  EXPECT_NE(heap.Local(buf, 1).at({0, 0}), not_representable);
  EXPECT_EQ(heap.Local(buf, 1).at({0, 1}), 1.5f);
  EXPECT_EQ(heap.Local(buf, 1).at({0, 2}), -0.25f);
  // Traffic is accounted at the real wire width: 3 elements x 2 bytes.
  EXPECT_DOUBLE_EQ(heap.Traffic(0, 1), 6.0);
}

TEST(SymmetricHeapDtype, ReadsGoThroughTheWireToo) {
  SymmetricHeap heap(2);
  const auto buf = heap.Allocate("x", Shape{1, 2}, DType::kF16);
  // Local() is raw master access (bulk init); a raw write of an
  // unrepresentable value cannot escape through row reads unrounded.
  heap.Local(buf, 0).at({0, 0}) = 1.0f + 0.0001f;
  std::vector<float> got(2, 0.0f);
  heap.CopyRow(buf, 1, 0, 0, got);
  EXPECT_EQ(got[0], QuantizeScalar(1.0f + 0.0001f, DType::kF16));
  // A second read leaves the master untouched and rounds the same way.
  std::vector<float> again(2, 0.0f);
  heap.CopyRow(buf, 1, 0, 0, again);
  EXPECT_EQ(again[0], got[0]);
  EXPECT_DOUBLE_EQ(heap.Traffic(0, 1), 2.0 * 2.0 * 2.0);  // two 2x2B reads
}

TEST(SymmetricHeapDtype, SignalledPutsNarrowLikePlainPuts) {
  SymmetricHeap heap(2);
  const auto buf = heap.Allocate("x", Shape{1, 2}, DType::kBF16);
  const auto sig = heap.AllocateSignals("x-ready", 1);
  const std::vector<float> row = {1.0f + 0.001953125f, 2.0f};
  heap.PutRowWithSignal(buf, 0, 1, 0, row, sig, 0);
  EXPECT_EQ(heap.SignalValue(sig, 1, 0), 1u);
  EXPECT_EQ(heap.Local(buf, 1).at({0, 0}),
            QuantizeScalar(row[0], DType::kBF16));
  EXPECT_DOUBLE_EQ(heap.Traffic(0, 1), 4.0);  // payload only, 2 x 2 bytes
}

// ---- bounds handling --------------------------------------------------------
//
// Out-of-range rows/ranks must CHECK-fail with a message naming the buffer
// (historically some paths indexed the per-rank vector directly, which on a
// signal-only allocation was undefined behavior). CheckError is this
// codebase's death: every failure must be catchable and diagnosable.

// Expects `fn` to throw CheckError whose message contains `fragment`.
template <typename Fn>
void ExpectCheckFailureNaming(Fn&& fn, const std::string& fragment) {
  try {
    fn();
    FAIL() << "expected CheckError mentioning '" << fragment << "'";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(SymmetricHeapBounds, PutRowRejectsOutOfRangeRowNamingBuffer) {
  SymmetricHeap heap(2);
  const auto buf = heap.Allocate("tokens-in", Shape{4, 2});
  const std::vector<float> row = {1, 2};
  ExpectCheckFailureNaming([&] { heap.PutRow(buf, 0, 1, 4, row); },
                           "tokens-in");
  ExpectCheckFailureNaming([&] { heap.PutRow(buf, 0, 1, -1, row); },
                           "tokens-in");
}

TEST(SymmetricHeapBounds, PutRowRejectsOutOfRangeRanks) {
  SymmetricHeap heap(2);
  const auto buf = heap.Allocate("tokens-in", Shape{4, 2});
  const std::vector<float> row = {1, 2};
  ExpectCheckFailureNaming([&] { heap.PutRow(buf, 0, 2, 0, row); },
                           "tokens-in");
  ExpectCheckFailureNaming([&] { heap.PutRow(buf, -1, 1, 0, row); },
                           "source rank -1");
}

TEST(SymmetricHeapBounds, CopyRowRejectsOutOfRange) {
  SymmetricHeap heap(2);
  const auto buf = heap.Allocate("contrib", Shape{3, 2});
  std::vector<float> dst(2);
  ExpectCheckFailureNaming([&] { heap.CopyRow(buf, 0, 1, 3, dst); },
                           "contrib");
  ExpectCheckFailureNaming(
      [&] { heap.CopyRow(buf, 0, 1, -2, dst); }, "contrib");
  ExpectCheckFailureNaming(
      [&] { heap.CopyRow(buf, 0, 2, 0, dst); }, "contrib");
  ExpectCheckFailureNaming([&] { heap.CopyRow(buf, 9, 1, 0, dst); },
                           "reader rank 9");
}

TEST(SymmetricHeapBounds, DataOpsOnSignalAllocationFailLoudly) {
  // A signal allocation has no data rows; historically PutRow/Local on one
  // indexed an empty vector. Now it names the buffer and the operation.
  SymmetricHeap heap(2);
  const auto sig = heap.AllocateSignals("ready-flags", 4);
  const std::vector<float> row = {1, 2};
  ExpectCheckFailureNaming([&] { heap.PutRow(sig, 0, 1, 0, row); },
                           "ready-flags");
  ExpectCheckFailureNaming([&] { heap.Local(sig, 0); }, "ready-flags");
  std::vector<float> dst(2);
  ExpectCheckFailureNaming([&] { heap.CopyRow(sig, 0, 1, 0, dst); },
                           "signal-only");
}

TEST(SymmetricHeapBounds, SignalIndexOutOfRangeNamesBuffer) {
  SymmetricHeap heap(2);
  const auto buf = heap.Allocate("data", Shape{1, 2});
  const auto sig = heap.AllocateSignals("arrival", 2);
  const std::vector<float> row = {1, 2};
  ExpectCheckFailureNaming(
      [&] { heap.PutRowWithSignal(buf, 0, 1, 0, row, sig, 2); }, "arrival");
  ExpectCheckFailureNaming([&] { heap.SignalValue(sig, 1, -1); }, "arrival");
  ExpectCheckFailureNaming([&] { heap.WaitUntilSignalGe(sig, 2, 0, 1); },
                           "arrival");
}

TEST(SymmetricHeapBounds, InRangeAccessStillWorksAfterChecks) {
  SymmetricHeap heap(2);
  const auto buf = heap.Allocate("x", Shape{2, 2});
  const std::vector<float> row = {5, 6};
  heap.PutRow(buf, 0, 1, 1, row);
  std::vector<float> got(2);
  heap.CopyRow(buf, 0, 1, 1, got);
  EXPECT_EQ(got[1], 6.0f);
}

// ---- cost models ---------------------------------------------------------------

TEST(CollectiveCost, EmptyAllToAllIsFree) {
  const ClusterSpec cluster = H800Cluster(4);
  const std::vector<std::vector<double>> bytes(4, std::vector<double>(4, 0.0));
  EXPECT_DOUBLE_EQ(AllToAllCostUs(cluster, bytes), 0.0);
}

TEST(CollectiveCost, AsymmetricMatrixHonoursHotPort) {
  const ClusterSpec cluster = H800Cluster(4);
  // All traffic into port 0: makespan bound by port 0's ingress.
  std::vector<std::vector<double>> bytes(4, std::vector<double>(4, 0.0));
  bytes[1][0] = bytes[2][0] = bytes[3][0] = 1.0e7;
  const double hot = AllToAllCostUs(cluster, bytes);
  std::vector<std::vector<double>> spread(4, std::vector<double>(4, 0.0));
  spread[1][0] = spread[2][3] = spread[3][2] = 1.0e7;
  const double balanced = AllToAllCostUs(cluster, spread);
  EXPECT_GT(hot, 2.0 * balanced);
}

TEST(CollectiveCost, RingCollectives) {
  const ClusterSpec cluster = H800Cluster(8);
  EXPECT_DOUBLE_EQ(RingAllGatherCostUs(cluster, 0.0), 0.0);
  EXPECT_GT(RingAllGatherCostUs(cluster, 1.0e6), 0.0);
  EXPECT_GT(RingReduceScatterCostUs(cluster, 8.0e6), 0.0);
  // One-rank "cluster": no communication.
  EXPECT_DOUBLE_EQ(RingReduceScatterCostUs(H800Cluster(1), 1.0e6), 0.0);
}

// ---- memory planner (Table 3) ---------------------------------------------------

TEST(MemoryPlanner, MatchesTable3Exactly) {
  // Paper Table 3, BF16: 2 * M * N bytes.
  EXPECT_DOUBLE_EQ(PlanCommBuffer(4096, 4096).MiBs(), 32.0);   // Mixtral
  EXPECT_DOUBLE_EQ(PlanCommBuffer(8192, 4096).MiBs(), 64.0);
  EXPECT_DOUBLE_EQ(PlanCommBuffer(4096, 2048).MiBs(), 16.0);   // Qwen2
  EXPECT_DOUBLE_EQ(PlanCommBuffer(8192, 2048).MiBs(), 32.0);
  EXPECT_DOUBLE_EQ(PlanCommBuffer(4096, 4096).MiBs(), 32.0);   // Phi-3.5
}

TEST(MemoryPlanner, DtypeChangesFootprint) {
  EXPECT_DOUBLE_EQ(PlanCommBuffer(4096, 4096, DType::kF32).MiBs(), 64.0);
}

TEST(MemoryPlanner, RejectsNonPositive) {
  EXPECT_THROW(PlanCommBuffer(0, 4096), CheckError);
  EXPECT_THROW(PlanCommBuffer(4096, -1), CheckError);
}

// ---- signaling -------------------------------------------------------------

TEST(SymmetricHeapSignals, PutWithSignalBumpsDestinationWord) {
  SymmetricHeap heap(2);
  const auto buf = heap.Allocate("data", Shape{4, 8});
  const auto sig = heap.AllocateSignals("ready", 4);
  const std::vector<float> row(8, 1.5f);
  EXPECT_EQ(heap.SignalValue(sig, 1, 2), 0u);
  heap.PutRowWithSignal(buf, 0, 1, 2, row, sig, 2);
  EXPECT_EQ(heap.SignalValue(sig, 1, 2), 1u);
  EXPECT_EQ(heap.SignalValue(sig, 0, 2), 0u);  // source rank untouched
  heap.PutRowWithSignal(buf, 0, 1, 2, row, sig, 2);
  EXPECT_EQ(heap.SignalValue(sig, 1, 2), 2u);
}

TEST(SymmetricHeapSignals, WaitThrowsWhenUnsignalled) {
  SymmetricHeap heap(2);
  const auto buf = heap.Allocate("data", Shape{4, 8});
  const auto sig = heap.AllocateSignals("ready", 4);
  EXPECT_THROW(heap.WaitSignalGe(sig, 1, 0, 1), CheckError);
  heap.PutRowWithSignal(buf, 0, 1, 0, std::vector<float>(8, 0.0f), sig, 0);
  heap.WaitSignalGe(sig, 1, 0, 1);  // satisfied now
  EXPECT_THROW(heap.WaitSignalGe(sig, 1, 0, 2), CheckError);
}

TEST(SymmetricHeapSignals, SignalTrafficNotCounted) {
  SymmetricHeap heap(2);
  const auto buf = heap.Allocate("data", Shape{1, 16});
  const auto sig = heap.AllocateSignals("ready", 1);
  heap.PutRowWithSignal(buf, 0, 1, 0, std::vector<float>(16, 1.0f), sig, 0);
  EXPECT_DOUBLE_EQ(heap.Traffic(0, 1), 16.0 * 4.0);  // payload only (f32)
}

TEST(SymmetricHeapSignals, DataBufferIsNotASignalBuffer) {
  SymmetricHeap heap(2);
  const auto buf = heap.Allocate("data", Shape{1, 4});
  EXPECT_THROW(heap.SignalValue(buf, 0, 0), CheckError);
  EXPECT_THROW(heap.AllocateSignals("bad", 0), CheckError);
}

TEST(RowChecksum, EverySingleBitFlipChangesTheHash) {
  // Lengths 1 and 3 end on a 4-byte tail word; 2, 64 and 257 cover whole
  // 8-byte words with and without a tail. A zero row and a random row per
  // length: flipping any one bit of any element must change the checksum.
  Rng rng(41);
  for (size_t len : {size_t{1}, size_t{2}, size_t{3}, size_t{64},
                     size_t{257}}) {
    std::vector<float> random_row(len);
    for (float& v : random_row) {
      v = static_cast<float>(rng.Normal(0.0, 1.0));
    }
    for (const std::vector<float>& base :
         {std::vector<float>(len, 0.0f), random_row}) {
      const uint64_t want = RowChecksum(base);
      EXPECT_EQ(RowChecksum(base), want) << "len " << len;
      int64_t undetected = 0;
      std::vector<float> row = base;
      for (size_t i = 0; i < len; ++i) {
        for (int bit = 0; bit < 32; ++bit) {
          const uint32_t flipped =
              std::bit_cast<uint32_t>(base[i]) ^ (uint32_t{1} << bit);
          row[i] = std::bit_cast<float>(flipped);
          undetected += RowChecksum(row) == want ? 1 : 0;
        }
        row[i] = base[i];
      }
      EXPECT_EQ(undetected, 0) << "len " << len;
    }
  }
}

}  // namespace
}  // namespace comet
