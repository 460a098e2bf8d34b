// Tests for the concurrent multi-rank functional data plane.
//
// Three layers of assurance:
//  * RankGroup semantics -- serial/concurrent mode selection, phase order,
//    exception propagation and recovery, reshaping, real concurrency.
//  * SymmetricHeap under genuine concurrency -- put-with-signal pipelines
//    between live rank threads, blocking wait-until, exact traffic totals
//    under contention, wait timeouts. (These are the suites the TSan CI job
//    runs; any missing acquire/release pairing trips there.)
//  * Determinism -- the full COMET functional forward AND backward are
//    bit-identical to the sharded reference for EP in {1,2,4,8} x threads
//    in {1,8}. Forward tiles are NN GEMMs; backward runs the NT (dgrad) and
//    TN (wgrad) paths, so all three transpose variants are pinned. Plus the
//    acceptance anchor: the EP=4 concurrent run equals the EP=1 reference.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <tuple>
#include <vector>

#include "comm/symmetric_heap.h"
#include "core/comet_backward.h"
#include "core/comet_executor.h"
#include "moe/backward.h"
#include "moe/reference_layer.h"
#include "moe/workload.h"
#include "runtime/rank_group.h"
#include "tests/gradient_helpers.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace comet {
namespace {

// ---- RankGroup semantics ----------------------------------------------------

TEST(RankGroup, SerialModeOrdersAllProduceBeforeAllConsume) {
  RankGroup group;
  group.Configure(4, 1);
  EXPECT_FALSE(group.concurrent());
  std::vector<int> order;
  group.Run([&](int r) { order.push_back(r); },
            [&](int r) { order.push_back(100 + r); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 100, 101, 102, 103}));
}

TEST(RankGroup, ConcurrentModeRunsEveryRankExactlyOnce) {
  RankGroup group;
  group.Configure(6, 6);
  EXPECT_TRUE(group.concurrent());
  std::vector<std::atomic<int>> produced(6), consumed(6);
  group.Run([&](int r) { produced[static_cast<size_t>(r)]++; },
            [&](int r) { consumed[static_cast<size_t>(r)]++; });
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(produced[static_cast<size_t>(r)].load(), 1);
    EXPECT_EQ(consumed[static_cast<size_t>(r)].load(), 1);
  }
}

TEST(RankGroup, ConcurrentModeOverlapsRanks) {
  // Every rank's produce blocks until ALL ranks entered produce: only a
  // genuinely concurrent launch can finish. Bounded spin so a regression to
  // serial execution fails instead of hanging.
  constexpr int kRanks = 4;
  RankGroup group;
  group.Configure(kRanks, kRanks);
  ASSERT_TRUE(group.concurrent());
  std::atomic<int> entered{0};
  std::atomic<bool> all_overlapped{true};
  group.Run([&](int) {
    entered++;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (entered.load() < kRanks) {
      std::this_thread::yield();
      if (std::chrono::steady_clock::now() > deadline) {
        all_overlapped = false;
        return;
      }
    }
  });
  EXPECT_TRUE(all_overlapped.load());
}

TEST(RankGroup, ProduceExceptionPropagatesAndSkipsItsConsume) {
  RankGroup group;
  group.Configure(3, 3);
  std::vector<std::atomic<int>> consumed(3);
  EXPECT_THROW(
      group.Run(
          [&](int r) {
            if (r == 1) {
              throw std::runtime_error("rank 1 produce failed");
            }
          },
          [&](int r) { consumed[static_cast<size_t>(r)]++; }),
      std::runtime_error);
  EXPECT_EQ(consumed[0].load(), 1);
  EXPECT_EQ(consumed[1].load(), 0);  // failed rank never consumes
  EXPECT_EQ(consumed[2].load(), 1);
}

// A Run that threw leaves no stale error or completion count behind: the
// next Run on the same parked threads executes every rank once and returns
// cleanly.
TEST(RankGroup, RunsEveryRankAgainAfterARunThatThrew) {
  constexpr int kRanks = 4;
  RankGroup group;
  group.Configure(kRanks, kRanks);
  ASSERT_TRUE(group.concurrent());
  const auto fail_peers = [](int r) {
    if (r != 0) {
      throw std::runtime_error("peer produce failed");
    }
  };
  EXPECT_THROW(group.Run(fail_peers), std::runtime_error);
  std::vector<std::atomic<int>> produced(kRanks), consumed(kRanks);
  EXPECT_NO_THROW(
      group.Run([&](int r) { produced[static_cast<size_t>(r)]++; },
                [&](int r) { consumed[static_cast<size_t>(r)]++; }));
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(produced[static_cast<size_t>(r)].load(), 1) << "rank " << r;
    EXPECT_EQ(consumed[static_cast<size_t>(r)].load(), 1) << "rank " << r;
  }
}

// Reshaping a group that already ran restarts its rank threads; the new
// threads must wait for the next Run instead of replaying the last one.
TEST(RankGroup, ReshapedGroupDoesNotReplayThePreviousRun) {
  constexpr int kRanks = 4;
  std::vector<std::atomic<int>> ran_a(kRanks), ran_b(kRanks);
  const auto run_a = [&](int r) { ran_a[static_cast<size_t>(r)]++; };
  const auto run_b = [&](int r) { ran_b[static_cast<size_t>(r)]++; };
  RankGroup group;
  group.Configure(kRanks, kRanks);
  group.Run(run_a);
  group.Configure(kRanks, 1);  // serial: stops the rank threads
  group.Configure(kRanks, kRanks);
  ASSERT_TRUE(group.concurrent());
  // Give a replaying thread time to act before the next Run.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  group.Run(run_b);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(ran_a[static_cast<size_t>(r)].load(), 1) << "rank " << r;
    EXPECT_EQ(ran_b[static_cast<size_t>(r)].load(), 1) << "rank " << r;
  }
}

TEST(RankGroup, InheritsSerialityFromScopedThreadLimit) {
  ScopedThreadLimit serial(1);
  RankGroup group;
  group.Configure(4, 0);
  EXPECT_FALSE(group.concurrent());
}

TEST(RankGroup, ExplicitThreadCountOverridesScopedLimit) {
  ScopedThreadLimit serial(1);
  RankGroup group;
  group.Configure(4, 4);
  EXPECT_TRUE(group.concurrent());
}

TEST(RankGroup, SingleRankNeverGoesConcurrent) {
  RankGroup group;
  group.Configure(1, 8);
  EXPECT_FALSE(group.concurrent());
}

// ---- SymmetricHeap under real concurrency -----------------------------------

TEST(RankGroupHeap, SignalPipelineDeliversEveryRowAcrossThreads) {
  // Ring pipeline: rank r streams rows into rank (r+1) % R's window with
  // put-with-signal; each consumer blocks on the arrival counter of every
  // row before reading it. Payload checks catch both lost signals and
  // signals published before their data.
  constexpr int kRanks = 4;
  constexpr int64_t kRows = 96;
  constexpr int64_t kCols = 8;
  SymmetricHeap heap(kRanks);
  const auto buf = heap.Allocate("ring-rows", Shape{kRows, kCols});
  const auto sig = heap.AllocateSignals("ring-ready", kRows);

  RankGroup group;
  group.Configure(kRanks, kRanks);
  ASSERT_TRUE(group.concurrent());
  std::atomic<int64_t> bad_rows{0};
  group.Run(
      [&](int r) {
        std::vector<float> row(kCols);
        for (int64_t i = 0; i < kRows; ++i) {
          for (int64_t c = 0; c < kCols; ++c) {
            row[static_cast<size_t>(c)] =
                static_cast<float>(r * 1000 + i * 10 + c);
          }
          heap.PutRowWithSignal(buf, r, (r + 1) % kRanks, i, row, sig, i);
        }
      },
      [&](int r) {
        const int producer = (r + kRanks - 1) % kRanks;
        std::vector<float> row(kCols);
        for (int64_t i = 0; i < kRows; ++i) {
          heap.WaitUntilSignalGe(sig, r, i, 1, /*timeout_ms=*/30000);
          heap.CopyRow(buf, r, r, i, row);
          for (int64_t c = 0; c < kCols; ++c) {
            if (row[static_cast<size_t>(c)] !=
                static_cast<float>(producer * 1000 + i * 10 + c)) {
              bad_rows++;
            }
          }
        }
      });
  EXPECT_EQ(bad_rows.load(), 0);
}

TEST(RankGroupHeap, ConcurrentTrafficAccountingIsExact) {
  // Every rank puts kRows rows to every OTHER rank concurrently; the atomic
  // byte counters must come out exact (no lost updates, no mutex needed).
  constexpr int kRanks = 6;
  constexpr int64_t kRows = 32;
  constexpr int64_t kCols = 16;
  SymmetricHeap heap(kRanks);
  // One row block per source rank: payload writes stay disjoint (the same
  // contract the executors' (token, slot, lane) partition provides); the
  // atomic byte counters are the contended state under test.
  const auto buf = heap.Allocate("traffic", Shape{kRanks * kRows, kCols});

  RankGroup group;
  group.Configure(kRanks, kRanks);
  group.Run([&](int r) {
    const std::vector<float> row(kCols, static_cast<float>(r));
    for (int dst = 0; dst < kRanks; ++dst) {
      for (int64_t i = 0; i < kRows; ++i) {
        heap.PutRow(buf, r, dst, r * kRows + i, row);
      }
    }
  });
  const double row_bytes = static_cast<double>(kCols) * 4.0;
  for (int src = 0; src < kRanks; ++src) {
    for (int dst = 0; dst < kRanks; ++dst) {
      const double expected =
          src == dst ? 0.0 : static_cast<double>(kRows) * row_bytes;
      EXPECT_DOUBLE_EQ(heap.Traffic(src, dst), expected)
          << src << "->" << dst;
    }
  }
  EXPECT_DOUBLE_EQ(heap.TotalTraffic(),
                   static_cast<double>(kRanks) * (kRanks - 1) * kRows *
                       row_bytes);
}

TEST(RankGroupHeap, WaitUntilTimesOutWithBufferName) {
  SymmetricHeap heap(2);
  (void)heap.Allocate("data", Shape{2, 4});
  const auto sig = heap.AllocateSignals("never-signalled", 2);
  try {
    heap.WaitUntilSignalGe(sig, 1, 0, 1, /*timeout_ms=*/50);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("never-signalled"),
              std::string::npos);
  }
}

TEST(RankGroupHeap, WaitUntilReturnsOnceSignalled) {
  SymmetricHeap heap(2);
  const auto buf = heap.Allocate("data", Shape{2, 4});
  const auto sig = heap.AllocateSignals("ready", 2);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    heap.PutRowWithSignal(buf, 0, 1, 0, std::vector<float>(4, 2.5f), sig, 0);
  });
  heap.WaitUntilSignalGe(sig, 1, 0, 1, /*timeout_ms=*/30000);
  EXPECT_EQ(heap.Local(buf, 1).at({0, 3}), 2.5f);
  producer.join();
}

// ---- determinism: EP x threads bit-identical to the sharded reference ------

ModelConfig RankGroupModel() {
  ModelConfig model;
  model.name = "rank-group";
  model.layers = 1;
  model.num_experts = 8;
  model.topk = 2;
  model.embedding = 24;
  model.ffn_hidden = 48;
  return model;
}

MoeWorkload RankGroupWorkload(int tp, int ep, uint64_t seed = 33) {
  WorkloadOptions options;
  options.seed = seed;
  options.load_std = 0.02;
  return MakeWorkload(RankGroupModel(), ParallelConfig{tp, ep}, 48, options);
}

CometOptions ThreadedOptions(int threads) {
  CometOptions options;
  options.tile_m = 8;
  options.tile_n = 8;
  options.num_threads = threads;
  return options;
}

using EpThreads = std::tuple<int /*ep*/, int /*threads*/>;

class RankGroupDeterminism : public ::testing::TestWithParam<EpThreads> {};

TEST_P(RankGroupDeterminism, ForwardBitExactVsShardedReference) {
  const auto [ep, threads] = GetParam();
  const MoeWorkload w = RankGroupWorkload(1, ep);
  const auto reference = ShardedReferenceMoeLayer(w);
  CometExecutor comet{ThreadedOptions(threads)};
  const auto run = comet.Run(w, H800Cluster(ep), ExecMode::kFunctional);
  ASSERT_EQ(run.outputs.size(), reference.size());
  for (size_t g = 0; g < reference.size(); ++g) {
    EXPECT_EQ(Tensor::MaxAbsDiff(run.outputs[g], reference[g]), 0.0f)
        << "group " << g << " at EP=" << ep << " threads=" << threads;
  }
}

TEST_P(RankGroupDeterminism, BackwardBitExactVsShardedReference) {
  const auto [ep, threads] = GetParam();
  const MoeWorkload w = RankGroupWorkload(1, ep);
  const auto dout = MakeLossGradient(w, 91);
  const MoeGradients expected = ShardedReferenceMoeBackward(w, dout);
  const auto run = CometBackward(w, H800Cluster(ep), dout,
                                 ExecMode::kFunctional,
                                 ThreadedOptions(threads));
  EXPECT_EQ(MaxGradientDiff(run.grads, expected), 0.0f)
      << "EP=" << ep << " threads=" << threads;
}

INSTANTIATE_TEST_SUITE_P(
    EpByThreads, RankGroupDeterminism,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1, 8)),
    [](const ::testing::TestParamInfo<EpThreads>& info) {
      return "EP" + std::to_string(std::get<0>(info.param)) + "x" +
             std::to_string(std::get<1>(info.param)) + "threads";
    });

// TP lanes add the lane-matched dispatch and the lane-inner combine order;
// pin one hybrid shape in both directions too.
TEST(RankGroupDeterminismHybrid, ForwardTp2Ep2Concurrent) {
  const MoeWorkload w = RankGroupWorkload(2, 2);
  const auto reference = ShardedReferenceMoeLayer(w);
  CometExecutor comet{ThreadedOptions(8)};
  const auto run = comet.Run(w, H800Cluster(4), ExecMode::kFunctional);
  ASSERT_EQ(run.outputs.size(), reference.size());
  for (size_t g = 0; g < reference.size(); ++g) {
    EXPECT_EQ(Tensor::MaxAbsDiff(run.outputs[g], reference[g]), 0.0f);
  }
}

TEST(RankGroupDeterminismHybrid, BackwardTp2Ep2Concurrent) {
  const MoeWorkload w = RankGroupWorkload(2, 2);
  const auto dout = MakeLossGradient(w, 93);
  const MoeGradients expected = ShardedReferenceMoeBackward(w, dout);
  const auto run = CometBackward(w, H800Cluster(4), dout,
                                 ExecMode::kFunctional, ThreadedOptions(8));
  EXPECT_EQ(MaxGradientDiff(run.grads, expected), 0.0f);
}

// The acceptance anchor: running the SAME tokens/routing/weights at EP=4
// (concurrently) and at EP=1 must give identical bits -- sharding the
// expert-parallel world is numerically free.
TEST(RankGroupDeterminismHybrid, Ep4ConcurrentBitIdenticalToEp1Reference) {
  const MoeWorkload w4 = RankGroupWorkload(1, 4, /*seed=*/77);
  const MoeWorkload w1 = RankGroupWorkload(1, 1, /*seed=*/77);
  // Same seed => same global routing and token values regardless of EP.
  const auto reference1 = ShardedReferenceMoeLayer(w1);
  ASSERT_EQ(reference1.size(), 1u);

  CometExecutor comet{ThreadedOptions(8)};
  const auto run4 = comet.Run(w4, H800Cluster(4), ExecMode::kFunctional);
  ASSERT_EQ(run4.outputs.size(), 4u);

  const int64_t group_tokens = w4.placement.tokens_per_group();
  for (int g = 0; g < 4; ++g) {
    for (int64_t t = 0; t < group_tokens; ++t) {
      const auto got = run4.outputs[static_cast<size_t>(g)].row(t);
      const auto want = reference1[0].row(g * group_tokens + t);
      for (size_t c = 0; c < want.size(); ++c) {
        ASSERT_EQ(got[c], want[c]) << "group " << g << " token " << t;
      }
    }
  }
}

}  // namespace
}  // namespace comet
