// Unit tests for the simulator substrate: timeline, slot pools, bandwidth
// queue, fluid network and the host/stream executor.
#include <gtest/gtest.h>

#include "tests/fluid_network_reference.h"
#include "tests/fused_schedule_reference.h"
#include "sim/bandwidth_queue.h"
#include "sim/network.h"
#include "sim/slot_pool.h"
#include "sim/stream_sim.h"
#include "sim/timeline.h"
#include "sim/trace_export.h"
#include "util/check.h"
#include "util/rng.h"

#include <bit>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace comet {
namespace {

// ---- timeline ---------------------------------------------------------------

TEST(Timeline, SpanAndBusy) {
  Timeline tl;
  tl.Add("a", OpCategory::kLayer0Comp, 0, 0.0, 10.0);
  tl.Add("b", OpCategory::kLayer0Comm, 1, 5.0, 15.0);
  EXPECT_DOUBLE_EQ(tl.Span(), 15.0);
  EXPECT_DOUBLE_EQ(tl.CategoryBusy(OpCategory::kLayer0Comp), 10.0);
  EXPECT_DOUBLE_EQ(tl.CategoryBusy(OpCategory::kLayer0Comm), 10.0);
}

TEST(Timeline, UnionMergesOverlaps) {
  Timeline tl;
  tl.Add("a", OpCategory::kLayer0Comp, 0, 0.0, 10.0);
  tl.Add("b", OpCategory::kLayer0Comp, 1, 5.0, 12.0);
  tl.Add("c", OpCategory::kLayer0Comp, 2, 20.0, 22.0);
  EXPECT_DOUBLE_EQ(tl.UnionTime(OpCategory::kLayer0Comp), 14.0);
}

TEST(Timeline, CommCompOverlapAndHiddenFraction) {
  Timeline tl;
  tl.Add("comm", OpCategory::kLayer0Comm, 1, 0.0, 10.0);
  tl.Add("comp", OpCategory::kLayer0Comp, 0, 4.0, 12.0);
  EXPECT_DOUBLE_EQ(tl.CommCompOverlap(), 6.0);
  EXPECT_DOUBLE_EQ(tl.HiddenCommFraction(), 0.6);
}

TEST(Timeline, NoCommMeansZeroHidden) {
  Timeline tl;
  tl.Add("comp", OpCategory::kLayer0Comp, 0, 0.0, 5.0);
  EXPECT_DOUBLE_EQ(tl.HiddenCommFraction(), 0.0);
}

TEST(Timeline, MergeWithOffset) {
  Timeline a;
  a.Add("x", OpCategory::kGating, 0, 0.0, 1.0);
  Timeline b;
  b.Add("y", OpCategory::kGating, 0, 0.0, 2.0);
  a.Merge(b, 10.0);
  EXPECT_DOUBLE_EQ(a.SpanEnd(), 12.0);
  EXPECT_EQ(a.intervals().size(), 2u);
}

TEST(Timeline, RejectsNegativeDuration) {
  Timeline tl;
  EXPECT_THROW(tl.Add("bad", OpCategory::kOther, 0, 5.0, 4.0), CheckError);
}

// ---- slot pool ---------------------------------------------------------------

TEST(SlotPool, SingleSlotSerializes) {
  const std::vector<SlotTask> tasks = {{0.0, 2.0}, {0.0, 3.0}, {0.0, 1.0}};
  const SlotSchedule s = ScheduleInOrder(tasks, 1);
  EXPECT_DOUBLE_EQ(s.tasks[0].start_us, 0.0);
  EXPECT_DOUBLE_EQ(s.tasks[1].start_us, 2.0);
  EXPECT_DOUBLE_EQ(s.tasks[2].start_us, 5.0);
  EXPECT_DOUBLE_EQ(s.makespan_us, 6.0);
}

TEST(SlotPool, ParallelSlotsOverlap) {
  const std::vector<SlotTask> tasks(4, SlotTask{0.0, 2.0});
  const SlotSchedule s = ScheduleInOrder(tasks, 2);
  EXPECT_DOUBLE_EQ(s.makespan_us, 4.0);
}

TEST(SlotPool, InOrderIssueStallsOnNotReadyTask) {
  // Task 0 is not ready until t=10; with in-order issue it blocks the single
  // slot even though task 1 is ready immediately.
  const std::vector<SlotTask> tasks = {{10.0, 1.0}, {0.0, 1.0}};
  const SlotSchedule s = ScheduleInOrder(tasks, 1);
  EXPECT_DOUBLE_EQ(s.tasks[0].start_us, 10.0);
  EXPECT_DOUBLE_EQ(s.tasks[1].start_us, 11.0);
  EXPECT_GT(s.stall_us, 0.0);
}

TEST(SlotPool, EmptyTaskList) {
  const SlotSchedule s = ScheduleInOrder({}, 4, 7.0);
  EXPECT_DOUBLE_EQ(s.makespan_us, 7.0);
  EXPECT_TRUE(s.tasks.empty());
}

TEST(SlotPool, RespectsStartTime) {
  const std::vector<SlotTask> tasks = {{0.0, 1.0}};
  const SlotSchedule s = ScheduleInOrder(tasks, 1, 5.0);
  EXPECT_DOUBLE_EQ(s.tasks[0].start_us, 5.0);
}

TEST(SlotPool, RejectsZeroSlots) {
  EXPECT_THROW(ScheduleInOrder({{0.0, 1.0}}, 0), CheckError);
}

// The sorted pool against the binary-heap scheduler it replaced
// (fused_schedule_reference.h): every start, end, stall and makespan bit,
// over random task lists with non-monotone ready times and durations, ties,
// zero durations, a nonzero start time and 1-132 slots. Lists run past the
// pool's sliding window, so its compaction is covered too.
TEST(SlotPool, MatchesHeapReferenceBitForBit) {
  Rng rng(2025);
  std::vector<double> heap;
  SlotSchedule want;
  int64_t stalled = 0;
  for (int c = 0; c < 4000; ++c) {
    const int slots = static_cast<int>(rng.UniformInt(1, 132));
    const double start = rng.UniformInt(0, 2) == 0 ? 0.0 : rng.NextDouble() * 50.0;
    const int64_t n = rng.UniformInt(0, c % 10 == 0 ? 3000 : 300);
    // Kind 0: continuous times; 1: a small grid (ties everywhere);
    // 2: nondecreasing ready times and one duration (the rescheduled
    // fused-kernel shape, O(1) inserts).
    const int64_t kind = rng.UniformInt(0, 2);
    const double one_duration = static_cast<double>(rng.UniformInt(0, 4)) * 0.5;
    std::vector<SlotTask> tasks(static_cast<size_t>(n));
    double ready = 0.0;
    for (SlotTask& task : tasks) {
      if (kind == 0) {
        task.ready_us = rng.NextDouble() * 100.0;
        task.duration_us =
            rng.UniformInt(0, 9) == 0 ? 0.0 : rng.NextDouble() * 10.0;
      } else if (kind == 1) {
        task.ready_us = static_cast<double>(rng.UniformInt(0, 8)) * 0.5;
        task.duration_us = static_cast<double>(rng.UniformInt(0, 3)) * 0.25;
      } else {
        ready += rng.UniformInt(0, 3) == 0 ? rng.NextDouble() : 0.0;
        task.ready_us = ready;
        task.duration_us = one_duration;
      }
    }
    fused_schedule_reference::ScheduleInOrderInto(tasks, slots, start, heap,
                                                  &want);
    const SlotSchedule got = ScheduleInOrder(tasks, slots, start);
    ASSERT_EQ(got.tasks.size(), want.tasks.size());
    for (size_t i = 0; i < got.tasks.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got.tasks[i].start_us),
                std::bit_cast<uint64_t>(want.tasks[i].start_us))
          << "case " << c << " task " << i;
      ASSERT_EQ(std::bit_cast<uint64_t>(got.tasks[i].end_us),
                std::bit_cast<uint64_t>(want.tasks[i].end_us))
          << "case " << c << " task " << i;
    }
    ASSERT_EQ(std::bit_cast<uint64_t>(got.makespan_us),
              std::bit_cast<uint64_t>(want.makespan_us))
        << "case " << c;
    ASSERT_EQ(std::bit_cast<uint64_t>(got.stall_us),
              std::bit_cast<uint64_t>(want.stall_us))
        << "case " << c;
    stalled += want.stall_us > 0.0 ? 1 : 0;
  }
  EXPECT_GT(stalled, 1000);
}

// One pool reused across Resets of different sizes schedules like a fresh
// one each time.
TEST(SlotPool, ReusedPoolMatchesFreshSchedules) {
  Rng rng(11);
  SlotPool pool;
  for (int c = 0; c < 50; ++c) {
    const int slots = static_cast<int>(rng.UniformInt(1, 132));
    std::vector<SlotTask> tasks(static_cast<size_t>(rng.UniformInt(0, 2500)));
    for (SlotTask& task : tasks) {
      task = SlotTask{rng.NextDouble() * 20.0, rng.NextDouble()};
    }
    const SlotSchedule fresh = ScheduleInOrder(tasks, slots, 1.0);
    pool.Reset(slots, 1.0);
    for (size_t i = 0; i < tasks.size(); ++i) {
      const ScheduledTask got =
          pool.Issue(tasks[i].ready_us, tasks[i].duration_us);
      ASSERT_EQ(std::bit_cast<uint64_t>(got.end_us),
                std::bit_cast<uint64_t>(fresh.tasks[i].end_us));
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(pool.makespan_us()),
              std::bit_cast<uint64_t>(fresh.makespan_us));
    EXPECT_EQ(std::bit_cast<uint64_t>(pool.stall_us()),
              std::bit_cast<uint64_t>(fresh.stall_us));
  }
}

// ---- bandwidth queue ---------------------------------------------------------

TEST(BandwidthQueue, SerializesBytesButPipelinesLatency) {
  BandwidthQueue q(/*bw=*/100.0, /*latency=*/1.0);
  std::vector<TransferResult> r;
  q.ScheduleInto({{0.0, 1000.0}, {0.0, 500.0}}, 0.0, &r);
  EXPECT_DOUBLE_EQ(r[0].end_us, 11.0);   // 1000/100 drained, +1 in flight
  EXPECT_DOUBLE_EQ(r[1].start_us, 10.0);  // injects as soon as bytes drain
  EXPECT_DOUBLE_EQ(r[1].end_us, 16.0);
}

TEST(BandwidthQueue, LatencyPaidOncePerBurstTail) {
  // 32 small messages: total time = bytes/bw + ONE latency, not 32.
  BandwidthQueue q(100.0, 1.0);
  std::vector<TransferJob> jobs(32, TransferJob{0.0, 100.0});
  EXPECT_DOUBLE_EQ(q.Makespan(jobs), 32.0 * 1.0 + 1.0);
}

TEST(BandwidthQueue, WaitsForReadyTime) {
  BandwidthQueue q(100.0, 0.0);
  std::vector<TransferResult> r;
  q.ScheduleInto({{50.0, 100.0}}, 0.0, &r);
  EXPECT_DOUBLE_EQ(r[0].start_us, 50.0);
  EXPECT_DOUBLE_EQ(r[0].end_us, 51.0);
}

TEST(BandwidthQueue, MakespanOfEmpty) {
  BandwidthQueue q(100.0, 1.0);
  EXPECT_DOUBLE_EQ(q.Makespan({}, 3.0), 3.0);
}

// ---- fluid network -------------------------------------------------------------

TEST(FluidNetwork, SingleFlowAtFullRate) {
  FluidNetwork net(2, 100.0, 100.0, 0.5);
  const auto r = net.Run({{0, 1, 1000.0, 0.0}});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_NEAR(r[0].end_us, 10.5, 1e-9);
}

TEST(FluidNetwork, EgressSharedBetweenFlows) {
  // Two flows from port 0: each gets half the egress.
  FluidNetwork net(3, 100.0, 100.0, 0.0);
  const auto r = net.Run({{0, 1, 1000.0, 0.0}, {0, 2, 1000.0, 0.0}});
  EXPECT_NEAR(r[0].end_us, 20.0, 1e-6);
  EXPECT_NEAR(r[1].end_us, 20.0, 1e-6);
}

TEST(FluidNetwork, IngressBottleneck) {
  // Two sources into one destination: ingress caps the sum.
  FluidNetwork net(3, 100.0, 100.0, 0.0);
  const auto r = net.Run({{0, 2, 1000.0, 0.0}, {1, 2, 1000.0, 0.0}});
  EXPECT_NEAR(r[0].end_us, 20.0, 1e-6);
}

TEST(FluidNetwork, ShortFlowFreesBandwidth) {
  // After the short flow finishes, the long one speeds up.
  FluidNetwork net(3, 100.0, 100.0, 0.0);
  const auto r = net.Run({{0, 1, 500.0, 0.0}, {0, 2, 1500.0, 0.0}});
  EXPECT_NEAR(r[0].end_us, 10.0, 1e-6);   // 500 at 50/us
  EXPECT_NEAR(r[1].end_us, 20.0, 1e-6);   // 500 at 50 + 1000 at 100
}

TEST(FluidNetwork, UniformAllToAllSymmetric) {
  const int world = 4;
  FluidNetwork net(world, 100.0, 100.0, 0.0);
  std::vector<Flow> flows;
  for (int i = 0; i < world; ++i) {
    for (int j = 0; j < world; ++j) {
      if (i != j) {
        flows.push_back(Flow{i, j, 300.0, 0.0});
      }
    }
  }
  const auto r = net.Run(flows);
  // Each port sends 3 x 300 bytes at 100 B/us egress -> 9 us for everyone.
  for (const auto& c : r) {
    EXPECT_NEAR(c.end_us, 9.0, 1e-6);
  }
}

TEST(FluidNetwork, LateFlowStartsAtReadyTime) {
  FluidNetwork net(2, 100.0, 100.0, 0.0);
  const auto r = net.Run({{0, 1, 100.0, 42.0}});
  EXPECT_NEAR(r[0].end_us, 43.0, 1e-9);
}

TEST(FluidNetwork, RejectsSelfFlow) {
  FluidNetwork net(2, 100.0, 100.0, 0.0);
  EXPECT_THROW(net.Run({{1, 1, 10.0, 0.0}}), CheckError);
}

// Per-port water-filling against the original re-counting one
// (fluid_network_reference.h), bit for bit: random port counts, flow sets
// with repeated pairs, zero-byte flows, equal sizes (simultaneous
// completions), staggered and tied ready times, unequal egress and ingress.
TEST(FluidNetwork, MatchesReferenceWaterFillingBitForBit) {
  Rng rng(0xf1d0);
  constexpr int kCases = 3000;
  for (int c = 0; c < kCases; ++c) {
    const int ports = static_cast<int>(rng.UniformInt(2, 16));
    const int n = static_cast<int>(rng.UniformInt(1, 80));
    const double egress = rng.Uniform(20.0, 400.0);
    const double ingress = rng.UniformInt(0, 3) == 0 ? egress
                                                     : rng.Uniform(20.0, 400.0);
    const double latency =
        rng.UniformInt(0, 1) == 0 ? 0.0 : rng.Uniform(0.0, 5.0);
    const bool staggered = rng.UniformInt(0, 1) == 1;
    std::vector<Flow> flows(static_cast<size_t>(n));
    for (Flow& f : flows) {
      f.src = static_cast<int>(rng.UniformInt(0, ports - 1));
      f.dst = static_cast<int>(rng.UniformInt(0, ports - 2));
      f.dst += f.dst >= f.src ? 1 : 0;
      switch (rng.UniformInt(0, 3)) {
        case 0:
          f.bytes = 0.0;
          break;
        case 1:
          f.bytes = 1024.0 * static_cast<double>(rng.UniformInt(1, 4));
          break;
        default:
          f.bytes = rng.Uniform(1.0, 1.0e5);
          break;
      }
      if (staggered) {
        f.ready_us = rng.UniformInt(0, 2) == 0
                         ? 10.0 * static_cast<double>(rng.UniformInt(0, 5))
                         : rng.Uniform(0.0, 200.0);
      }
    }
    SCOPED_TRACE("case " + std::to_string(c));
    const FluidNetwork net(ports, egress, ingress, latency);
    const auto got = net.Run(flows);
    const auto want =
        fluid_reference::Run(ports, egress, ingress, latency, flows);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got[i].start_us),
                std::bit_cast<uint64_t>(want[i].start_us))
          << "flow " << i;
      ASSERT_EQ(std::bit_cast<uint64_t>(got[i].end_us),
                std::bit_cast<uint64_t>(want[i].end_us))
          << "flow " << i;
    }
  }
}

// ---- stream sim -----------------------------------------------------------------

TEST(StreamSim, HostSerializesLaunches) {
  StreamSim sim(/*launch=*/2.0);
  const int s = sim.AddStream("s");
  const KernelId a = sim.Launch(s, "a", OpCategory::kOther, 10.0);
  const KernelId b = sim.Launch(s, "b", OpCategory::kOther, 10.0);
  EXPECT_DOUBLE_EQ(sim.KernelStart(a), 2.0);
  // b starts when a finishes (same stream), not when the host issues it.
  EXPECT_DOUBLE_EQ(sim.KernelStart(b), 12.0);
  EXPECT_DOUBLE_EQ(sim.Finish(), 22.0);
}

TEST(StreamSim, StreamsOverlap) {
  StreamSim sim(0.0);
  const int s0 = sim.AddStream("comp");
  const int s1 = sim.AddStream("comm");
  const KernelId a = sim.Launch(s0, "a", OpCategory::kOther, 10.0);
  const KernelId b = sim.Launch(s1, "b", OpCategory::kOther, 10.0);
  EXPECT_DOUBLE_EQ(sim.KernelStart(a), 0.0);
  EXPECT_DOUBLE_EQ(sim.KernelStart(b), 0.0);
  EXPECT_DOUBLE_EQ(sim.Finish(), 10.0);
}

TEST(StreamSim, DependenciesCrossStreams) {
  StreamSim sim(0.0);
  const int s0 = sim.AddStream("comp");
  const int s1 = sim.AddStream("comm");
  const KernelId a = sim.Launch(s0, "a", OpCategory::kOther, 10.0);
  const KernelId b = sim.Launch(s1, "b", OpCategory::kOther, 5.0, {a});
  EXPECT_DOUBLE_EQ(sim.KernelStart(b), 10.0);
  EXPECT_DOUBLE_EQ(sim.Finish(), 15.0);
}

TEST(StreamSim, HostWorkDelaysLaterLaunches) {
  StreamSim sim(1.0);
  const int s = sim.AddStream("s");
  sim.HostWork("api", 7.0);
  const KernelId a = sim.Launch(s, "a", OpCategory::kOther, 1.0);
  EXPECT_DOUBLE_EQ(sim.KernelStart(a), 8.0);
}

TEST(StreamSim, LaunchOverheadRecordedAsHost) {
  StreamSim sim(2.0);
  const int s = sim.AddStream("s");
  sim.Launch(s, "a", OpCategory::kOther, 1.0);
  EXPECT_DOUBLE_EQ(sim.timeline().CategoryBusy(OpCategory::kHost), 2.0);
}

TEST(StreamSim, InvalidDependencyRejected) {
  StreamSim sim(0.0);
  const int s = sim.AddStream("s");
  EXPECT_THROW(sim.Launch(s, "a", OpCategory::kOther, 1.0, {5}), CheckError);
}

// ---- chrome trace export -----------------------------------------------------

TEST(TraceExport, EmitsCompleteEventsWithMetadata) {
  Timeline tl;
  tl.Add("gemm-tile", OpCategory::kLayer0Comp, 0, 1.5, 4.0);
  tl.Add("token-recv", OpCategory::kLayer0Comm, 1, 0.0, 2.5);
  const std::string json = ToChromeTraceJson(tl, "moe-layer");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"gemm-tile\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"token-recv\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.5"), std::string::npos);
  EXPECT_NE(json.find("moe-layer"), std::string::npos);
}

TEST(TraceExport, EmptyTimelineIsValidEnvelope) {
  const std::string json = ToChromeTraceJson(Timeline{});
  EXPECT_EQ(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Balanced braces/brackets (cheap structural sanity without a parser).
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += c == '{' ? 1 : (c == '}' ? -1 : 0);
    brackets += c == '[' ? 1 : (c == ']' ? -1 : 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(TraceExport, EscapesLabelCharacters) {
  Timeline tl;
  tl.Add("bad\"label\\with\nnoise", OpCategory::kOther, 0, 0.0, 1.0);
  const std::string json = ToChromeTraceJson(tl);
  EXPECT_NE(json.find("bad\\\"label\\\\with\\nnoise"), std::string::npos);
}

TEST(TraceExport, WritesFileRoundTrip) {
  Timeline tl;
  tl.Add("op", OpCategory::kLayer1Comm, 2, 0.0, 3.0);
  const std::string path = "trace_export_test.json";
  WriteChromeTrace(tl, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, ToChromeTraceJson(tl));
  std::remove(path.c_str());
}

TEST(TraceExport, RejectsUnwritablePath) {
  EXPECT_THROW(WriteChromeTrace(Timeline{}, "/nonexistent-dir/x.json"),
               CheckError);
}

}  // namespace
}  // namespace comet
