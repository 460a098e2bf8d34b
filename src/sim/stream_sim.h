// Host + CUDA-stream execution model for kernel-per-op systems.
//
// All four baselines (Megatron-Cutlass, Megatron-TE, FasterMoE, Tutel)
// launch separate kernels on one or more streams; the host serializes kernel
// launches (each costing `launch_overhead_us`), a stream serializes its own
// kernels, and cross-stream ordering is expressed with dependencies (CUDA
// events). Kernels are issued in program order, so start times resolve with
// a single forward pass. The executor also records everything into a
// Timeline for breakdown reporting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/timeline.h"

namespace comet {

using KernelId = int64_t;

class StreamSim {
 public:
  // `launch_overhead_us`: host time consumed per kernel launch. `start_us`:
  // initial host clock.
  explicit StreamSim(double launch_overhead_us, double start_us = 0.0);

  // Creates a stream lane; returns its id (also the Timeline lane).
  int AddStream(const std::string& name);

  // Enqueues a kernel on `stream`. The kernel starts when (a) the host has
  // issued it, (b) the stream is free, and (c) all `deps` have completed.
  // `duration_us` >= 0. Returns the kernel id usable as a dependency.
  // Labels are stored by pointer (see Timeline::Add).
  KernelId Launch(int stream, const char* label, OpCategory category,
                  double duration_us, const std::vector<KernelId>& deps = {});

  // Adds pure host time (framework/API overhead) that delays later launches,
  // recorded under OpCategory::kHost.
  void HostWork(const char* label, double duration_us);

  double KernelStart(KernelId id) const;

  // Time at which all enqueued kernels have finished.
  double Finish() const;

  const Timeline& timeline() const { return timeline_; }

 private:
  double launch_overhead_us_;
  double host_time_us_;
  std::vector<double> stream_free_us_;
  std::vector<std::string> stream_names_;
  std::vector<double> kernel_start_;
  std::vector<double> kernel_end_;
  Timeline timeline_;
};

}  // namespace comet
