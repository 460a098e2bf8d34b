#include "sim/stream_sim.h"

#include <algorithm>

#include "util/check.h"

namespace comet {

StreamSim::StreamSim(double launch_overhead_us, double start_us)
    : launch_overhead_us_(launch_overhead_us), host_time_us_(start_us) {
  COMET_CHECK_GE(launch_overhead_us_, 0.0);
}

int StreamSim::AddStream(const std::string& name) {
  stream_free_us_.push_back(host_time_us_);
  stream_names_.push_back(name);
  return static_cast<int>(stream_free_us_.size()) - 1;
}

KernelId StreamSim::Launch(int stream, const char* label, OpCategory category,
                           double duration_us,
                           const std::vector<KernelId>& deps) {
  COMET_CHECK_GE(stream, 0);
  COMET_CHECK_LT(static_cast<size_t>(stream), stream_free_us_.size());
  COMET_CHECK_GE(duration_us, 0.0);

  // Host pays the launch overhead before the kernel may start.
  const double issue_begin = host_time_us_;
  host_time_us_ += launch_overhead_us_;
  if (launch_overhead_us_ > 0.0) {
    timeline_.Add(InternLabel(std::string("launch:") + label),
                  OpCategory::kHost, -1, issue_begin, host_time_us_);
  }

  double start = std::max(host_time_us_, stream_free_us_[static_cast<size_t>(stream)]);
  for (KernelId dep : deps) {
    COMET_CHECK_GE(dep, 0);
    COMET_CHECK_LT(static_cast<size_t>(dep), kernel_end_.size())
        << "dependency on a not-yet-launched kernel";
    start = std::max(start, kernel_end_[static_cast<size_t>(dep)]);
  }
  const double end = start + duration_us;
  stream_free_us_[static_cast<size_t>(stream)] = end;

  kernel_start_.push_back(start);
  kernel_end_.push_back(end);
  timeline_.Add(label, category, stream, start, end);
  return static_cast<KernelId>(kernel_end_.size()) - 1;
}

void StreamSim::HostWork(const char* label, double duration_us) {
  COMET_CHECK_GE(duration_us, 0.0);
  const double begin = host_time_us_;
  host_time_us_ += duration_us;
  timeline_.Add(label, OpCategory::kHost, -1, begin, host_time_us_);
}

double StreamSim::KernelStart(KernelId id) const {
  COMET_CHECK_GE(id, 0);
  COMET_CHECK_LT(static_cast<size_t>(id), kernel_start_.size());
  return kernel_start_[static_cast<size_t>(id)];
}

double StreamSim::Finish() const {
  double t = host_time_us_;
  for (double end : kernel_end_) {
    t = std::max(t, end);
  }
  return t;
}

}  // namespace comet
