#include "sim/bandwidth_queue.h"

#include <algorithm>

#include "util/check.h"

namespace comet {

BandwidthQueue::BandwidthQueue(double bandwidth_bytes_per_us, double latency_us)
    : bandwidth_bytes_per_us_(bandwidth_bytes_per_us), latency_us_(latency_us) {
  COMET_CHECK_GT(bandwidth_bytes_per_us_, 0.0);
  COMET_CHECK_GE(latency_us_, 0.0);
}

void BandwidthQueue::ScheduleInto(const std::vector<TransferJob>& jobs,
                                  double start_time_us,
                                  std::vector<TransferResult>* out) const {
  out->resize(jobs.size());
  double channel_free = start_time_us;
  for (size_t i = 0; i < jobs.size(); ++i) {
    COMET_CHECK_GE(jobs[i].bytes, 0.0);
    const double start = std::max(channel_free, jobs[i].ready_us);
    // The channel is occupied while the job's bytes drain; the wire latency
    // is a pipeline delay on delivery that overlaps with the NEXT job's
    // injection (GPU-initiated puts are fire-and-forget, so back-to-back
    // messages do not serialize their flight times).
    const double drained = start + jobs[i].bytes / bandwidth_bytes_per_us_;
    (*out)[i] = TransferResult{start, drained + latency_us_};
    channel_free = drained;
  }
}

double BandwidthQueue::Makespan(const std::vector<TransferJob>& jobs,
                                double start_time_us) const {
  std::vector<TransferResult> results;
  ScheduleInto(jobs, start_time_us, &results);
  double t = start_time_us;
  for (const auto& r : results) {
    t = std::max(t, r.end_us);
  }
  return t;
}

}  // namespace comet
