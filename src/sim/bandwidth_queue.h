// Serialized bandwidth channel with pipelined delivery latency.
//
// Models the communication side of a fused kernel: nc communication thread
// blocks collectively sustain `bandwidth_bytes_per_us`; transfer jobs are
// serviced in submission order (COMET fixes the order by rescheduling, so a
// FIFO pipe is the faithful model). The channel is busy while a job's bytes
// drain; the per-message wire latency delays DELIVERY but overlaps with the
// next job's injection -- GPU-initiated puts are fire-and-forget, so a burst
// of messages pays the latency once at the tail, not once per message. A job
// cannot start before its `ready_us` (for computation->communication
// pipelines where the payload must be produced first).
#pragma once

#include <vector>

namespace comet {

struct TransferJob {
  double ready_us = 0.0;
  double bytes = 0.0;
};

struct TransferResult {
  double start_us = 0.0;  // channel begins moving this job
  double end_us = 0.0;    // last byte delivered
};

class BandwidthQueue {
 public:
  BandwidthQueue(double bandwidth_bytes_per_us, double latency_us);

  // Schedules jobs in order into per-job completion intervals. Rebuilds
  // `out` in place (allocation-free once its capacity covers the largest
  // job count).
  void ScheduleInto(const std::vector<TransferJob>& jobs, double start_time_us,
                    std::vector<TransferResult>* out) const;

  // Completion time of the last job (start_time_us when no jobs).
  double Makespan(const std::vector<TransferJob>& jobs,
                  double start_time_us = 0.0) const;

  double bandwidth() const { return bandwidth_bytes_per_us_; }
  double latency() const { return latency_us_; }

 private:
  double bandwidth_bytes_per_us_;
  double latency_us_;
};

}  // namespace comet
