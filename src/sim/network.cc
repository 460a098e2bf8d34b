#include "sim/network.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace comet {

FluidNetwork::FluidNetwork(int num_ports, double egress_bytes_per_us,
                           double ingress_bytes_per_us, double latency_us)
    : num_ports_(num_ports),
      egress_(egress_bytes_per_us),
      ingress_(ingress_bytes_per_us),
      latency_us_(latency_us) {
  COMET_CHECK_GT(num_ports_, 0);
  COMET_CHECK_GT(egress_, 0.0);
  COMET_CHECK_GT(ingress_, 0.0);
  COMET_CHECK_GE(latency_us_, 0.0);
}

std::vector<FlowCompletion> FluidNetwork::Run(
    const std::vector<Flow>& flows) const {
  const size_t n = flows.size();
  const size_t ports = static_cast<size_t>(num_ports_);
  std::vector<FlowCompletion> out(n);
  std::vector<double> remaining(n);
  std::vector<char> done(n, 0);
  size_t active_or_pending = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto& f = flows[i];
    COMET_CHECK_GE(f.src, 0);
    COMET_CHECK_LT(f.src, num_ports_);
    COMET_CHECK_GE(f.dst, 0);
    COMET_CHECK_LT(f.dst, num_ports_);
    COMET_CHECK_NE(f.src, f.dst) << "local flows do not use the fabric";
    COMET_CHECK_GE(f.bytes, 0.0);
    remaining[i] = f.bytes;
    out[i].start_us = f.ready_us;
    if (f.bytes <= 0.0) {
      out[i].end_us = f.ready_us + latency_us_;
      done[i] = 1;
    } else {
      ++active_or_pending;
    }
  }

  double now = 0.0;
  // Start simulation at the earliest ready time.
  {
    double earliest = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      if (!done[i]) {
        earliest = std::min(earliest, flows[i].ready_us);
      }
    }
    if (active_or_pending > 0) {
      now = earliest;
    }
  }

  // Per-step state, allocated once. Each port's active flows are listed
  // contiguously (egress: out_flows[out_begin[p], out_begin[p + 1]), ingress
  // likewise), and out_n / in_n count the ones not yet fixed.
  std::vector<size_t> active;
  active.reserve(n);
  std::vector<double> rate(n, 0.0);
  std::vector<char> fixed(n, 0);
  std::vector<double> egress_cap(ports);
  std::vector<double> ingress_cap(ports);
  std::vector<int> out_n(ports);
  std::vector<int> in_n(ports);
  std::vector<size_t> out_begin(ports + 1);
  std::vector<size_t> in_begin(ports + 1);
  std::vector<size_t> out_flows(n);
  std::vector<size_t> in_flows(n);

  while (active_or_pending > 0) {
    active.clear();
    for (size_t i = 0; i < n; ++i) {
      if (!done[i] && flows[i].ready_us <= now) {
        active.push_back(i);
      }
    }
    if (active.empty()) {
      // Jump to the next arrival.
      double next = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < n; ++i) {
        if (!done[i]) {
          next = std::min(next, flows[i].ready_us);
        }
      }
      now = next;
      continue;
    }

    // Max-min fair rates via iterative water-filling over ports.
    std::fill(out_n.begin(), out_n.end(), 0);
    std::fill(in_n.begin(), in_n.end(), 0);
    for (const size_t i : active) {
      ++out_n[static_cast<size_t>(flows[i].src)];
      ++in_n[static_cast<size_t>(flows[i].dst)];
      fixed[i] = 0;
    }
    for (size_t p = 0; p < ports; ++p) {
      out_begin[p + 1] = out_begin[p] + static_cast<size_t>(out_n[p]);
      in_begin[p + 1] = in_begin[p] + static_cast<size_t>(in_n[p]);
    }
    // Re-count while listing, so the counts end where they started.
    std::fill(out_n.begin(), out_n.end(), 0);
    std::fill(in_n.begin(), in_n.end(), 0);
    for (const size_t i : active) {
      const size_t src = static_cast<size_t>(flows[i].src);
      const size_t dst = static_cast<size_t>(flows[i].dst);
      out_flows[out_begin[src] + static_cast<size_t>(out_n[src]++)] = i;
      in_flows[in_begin[dst] + static_cast<size_t>(in_n[dst]++)] = i;
    }
    std::fill(egress_cap.begin(), egress_cap.end(), egress_);
    std::fill(ingress_cap.begin(), ingress_cap.end(), ingress_);

    size_t unfixed = active.size();
    while (unfixed > 0) {
      // Find the tightest port: min(cap / #unfixed flows through it).
      double best_share = std::numeric_limits<double>::infinity();
      for (size_t p = 0; p < ports; ++p) {
        if (out_n[p] > 0) {
          best_share = std::min(best_share, egress_cap[p] / out_n[p]);
        }
        if (in_n[p] > 0) {
          best_share = std::min(best_share, ingress_cap[p] / in_n[p]);
        }
      }
      COMET_CHECK(best_share < std::numeric_limits<double>::infinity());
      // Fix every unfixed flow passing through a port saturated at this
      // share. (Conservative: fix ALL unfixed flows at best_share whose src
      // or dst port attains the bottleneck.) Every flow fixed in this round
      // subtracts the same share, so the order flows are fixed in leaves the
      // capacities -- and the later ports' tightness tests -- unchanged.
      bool fixed_any = false;
      const auto fix = [&](size_t i) {
        if (fixed[i]) {
          return;
        }
        const size_t src = static_cast<size_t>(flows[i].src);
        const size_t dst = static_cast<size_t>(flows[i].dst);
        rate[i] = best_share;
        fixed[i] = 1;
        --unfixed;
        fixed_any = true;
        egress_cap[src] -= best_share;
        ingress_cap[dst] -= best_share;
        --out_n[src];
        --in_n[dst];
      };
      for (size_t p = 0; p < ports; ++p) {
        const bool out_tight = out_n[p] > 0 && egress_cap[p] / out_n[p] <=
                                                  best_share * (1 + 1e-12);
        const bool in_tight = in_n[p] > 0 && ingress_cap[p] / in_n[p] <=
                                                 best_share * (1 + 1e-12);
        if (out_tight) {
          for (size_t k = out_begin[p]; k < out_begin[p + 1]; ++k) {
            fix(out_flows[k]);
          }
        }
        if (in_tight) {
          for (size_t k = in_begin[p]; k < in_begin[p + 1]; ++k) {
            fix(in_flows[k]);
          }
        }
      }
      COMET_CHECK(fixed_any) << "water-filling failed to make progress";
    }

    // Step length: min over active flows of remaining/rate, and the next
    // arrival of a pending flow.
    double dt = std::numeric_limits<double>::infinity();
    for (const size_t i : active) {
      if (rate[i] > 0.0) {
        dt = std::min(dt, remaining[i] / rate[i]);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (!done[i] && flows[i].ready_us > now) {
        dt = std::min(dt, flows[i].ready_us - now);
      }
    }
    COMET_CHECK(dt > 0.0 && dt < std::numeric_limits<double>::infinity());

    for (const size_t i : active) {
      remaining[i] -= rate[i] * dt;
      if (remaining[i] <= 1e-9) {
        remaining[i] = 0.0;
        done[i] = 1;
        --active_or_pending;
        out[i].end_us = now + dt + latency_us_;
      }
    }
    now += dt;
  }
  return out;
}

}  // namespace comet
