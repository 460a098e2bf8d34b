// Test-only reference: the fluid network's original water-filling, which
// re-counts every active flow for every port in every round and allocates
// its buffers once per step. The production FluidNetwork::Run
// (src/sim/network.cc) keeps per-port counts and flow lists instead and
// must match this bit for bit: within a round every fixed flow subtracts the
// same share, so each port's capacity depends only on how many of its flows
// were fixed, and the tightness test sees the same counts and capacities.
// Argument checks are dropped (callers pass valid flows); the progress
// checks stay, so a broken case fails instead of spinning.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "sim/network.h"
#include "util/check.h"

namespace comet::fluid_reference {

inline std::vector<FlowCompletion> Run(int num_ports, double egress,
                                       double ingress, double latency_us,
                                       const std::vector<Flow>& flows) {
  std::vector<FlowCompletion> out(flows.size());
  std::vector<double> remaining(flows.size());
  std::vector<bool> done(flows.size(), false);
  size_t active_or_pending = 0;
  for (size_t i = 0; i < flows.size(); ++i) {
    const auto& f = flows[i];
    remaining[i] = f.bytes;
    out[i].start_us = f.ready_us;
    if (f.bytes <= 0.0) {
      out[i].end_us = f.ready_us + latency_us;
      done[i] = true;
    } else {
      ++active_or_pending;
    }
  }

  double now = 0.0;
  // Start simulation at the earliest ready time.
  {
    double earliest = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < flows.size(); ++i) {
      if (!done[i]) {
        earliest = std::min(earliest, flows[i].ready_us);
      }
    }
    if (active_or_pending > 0) {
      now = earliest;
    }
  }

  while (active_or_pending > 0) {
    // Max-min fair rates via iterative water-filling over ports.
    std::vector<double> rate(flows.size(), 0.0);
    std::vector<bool> fixed(flows.size(), true);
    std::vector<size_t> active;
    for (size_t i = 0; i < flows.size(); ++i) {
      if (!done[i] && flows[i].ready_us <= now) {
        active.push_back(i);
        fixed[i] = false;
      }
    }
    if (active.empty()) {
      // Jump to the next arrival.
      double next = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < flows.size(); ++i) {
        if (!done[i]) {
          next = std::min(next, flows[i].ready_us);
        }
      }
      now = next;
      continue;
    }

    std::vector<double> egress_cap(static_cast<size_t>(num_ports), egress);
    std::vector<double> ingress_cap(static_cast<size_t>(num_ports), ingress);
    size_t unfixed = active.size();
    while (unfixed > 0) {
      // Find the tightest port: min(cap / #unfixed flows through it).
      double best_share = std::numeric_limits<double>::infinity();
      for (int p = 0; p < num_ports; ++p) {
        int out_n = 0;
        int in_n = 0;
        for (size_t i : active) {
          if (fixed[i]) {
            continue;
          }
          if (flows[i].src == p) {
            ++out_n;
          }
          if (flows[i].dst == p) {
            ++in_n;
          }
        }
        if (out_n > 0) {
          best_share = std::min(best_share,
                                egress_cap[static_cast<size_t>(p)] / out_n);
        }
        if (in_n > 0) {
          best_share = std::min(best_share,
                                ingress_cap[static_cast<size_t>(p)] / in_n);
        }
      }
      COMET_CHECK(best_share < std::numeric_limits<double>::infinity());
      // Fix every unfixed flow passing through a port saturated at this
      // share.
      bool fixed_any = false;
      for (int p = 0; p < num_ports; ++p) {
        int out_n = 0;
        int in_n = 0;
        for (size_t i : active) {
          if (!fixed[i] && flows[i].src == p) {
            ++out_n;
          }
          if (!fixed[i] && flows[i].dst == p) {
            ++in_n;
          }
        }
        const bool out_tight =
            out_n > 0 && egress_cap[static_cast<size_t>(p)] / out_n <=
                             best_share * (1 + 1e-12);
        const bool in_tight =
            in_n > 0 && ingress_cap[static_cast<size_t>(p)] / in_n <=
                            best_share * (1 + 1e-12);
        if (!out_tight && !in_tight) {
          continue;
        }
        for (size_t i : active) {
          if (fixed[i]) {
            continue;
          }
          if ((out_tight && flows[i].src == p) ||
              (in_tight && flows[i].dst == p)) {
            rate[i] = best_share;
            fixed[i] = true;
            --unfixed;
            fixed_any = true;
            egress_cap[static_cast<size_t>(flows[i].src)] -= best_share;
            ingress_cap[static_cast<size_t>(flows[i].dst)] -= best_share;
          }
        }
      }
      COMET_CHECK(fixed_any) << "water-filling failed to make progress";
    }

    // Step length: min over active flows of remaining/rate, and the next
    // arrival of a pending flow.
    double dt = std::numeric_limits<double>::infinity();
    for (size_t i : active) {
      if (rate[i] > 0.0) {
        dt = std::min(dt, remaining[i] / rate[i]);
      }
    }
    for (size_t i = 0; i < flows.size(); ++i) {
      if (!done[i] && flows[i].ready_us > now) {
        dt = std::min(dt, flows[i].ready_us - now);
      }
    }
    COMET_CHECK(dt > 0.0 && dt < std::numeric_limits<double>::infinity());

    for (size_t i : active) {
      remaining[i] -= rate[i] * dt;
      if (remaining[i] <= 1e-9) {
        remaining[i] = 0.0;
        done[i] = true;
        --active_or_pending;
        out[i].end_us = now + dt + latency_us;
      }
    }
    now += dt;
  }
  return out;
}

}  // namespace comet::fluid_reference
