// Timing model of COMET's thread-block-specialized fused kernels (§3.2).
//
// One fused kernel owns all `total_blocks` SMs of the GPU: `comm_blocks`
// (nc) persistent blocks drive NVSHMEM token I/O, the remaining np blocks
// run the unmodified GEMM tile loop. Compute tiles are issued strictly in
// the (rescheduled) tile order; a block that picks up a tile whose rows have
// not arrived spins -- which is exactly why rescheduling matters. The
// communication side is a FIFO channel whose achieved bandwidth is
// min(nc * per_block_bw, link_bw).
//
// Layer0 models the communication->computation pipeline (token arrival gates
// tile start); layer1 models computation->communication (column-panel
// completion gates the top-k reduce + write/send). A `vertical_fusion` mode
// reproduces the strawman rejected in §3.2.1: token I/O embedded in the
// compute tiles themselves, paying both a pipeline-efficiency penalty and
// serialized remote latency.
#pragma once

#include "core/reschedule.h"
#include "exec/op_costs.h"
#include "moe/route_plan.h"
#include "sim/bandwidth_queue.h"
#include "sim/slot_pool.h"
#include "sim/timeline.h"

namespace comet {

struct FusedKernelConfig {
  int total_blocks = 0;  // number of SMs (one persistent block per SM)
  int comm_blocks = 0;   // nc; np = total - nc
  int64_t tile_m = 128;
  int64_t tile_n = 128;
  bool reschedule = true;
  bool vertical_fusion = false;  // ablation: no thread-block specialization
};

struct FusedKernelResult {
  double duration_us = 0.0;
  double compute_makespan_us = 0.0;
  double comm_makespan_us = 0.0;
  // Slot-time compute blocks spent waiting on data (pipeline bubbles).
  double stall_us = 0.0;
  double comm_bytes = 0.0;
  Timeline timeline;
};

// Reusable workspace for the prepare / price steps and the
// Simulate*FusedInto variants below. Owned per rank by the executor; every
// buffer grows to its high-water mark during warm-up and is then reused
// allocation-free. After a call, `layer0` / `layer1` hold the schedule that
// call priced; the executor's functional plane runs its tiles (TileAt) in
// exactly that order. Everything here is sized by row chunks (runs), column
// panels or slots -- nothing per tile: the price steps issue the tiles of
// each run straight from the schedule onto `slots` and write each tile's
// interval to the caller's timeline, if there is one.
struct FusedKernelWorkspace {
  ScheduleScratch schedule_scratch;
  Layer0Schedule layer0;
  Layer1Schedule layer1;
  // Per layer0 run, in run order (each run is one row chunk, the
  // token-delivery unit): remote bytes by fabric tier and delivery time
  // (0 = all rows local).
  std::vector<double> run_intra;
  std::vector<double> run_inter;
  std::vector<double> run_arrival;
  // Written by a prepare step, read by the price step after it: the rank's
  // remote bytes by fabric tier (layer0: rows in, layer1: EP return rows
  // out), and layer1's TP reduce-scatter share and whether it crosses nodes.
  double remote_intra = 0.0;
  double remote_inter = 0.0;
  double reduce_scatter_bytes = 0.0;
  bool reduce_scatter_crosses_nodes = false;
  std::vector<TransferJob> jobs;      // layer0: run deliveries (prepared);
                                      // layer1: panel sends (priced)
  std::vector<int64_t> job_runs;      // layer0: run index of each job
  std::vector<TransferResult> transfers;
  SlotPool slots;
  std::vector<double> panel_done;
};

// Simulates the layer0 fused kernel (dispatch + GroupGEMM) on `rank`.
FusedKernelResult SimulateLayer0Fused(const RoutePlan& plan, int rank,
                                      const OpCostModel& costs,
                                      const FusedKernelConfig& config);

// Simulates the layer1 fused kernel (GroupGEMM + top-k reduce +
// all-to-all / reduce-scatter) on `rank`.
FusedKernelResult SimulateLayer1Fused(const RoutePlan& plan, int rank,
                                      const OpCostModel& costs,
                                      const FusedKernelConfig& config);

// Allocation-free rebuild variants: identical numbers and timeline to the
// functions above, built into `result` (timeline cleared and refilled;
// labels are static, so refilling within capacity is allocation-free) using
// `ws` for every intermediate. Each is its layer's
// prepare step followed by its price step.
void SimulateLayer0FusedInto(const RoutePlan& plan, int rank,
                             const OpCostModel& costs,
                             const FusedKernelConfig& config,
                             FusedKernelWorkspace& ws,
                             FusedKernelResult* result);
void SimulateLayer1FusedInto(const RoutePlan& plan, int rank,
                             const OpCostModel& costs,
                             const FusedKernelConfig& config,
                             FusedKernelWorkspace& ws,
                             FusedKernelResult* result);

// The two steps of a fused-kernel simulation, for callers that price many
// division points of one layer (the adaptive sweep).
//
// Prepare builds into `ws` everything that does not depend on
// `config.comm_blocks`, in O(rows + chunks): the (rescheduled) run
// schedule; for layer0 each run's remote bytes by fabric tier and the
// delivery jobs; for layer1 the EP return bytes by tier and the TP
// reduce-scatter share. It reads `config`'s tile sizes and reschedule flag
// only.
//
// Price simulates one division point on the prepared `ws`: the
// communication channel of nc blocks and the in-order slot schedule of the
// np = total_blocks - nc GEMM blocks. `config` must equal the prepare's in
// every field but comm_blocks, which price validates. It leaves
// `result->timeline` alone and writes the intervals to `timeline` (cleared
// and reserved to the tile plus transfer count first) only when that is
// non-null. It costs one slot issue per tile: O(1) each on every
// rescheduled price but vertical fusion (see SlotPool). A price leaves the prepared state as
// it found it, so one prepare serves any number of prices. The two
// schedules live side by side, but the rest of the prepared state is
// shared: price the layer prepared last.
void PrepareLayer0Fused(const RoutePlan& plan, int rank,
                        const OpCostModel& costs,
                        const FusedKernelConfig& config,
                        FusedKernelWorkspace& ws);
void PriceLayer0Fused(const RoutePlan& plan, const OpCostModel& costs,
                      const FusedKernelConfig& config,
                      FusedKernelWorkspace& ws, FusedKernelResult* result,
                      Timeline* timeline);
void PrepareLayer1Fused(const RoutePlan& plan, int rank,
                        const OpCostModel& costs,
                        const FusedKernelConfig& config,
                        FusedKernelWorkspace& ws);
void PriceLayer1Fused(const RoutePlan& plan, const OpCostModel& costs,
                      const FusedKernelConfig& config,
                      FusedKernelWorkspace& ws, FusedKernelResult* result,
                      Timeline* timeline);

}  // namespace comet
