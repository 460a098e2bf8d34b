// The COMET MoE-layer executor: fine-grained communication-computation
// overlap via shared-tensor decomposition, rescheduling, thread-block
// specialization and adaptive workload assignment.
//
// Two planes share one schedule:
//  * timing -- builds each rank's layer0/layer1 tile schedules and prices
//    them on the cluster model through the fused-kernel simulator.
//  * functional -- executes the REAL math tile-by-tile in exactly those
//    schedules, moving tokens through the NVSHMEM-style symmetric heap as
//    the fused kernels would. Verified bit-exact against the sharded
//    reference layer (rescheduling must never change results).
//
// Every call runs through one executor-owned workspace: per-rank simulation
// and tensor scratch, the symmetric heap, the parked rank threads. Run and
// RunBatchInto share it, so repeated calls reuse buffers instead of
// reallocating them; results never depend on what a previous call left.
//
// Option toggles expose the paper's ablations: rescheduling off (canonical
// tile order), vertical fusion instead of thread-block specialization, and
// fixed instead of adaptive division points.
#pragma once

#include <memory>
#include <vector>

#include "comm/symmetric_heap.h"
#include "core/adaptive.h"
#include "exec/execution.h"
#include "tensor/dtype.h"
#include "util/metadata_store.h"

namespace comet {

struct CometOptions {
  bool reschedule = true;
  bool specialized = true;  // false => vertical fusion (§3.2.1 strawman)
  bool adaptive = true;     // false => fixed_comm_blocks division point
  int fixed_comm_blocks = 16;
  int64_t tile_m = 128;
  int64_t tile_n = 128;
  // Storage/compute dtype of the functional plane: symmetric-heap buffers
  // and GEMM/activation intermediates live at this dtype (f32 accumulate,
  // RNE round on store -- the tensor-core contract; see tensor/dtype.h).
  // Functional runs require the workload to be materialized at the same
  // dtype (WorkloadOptions::dtype). Rounding points are pure functions of
  // coordinates, so the thread/rank-count bit-exactness guarantees hold at
  // every dtype. The timing plane is unaffected (it already prices 2-byte
  // elements, per the paper).
  DType compute_dtype = DType::kF32;
  // Worker threads for the parallel functional/timing plane: 0 = the global
  // pool default (COMET_THREADS env var, else hardware concurrency), 1 = the
  // old serial behavior. Tiles partition every output disjointly, so the
  // thread count never changes results (see util/thread_pool.h).
  int num_threads = 0;
  // How long a concurrent consumer blocks in SymmetricHeap::WaitUntilSignalGe
  // before failing with CheckError naming the buffer. The serving plane and
  // load tests lower this so a wedged rank surfaces in seconds instead of
  // hanging a minute; must be > 0.
  int64_t signal_wait_timeout_ms = 60'000;
  // Transport integrity (see comm/symmetric_heap.h HeapIntegrityOptions).
  // verify_transport checksums every symmetric-heap row put and verifies at
  // every get -- corrupted payloads throw CheckError at their first consumer
  // instead of being served. Off by default here (bench/training paths trust
  // the in-process heap); the serving plane turns it ON by default.
  // corrupt_rate > 0 arms the deterministic link-corruption injector (fault
  // testing): each put flips one stored bit with this probability, decided by
  // a pure hash of (corrupt_seed, buffer, rank, row, put count).
  bool verify_transport = false;
  double corrupt_rate = 0.0;
  uint64_t corrupt_seed = 0;
  // Hot-expert replica slots the serving fast path preallocates: weight
  // slabs on the symmetric heap plus per-rank slice workspaces, sized at
  // PrepareServing so PromoteReplica/RetireReplica never allocate. 0 (the
  // default) compiles the replica path out of the data plane entirely --
  // plans carry no replica slices and behavior is byte-identical to builds
  // without it.
  int max_replicated_experts = 0;
  // Optional cross-run profile cache (paper: metadata written at deployment
  // time). Borrowed pointer; may be null.
  MetadataStore* profile_cache = nullptr;
};

// Fused-kernel setup shared by the forward executor and CometBackward.
//
// The config every rank of one COMET layer runs with; comm_blocks is left
// at 0 (see PickDivisionPoints).
FusedKernelConfig BaseFusedKernelConfig(const CometOptions& options,
                                        const ClusterSpec& cluster);

// Communication-block counts of the two pipeline stages: layer0 and layer1
// forward, or backward kernels A and B, which mirror them.
struct DivisionPoints {
  int layer0 = 0;
  int layer1 = 0;
};

// 0 under vertical fusion (no specialized blocks), the fixed count when
// adaptive assignment is off, else the adaptive choice profiled on the most
// loaded rank (the one that sets the makespan) and used on every rank, as
// the paper's pre-compiled kernel selection does.
DivisionPoints PickDivisionPoints(const CometOptions& options,
                                  const FusedKernelConfig& base,
                                  const RoutePlan& plan,
                                  const OpCostModel& costs,
                                  const AdaptiveAssigner& assigner);

// The heap row exchange, shared by the forward (dispatch, undispatch,
// combine) and CometBackward (grad dispatch, dA undispatch, dinput reduce).
// Rank `rank` walks its plan slices with each slice's rows in a schedule's
// order (`row_order[le]` lists slice le's row indices); a row's token lives
// on the same TP lane of the token's home group.

// Step 1: copies the pos-th scheduled row of slice le from `buf` on its
// home rank into rows[le].row(pos); rows[le] must hold the slice's rows.
void GatherRowsFromHome(SymmetricHeap& heap, SymmetricBufferId buf,
                        const RoutePlan& plan, int rank,
                        const std::vector<std::vector<int64_t>>& row_order,
                        std::vector<Tensor>& rows);

// Step 2: puts rows[le].row(pos) home into row t * topk + slot of `buf`
// (t the token's index in its home group) and bumps `sig` at that index.
void PutRowsHome(SymmetricHeap& heap, SymmetricBufferId buf,
                 SymmetricBufferId sig, const RoutePlan& plan, int rank,
                 const std::vector<std::vector<int64_t>>& row_order,
                 const std::vector<Tensor>& rows);

// Step 3, on lane-0 rank `rank` of a group: waits (up to `timeout_ms` per
// signal) for every step-2 put to the group, then overwrites `out` (group
// tokens x embedding) token by token: from zero, slot-major with the TP lane
// inner, times the route weight when `weighted`, rounded once at `dtype`.
// The order depends only on (token, slot, lane), so concurrency never
// changes a bit.
void CombineRowsAtHome(SymmetricHeap& heap, SymmetricBufferId buf,
                       SymmetricBufferId sig, const Placement& placement,
                       const RoutingTable& routing, int rank, bool weighted,
                       DType dtype, int64_t timeout_ms, Tensor& out);

class CometExecutor : public MoeLayerExecutor {
 public:
  explicit CometExecutor(CometOptions options = {});
  ~CometExecutor() override;

  std::string name() const override;
  bool Supports(const ParallelConfig& parallel) const override;
  LayerExecution Run(const MoeWorkload& workload, const ClusterSpec& cluster,
                     ExecMode mode) override;

  // ---- zero-allocation serving fast path ------------------------------------
  //
  // A serving loop re-executes the same layer shape thousands of times. The
  // pair below turns that steady state malloc-free. RunBatchInto is Run built
  // into a caller-persistent LayerExecution, with division points memoized
  // per batch size; both run through the same workspace, so results are
  // bit-identical to Run for the same inputs. PrepareServing is an optional
  // warm-up that sizes the workspace for the largest batch up front. Not
  // thread-safe: one serving loop per executor.

  // Warm-up for batches up to `max_placement`'s token count (its
  // model/parallel shape must match the batches served): reserves every
  // workspace at that bound (symmetric heap buffers and signals, per-rank
  // schedule/simulation workspaces, per-expert tensor slabs, parked rank
  // threads), warms the thread-local scratch of every pool worker and rank
  // thread, and clears the division-point memo. Allocates, so call it
  // before any allocation-counting window. Idempotent.
  void PrepareServing(const Placement& max_placement,
                      const ClusterSpec& cluster);

  // Run semantics built into `*out` in place. Adaptive division points are
  // memoized per batch token count -- a continuous batcher re-runs the same
  // few batch shapes thousands of times, and each re-sweep is the host-side
  // overhead the paper's decode regime is dominated by -- so each shape is
  // profiled once. After PrepareServing and one warm-up call per distinct
  // batch token count, performs zero heap allocations per call. A batch
  // beyond the bounds the heap was built for (by PrepareServing or an
  // earlier call, Run included) rebuilds the heap, which frees every replica
  // slot; MoeServer stays within its PrepareServing bound and never calls
  // Run. In kTimedOnly mode `out->outputs` is left untouched.
  void RunBatchInto(const MoeWorkload& workload, const ClusterSpec& cluster,
                    ExecMode mode, LayerExecution* out);

  // ---- hot-expert replication (online adaptation mechanism) -----------------
  //
  // The serving plane's HotExpertTracker decides WHAT to replicate; these
  // apply the decision. Replica weights live in per-slot symmetric-heap
  // slabs ("replica-w0-slot{s}" / "replica-w1-slot{s}") allocated with the
  // heap when options.max_replicated_experts > 0; a promote
  // bit-copies the expert's lane shards from its home ranks into the target
  // group's ranks through PutRow (quantization on the already-quantized
  // weights is the identity, so replica math is bit-identical to home math).
  // RunBatchInto then feeds replica plan slices (RoutePlan slice indices >=
  // ExpertsPerGroup()) from the slabs. Promote/retire are change-iteration
  // operations: allocation-free after PrepareServing, but call them outside
  // any allocation-counting window anyway (the plan Rebuild that follows a
  // layout change may touch cold capacity).

  // Copies expert `expert`'s weights into replica slot `slot` on EP group
  // `ep_group` (must not be the expert's home group; slot must be free).
  // Requires the heap, i.e. PrepareServing or a functional run first.
  void PromoteReplica(int slot, int64_t expert, int ep_group,
                      const Placement& placement,
                      const ShardedExpertWeights& weights);
  // Frees replica slot `slot`. Slab bits stay (inactive slices have no rows,
  // so they are never read) until the next promote overwrites them.
  void RetireReplica(int slot);
  // Drops every memoized division point (the per-M serving memo). The
  // adaptation loop calls this when the replica layout changes: ProfileKey
  // does not encode replicas, so memoized division points no longer describe
  // the plan being priced. The next iteration per batch size re-profiles
  // against the current layout.
  void InvalidateBatchProfiles();

  // Re-arms the transport-integrity knobs between iterations (the serving
  // plane uses this to inject a one-iteration corruption fault without
  // rebuilding the executor). Takes effect at the next Run/RunBatchInto,
  // which re-arms its symmetric heap from these options.
  void SetTransportIntegrity(bool verify, double corrupt_rate,
                             uint64_t corrupt_seed) {
    options_.verify_transport = verify;
    options_.corrupt_rate = corrupt_rate;
    options_.corrupt_seed = corrupt_seed;
  }

  // Division points chosen for the last Run (diagnostics / tests).
  int last_layer0_comm_blocks() const { return last_nc0_; }
  int last_layer1_comm_blocks() const { return last_nc1_; }
  // Serving profile-memo traffic: how often RunBatchInto found its division
  // points already tuned for the batch's token count vs. ran the candidate
  // sweep. Plain Run calls never consult the memo, so they never move these.
  uint64_t profile_memo_hits() const { return profile_memo_hits_; }
  uint64_t profile_memo_misses() const { return profile_memo_misses_; }

  // Transport stats of the workspace's symmetric heap (zeros before
  // PrepareServing or the first functional run). A plain struct so the telemetry plane can read heap
  // traffic without depending on comm/.
  struct ServingHeapStats {
    // Bytes moved by the last layer run only: every run resets the traffic.
    double total_traffic_bytes = 0.0;
    // Cumulative across runs.
    uint64_t rows_verified = 0;
    uint64_t rows_corrupted = 0;
  };
  ServingHeapStats serving_heap_stats() const;

 private:
  struct Workspace;  // everything reused across calls (.cc)

  // The one body behind Run and RunBatchInto; `use_memo` consults and fills
  // the per-batch-size division-point memo.
  void RunInto(const MoeWorkload& workload, const ClusterSpec& cluster,
               ExecMode mode, bool use_memo, LayerExecution& out);
  void RunTimedInto(const MoeWorkload& workload, const ClusterSpec& cluster,
                    bool use_memo, LayerExecution& out);
  void RunFunctionalInto(const MoeWorkload& workload, LayerExecution& out);
  void EnsureFunctionalCapacity(const Placement& placement);

  CometOptions options_;
  AdaptiveAssigner assigner_;
  int last_nc0_ = 0;
  int last_nc1_ = 0;
  uint64_t profile_memo_hits_ = 0;
  uint64_t profile_memo_misses_ = 0;
  std::unique_ptr<Workspace> ws_;
};

}  // namespace comet
