#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "comm/symmetric_heap.h"
#include "moe/expert_weights.h"
#include "moe/workload.h"
#include "util/arena.h"
#include "util/check.h"

namespace comet {

namespace {

// Gate logits scale ~1 for unit-variance tokens: stddev = 1/sqrt(N).
Tensor MakeGateWeight(const ServeOptions& options) {
  Rng rng(options.seed + 23);
  const float stddev =
      1.0f / std::sqrt(static_cast<float>(options.model.embedding));
  return Tensor::Randn(
      Shape{options.model.embedding, options.model.num_experts}, rng, stddev,
      DType::kF32);
}

std::shared_ptr<const ExpertWeights> MakeWeights(const ServeOptions& options) {
  // Same derivation as MakeWorkload (seed + 17), so a serving run at seed S
  // executes the weights a workload at seed S would.
  Rng rng(options.seed + 17);
  return std::make_shared<ExpertWeights>(
      ExpertWeights::Random(options.model, rng, 0.05f, options.dtype));
}

CometOptions MakeExecutorOptions(const ServeOptions& options) {
  CometOptions comet;
  comet.compute_dtype = options.dtype;
  comet.num_threads = options.num_threads;
  comet.signal_wait_timeout_ms = options.signal_wait_timeout_ms;
  comet.verify_transport = options.verify_transport;
  // Replica slots only exist when adaptation can use them: disabled
  // adaptation compiles the replica path out of the executor's plans and
  // workspaces, keeping the served bits byte-identical to a server without
  // the adaptation plane.
  comet.max_replicated_experts =
      options.adaptation.enabled ? options.adaptation.max_replicated_experts
                                 : 0;
  comet.tile_m = options.granularity;
  return comet;
}

int ServeMaxReplicas(const ServeOptions& options) {
  return options.adaptation.enabled ? options.adaptation.max_replicated_experts
                                    : 0;
}

// Largest per-iteration global token matrix: token_budget rounded up to a
// multiple of EP (the padding the batch builder adds). Every iteration
// workspace is reserved at this bound.
int64_t MaxPaddedTokens(const ServeOptions& options) {
  const int64_t ep = options.parallel.ep;
  return (options.token_budget + ep - 1) / ep * ep;
}

// Stream tag separating a request's decode perturbation draws from its
// prompt-content draws (which use the seed directly).
constexpr uint64_t kDecodeStream = 0xdec0de5eed0c0deULL;
// Stream tag for the one-shot corruption injector's heap seed.
constexpr uint64_t kCorruptStream = 0xbadb17f11b5eed5ULL;
// Stream tag for the synthetic router's load-vector and sampling draws,
// keeping them independent of the weight/gate/decode streams.
constexpr uint64_t kSyntheticStream = 0x5c13f1c5eedf00dULL;

}  // namespace

// Pooled: a released LiveRequest keeps the capacity of its prompt tensor,
// decode row and ITL sample vector, so re-admission through the pool stops
// allocating once those capacities reach the workload's high-water mark.
struct MoeServer::LiveRequest {
  RequestSpec spec;
  Tensor prompt;                    // (prompt_tokens, N) at the serve dtype
  std::vector<float> decode_input;  // next decode row, representable at dtype
  Rng decode_rng{0};
  double first_scheduled_us = -1.0;
  double first_token_us = -1.0;
  double last_token_us = -1.0;
  // Tokens of this request already executed here (wasted work if the
  // request is cancelled as a hedging loser).
  int64_t executed_tokens = 0;
  std::vector<double> itl_samples;
  uint64_t digest = Fnv1aInit();

  // Re-initializes a pooled object for a fresh admission. The prompt fill
  // consumes the content rng exactly like Tensor::Randn, so a pooled and a
  // freshly-constructed request hold bit-identical prompts.
  void Reset(const RequestSpec& s, int64_t n_embed, DType dtype) {
    spec = s;
    Rng content_rng(s.seed);
    prompt.ResetFormat2D(s.prompt_tokens, n_embed, dtype);
    prompt.FillRandn(content_rng, 1.0f);
    // Emptiness of decode_input is the "prefill not finished" marker; clear()
    // keeps the capacity.
    decode_input.clear();
    decode_rng = Rng(s.seed ^ kDecodeStream);
    first_scheduled_us = -1.0;
    first_token_us = -1.0;
    last_token_us = -1.0;
    executed_tokens = 0;
    itl_samples.clear();
    digest = Fnv1aInit();
  }
};

// All per-run state, recreated by BeginRun so a MoeServer (and each cluster
// replica) is reusable across independent serving runs. The constructor is
// the warm-up phase of the zero-allocation contract: every iteration-path
// container is reserved here at its run-level bound (token_budget,
// max_active, queue_capacity, the caller's expected-request hints), so the
// steady-state StepIteration only reuses capacity.
struct MoeServer::RunState {
  RunState(const ServeOptions& options,
           std::shared_ptr<const ExpertWeights> weights,
           std::shared_ptr<const ShardedExpertWeights> sharded,
           const RunBounds& bounds)
      : queue(options.queue_capacity),
        batcher(BatcherOptions{.token_budget = options.token_budget,
                               .max_active = options.max_active}),
        tracker(options.adaptation, options.model.num_experts,
                options.parallel.ep) {
    const int64_t ep = options.parallel.ep;
    const int64_t n_embed = options.model.embedding;
    const int64_t padded_max = MaxPaddedTokens(options);
    const int64_t per_group_max = padded_max / ep;
    // Live requests are bounded by max_active; an unbounded batcher
    // (max_active == 0) falls back to the caller's hint or the queue bound.
    const int64_t live_bound =
        options.max_active > 0
            ? options.max_active
            : std::max(bounds.expected_requests, options.queue_capacity);
    pool.Reserve(static_cast<size_t>(live_bound));
    // Warm every pooled LiveRequest at the per-request bounds, so admission
    // never grows a pooled object's internal buffers mid-run.
    {
      std::vector<LiveRequest*> all;
      all.reserve(static_cast<size_t>(live_bound));
      for (int64_t i = 0; i < live_bound; ++i) {
        all.push_back(pool.Acquire());
      }
      for (LiveRequest* lr : all) {
        lr->prompt.Reserve(bounds.max_prompt_tokens * n_embed);
        // Formatting once sizes the shape's dims too; the first Reset would
        // otherwise allocate them.
        lr->prompt.ResetFormat2D(0, n_embed, options.dtype);
        lr->decode_input.reserve(static_cast<size_t>(n_embed));
        lr->itl_samples.reserve(static_cast<size_t>(bounds.max_decode_tokens));
        pool.Release(lr);
      }
    }
    batcher.Reserve(std::max(bounds.expected_requests, live_bound));
    by_slot.reserve(
        static_cast<size_t>(std::max(bounds.expected_requests, live_bound)));

    // Iteration workspaces: every entry carries >= 1 token, so a plan never
    // exceeds token_budget entries.
    plan.entries.reserve(static_cast<size_t>(options.token_budget));
    live.reserve(static_cast<size_t>(options.token_budget));
    rows.reserve(static_cast<size_t>(options.token_budget));
    finished.reserve(static_cast<size_t>(live_bound));
    global.Reserve(padded_max * n_embed);

    workload.placement = Placement(options.model, options.parallel, padded_max);
    // A single expert can receive at most one (token, expert) pair per token
    // (experts within a route are distinct). With adaptation on, every group
    // additionally carries max_replicated_experts permanent replica slices.
    workload.plan.Reserve(workload.placement, padded_max,
                          ServeMaxReplicas(options));
    workload.routing.tokens.reserve(static_cast<size_t>(padded_max));
    workload.inputs.resize(static_cast<size_t>(ep));
    for (Tensor& t : workload.inputs) {
      t.Reserve(per_group_max * n_embed);
    }
    workload.weights = std::move(weights);
    workload.sharded_weights = std::move(sharded);
    workload.activation = ActivationKind::kGelu;
    gate_scratch.scores.Reserve(padded_max * options.model.num_experts);
    gate_scratch.scores.ResetFormat2D(0, options.model.num_experts,
                                      DType::kF32);
    expert_loads.reserve(static_cast<size_t>(options.model.num_experts));
    if (options.routing == ServeRoutingMode::kSynthetic) {
      // The load vector and the router's sampling stream both derive from
      // the synthetic tag; distinct sub-seeds keep them independent.
      Rng load_rng((options.seed ^ kSyntheticStream) + 1);
      synth.emplace(
          load_rng.LoadVectorWithStd(
              static_cast<size_t>(options.model.num_experts),
              options.synthetic_load_std),
          options.seed ^ kSyntheticStream);
      synth->Reserve(padded_max, options.model.topk);
    }

    completed.reserve(static_cast<size_t>(bounds.expected_requests));
    samples.queue_waits.reserve(static_cast<size_t>(bounds.expected_requests));
    samples.ttfts.reserve(static_cast<size_t>(bounds.expected_requests));
    samples.e2es.reserve(static_cast<size_t>(bounds.expected_requests));
    itl_counts.reserve(static_cast<size_t>(bounds.expected_requests));
    samples.itls.reserve(static_cast<size_t>(bounds.expected_tokens));
  }

  AdmissionQueue queue;
  ContinuousBatcher batcher;
  // Slot -> live request (pool-owned; nullptr once retired/cancelled).
  util::FixedPool<LiveRequest> pool;
  std::vector<LiveRequest*> by_slot;

  // Persistent iteration workspaces (capacity reused every StepIteration).
  BatchPlan plan;
  std::vector<LiveRequest*> live;  // plan.entries[e] -> its live request
  std::vector<int64_t> rows;       // plan.entries[e] -> global row offset
  std::vector<int64_t> finished;
  Tensor global;  // gathered (padded, N) token matrix
  GateScratch gate_scratch;
  MoeWorkload workload;
  LayerExecution ex;

  // Adaptation plane. The tracker is constructed even when adaptation is
  // disabled (cheap; Observe is then never called). `synth` exists only in
  // kSynthetic routing mode.
  HotExpertTracker tracker;
  std::vector<int64_t> expert_loads;  // per-iteration EWMA input
  std::optional<SyntheticRouter> synth;
  int64_t promotions = 0;
  int64_t retirements = 0;
  int64_t replicated_rows = 0;

  std::vector<RequestRecord> completed;  // retirement order
  LatencySamples samples;
  // itl_counts[i] = number of itl samples request completed[i] contributed
  // (aligned with `completed`), so the cluster can slice each record's
  // samples out of `samples.itls`.
  std::vector<int64_t> itl_counts;
  int64_t offered = 0;
  int64_t shed = 0;
  int64_t iterations = 0;
  int64_t batched_tokens = 0;
  int64_t padding_tokens = 0;
  // Telemetry delta baselines: the executor's memo and heap-integrity totals
  // accumulate across runs (the serving heap persists in PrepareServing
  // state), so the per-iteration counter updates publish deltas against the
  // last sample.
  // Baselined by BeginRun, advanced by RecordIterationTelemetry.
  uint64_t prev_profile_hits = 0;
  uint64_t prev_profile_misses = 0;
  uint64_t prev_rows_verified = 0;
  uint64_t prev_rows_corrupted = 0;
  int64_t prev_promotions = 0;
  int64_t prev_retirements = 0;
  int64_t prev_replicated_rows = 0;
  // Remaining (not yet executed) tokens of the batcher's live requests;
  // together with queue.queued_tokens() this is the replica's load signal.
  int64_t batcher_tokens = 0;
  bool wedge_next = false;
  bool corrupt_next = false;
};

MoeServer::MoeServer(ServeOptions options, ClusterSpec cluster)
    : options_(std::move(options)),
      cluster_(std::move(cluster)),
      weights_(MakeWeights(options_)),
      sharded_weights_(std::make_shared<ShardedExpertWeights>(
          *weights_, options_.parallel.tp)),
      gate_(MakeGateWeight(options_)),
      executor_(MakeExecutorOptions(options_)),
      telemetry_(options_.telemetry) {
  COMET_CHECK_EQ(cluster_.world_size, options_.parallel.world())
      << "cluster and serving parallel config disagree";
  COMET_CHECK_GT(options_.token_budget, 0);
  COMET_CHECK_GE(options_.max_active, 0);
  COMET_CHECK_GE(options_.host_overhead_us, 0.0);
  COMET_CHECK_GT(options_.signal_wait_timeout_ms, 0)
      << "a non-positive wedge fail-fast bound cannot detect a dead producer";
  COMET_CHECK_GT(options_.granularity, 0)
      << "granularity is the serving executor's rows-per-chunk tile_m";
  options_.adaptation.Validate();
  COMET_CHECK_GE(options_.synthetic_load_std, 0.0);
  COMET_CHECK_GE(options_.drift_period_us, 0.0);
  if (options_.routing == ServeRoutingMode::kGate) {
    // Loud misconfiguration: synthetic knobs silently ignored would read as
    // "skew has no effect".
    COMET_CHECK_EQ(options_.synthetic_load_std, 0.0)
        << "synthetic_load_std requires routing == ServeRoutingMode::kSynthetic";
    COMET_CHECK_EQ(options_.drift_period_us, 0.0)
        << "drift_period_us requires routing == ServeRoutingMode::kSynthetic";
  }
  // Trips the model/parallel divisibility checks now, not at the first
  // batch, and preallocates the executor's serving workspaces (heap
  // buffers, rank threads, per-rank schedule/simulation scratch) at the
  // largest batch this server can pack.
  const Placement max_placement(options_.model, options_.parallel,
                                MaxPaddedTokens(options_));
  executor_.PrepareServing(max_placement, cluster_);
}

MoeServer::~MoeServer() = default;

void MoeServer::BuildBatchWorkloadInto(const BatchPlan& plan,
                                       const std::vector<LiveRequest*>& live,
                                       double now, RunState& run,
                                       int64_t* padding) {
  const ModelConfig& model = options_.model;
  const int64_t n_embed = model.embedding;
  const int ep = options_.parallel.ep;
  const int64_t total = plan.TotalTokens();
  COMET_CHECK_GT(total, 0);
  const int64_t padded = (total + ep - 1) / ep * ep;
  *padding = padded - total;

  // Gather every entry's rows into the persistent global token matrix; EP
  // padding rows are zeroed (representable at every dtype, routed by the
  // gate like any other token -- real serving pads exactly like this).
  Tensor& global = run.global;
  global.ResetFormat2D(padded, n_embed, options_.dtype);
  global.FillZeroRows(total, padded);
  run.rows.clear();
  int64_t offset = 0;
  for (size_t e = 0; e < plan.entries.size(); ++e) {
    const BatchEntry& entry = plan.entries[e];
    run.rows.push_back(offset);
    if (entry.decode) {
      COMET_CHECK_EQ(entry.num_tokens, 1);
      COMET_CHECK_EQ(static_cast<int64_t>(live[e]->decode_input.size()),
                     n_embed)
          << "decode step scheduled before its input row exists";
      global.SetRow(offset, live[e]->decode_input);
    } else {
      for (int64_t i = 0; i < entry.num_tokens; ++i) {
        global.SetRow(offset + i, live[e]->prompt.row(entry.start_pos + i));
      }
    }
    offset += entry.num_tokens;
  }

  // Re-point the persistent workload at this iteration's shape. Each of
  // these is the in-place, bit-identical twin of the construct-from-scratch
  // path (Placement ctor / GateNetwork::Route / RoutePlan ctor).
  MoeWorkload& w = run.workload;
  w.placement.ResetTotalTokens(padded);
  if (options_.routing == ServeRoutingMode::kSynthetic) {
    // Drift shift is a pure function of simulated time; applied after
    // sampling, so the rng stream is consumed identically at every phase.
    int64_t shift = 0;
    if (options_.drift_period_us > 0.0) {
      shift = static_cast<int64_t>(now / options_.drift_period_us) %
              options_.model.num_experts;
    }
    run.synth->RouteInto(padded, model.topk, shift, &w.routing);
  } else {
    gate_.RouteInto(global, model.topk, run.gate_scratch, &w.routing);
  }

  if (options_.adaptation.enabled) {
    // Close the adaptation loop: this iteration's expert loads update the
    // EWMA; promote/retire decisions apply to the executor (weight slab
    // copies) before the plan is rebuilt against the current replica set.
    // Every decision is a pure function of the seeded routing stream --
    // never wall-clock -- so adapted runs stay bit-deterministic.
    w.routing.ExpertLoadsInto(options_.model.num_experts, &run.expert_loads);
    if (run.tracker.Observe(run.expert_loads) > 0) {
      for (const HotExpertTracker::Event& ev : run.tracker.events()) {
        if (ev.promote) {
          executor_.PromoteReplica(ev.slot, ev.expert, ev.ep_group,
                                   w.placement, *sharded_weights_);
          ++run.promotions;
        } else {
          executor_.RetireReplica(ev.slot);
          ++run.retirements;
        }
        if (telemetry_.enabled()) {
          telemetry_.spans().Record(
              ev.promote ? obs::SpanKind::kPromote
                         : obs::SpanKind::kRetireReplica,
              now, now, static_cast<uint64_t>(ev.expert),
              static_cast<double>(ev.slot));
        }
      }
      // Live re-tune: cached division points were profiled against the old
      // replica layout (ProfileKey does not encode replicas); flush them so
      // each batch shape re-profiles against the plan it will execute.
      executor_.InvalidateBatchProfiles();
    }
    w.plan.Rebuild(w.placement, w.routing, run.tracker.replicas());
    run.replicated_rows += w.plan.ReplicaRows();
  } else {
    w.plan.Rebuild(w.placement, w.routing);
  }

  const int64_t per_group = w.placement.tokens_per_group();
  for (int g = 0; g < ep; ++g) {
    Tensor& t = w.inputs[static_cast<size_t>(g)];
    t.ResetFormat2D(per_group, n_embed, options_.dtype);
    for (int64_t r = 0; r < per_group; ++r) {
      t.SetRow(r, global.row(static_cast<int64_t>(g) * per_group + r));
    }
  }
}

void MoeServer::BeginRun(RunBounds bounds) {
  if (run_ != nullptr) {
    // Start from the empty replica layout a fresh server has: free the slots
    // the previous run left promoted, and drop the division points profiled
    // against them. A run that ended unreplicated keeps its profiles.
    bool retired = false;
    const auto replicas = run_->tracker.replicas();
    for (size_t slot = 0; slot < replicas.size(); ++slot) {
      if (replicas[slot].expert >= 0) {
        executor_.RetireReplica(static_cast<int>(slot));
        retired = true;
      }
    }
    if (retired) {
      executor_.InvalidateBatchProfiles();
    }
  }
  run_ = std::make_unique<RunState>(options_, weights_, sharded_weights_,
                                    bounds);
  telemetry_.BeginRun();
  // Baseline the cumulative executor/heap totals so this run's first delta
  // doesn't inherit a previous run's counts.
  const CometExecutor::ServingHeapStats heap = executor_.serving_heap_stats();
  run_->prev_profile_hits = executor_.profile_memo_hits();
  run_->prev_profile_misses = executor_.profile_memo_misses();
  run_->prev_rows_verified = heap.rows_verified;
  run_->prev_rows_corrupted = heap.rows_corrupted;
}

bool MoeServer::Offer(const RequestSpec& spec) {
  COMET_CHECK(run_ != nullptr) << "Offer before BeginRun";
  ++run_->offered;
  const bool admitted = run_->queue.TryPush(spec);
  if (!admitted) {
    ++run_->shed;
  }
  if (telemetry_.enabled()) {
    obs::ServerMetrics& m = telemetry_.metrics();
    m.requests_offered->Increment();
    if (!admitted) {
      m.requests_shed->Increment();
    }
    const double t = spec.arrival_us;
    telemetry_.spans().Record(
        admitted ? obs::SpanKind::kAdmit : obs::SpanKind::kShed, t, t,
        static_cast<uint64_t>(spec.id),
        static_cast<double>(spec.TotalTokens()));
  }
  return admitted;
}

bool MoeServer::HasWork() const {
  return run_ != nullptr &&
         (run_->queue.size() > 0 || run_->batcher.HasLiveWork());
}

int64_t MoeServer::LoadTokens() const {
  if (run_ == nullptr) {
    return 0;
  }
  return run_->queue.queued_tokens() + run_->batcher_tokens;
}

void MoeServer::WedgeNextIteration() {
  COMET_CHECK(run_ != nullptr) << "WedgeNextIteration before BeginRun";
  run_->wedge_next = true;
}

void MoeServer::CorruptNextIteration() {
  COMET_CHECK(run_ != nullptr) << "CorruptNextIteration before BeginRun";
  run_->corrupt_next = true;
}

MoeServer::CancelResult MoeServer::CancelRequest(int64_t id) {
  COMET_CHECK(run_ != nullptr) << "CancelRequest before BeginRun";
  RunState& run = *run_;
  CancelResult result;
  // Live in the batcher (possibly mid-execution)?
  for (size_t slot = 0; slot < run.by_slot.size(); ++slot) {
    LiveRequest* lr = run.by_slot[slot];
    if (lr == nullptr || lr->spec.id != id) {
      continue;
    }
    result.found = true;
    result.executed_tokens = lr->executed_tokens;
    run.batcher_tokens -= lr->spec.TotalTokens() - lr->executed_tokens;
    run.batcher.Cancel(static_cast<int64_t>(slot));
    run.pool.Release(lr);
    run.by_slot[slot] = nullptr;
    return result;
  }
  // Still queued?
  if (run.queue.Remove(id).has_value()) {
    result.found = true;
    return result;
  }
  // Completed but not yet observed by the cluster: the race a real hedging
  // layer has to handle -- both copies finished, the cluster picked the
  // other as winner. The record stays; the cluster skips it at harvest. It
  // completed after everything the cluster observed, so scan newest first.
  for (size_t i = run.completed.size(); i-- > 0;) {
    const RequestRecord& rec = run.completed[i];
    if (rec.id == id) {
      result.found = true;
      result.was_completed = true;
      result.executed_tokens = rec.prompt_tokens + rec.decode_tokens;
      return result;
    }
  }
  return result;
}

bool MoeServer::RequestStarted(int64_t id) const {
  COMET_CHECK(run_ != nullptr) << "RequestStarted before BeginRun";
  const RunState& run = *run_;
  for (const LiveRequest* lr : run.by_slot) {
    if (lr != nullptr && lr->spec.id == id) {
      return lr->first_scheduled_us >= 0.0;
    }
  }
  // A completion the cluster has not observed yet is among the newest.
  for (size_t i = run.completed.size(); i-- > 0;) {
    if (run.completed[i].id == id) {
      return true;
    }
  }
  return false;
}

std::vector<RequestSpec> MoeServer::DrainInFlight() {
  COMET_CHECK(run_ != nullptr) << "DrainInFlight before BeginRun";
  std::vector<RequestSpec> in_flight;
  // Batcher live requests first (they were admitted earlier), slot order.
  for (LiveRequest*& lr : run_->by_slot) {
    if (lr != nullptr) {
      in_flight.push_back(lr->spec);
      run_->pool.Release(lr);
      lr = nullptr;
    }
  }
  // Then the queue, FIFO.
  while (const auto spec = run_->queue.TryPop()) {
    in_flight.push_back(*spec);
  }
  run_->batcher_tokens = 0;
  return in_flight;
}

RunView MoeServer::View() const {
  COMET_CHECK(run_ != nullptr) << "View before BeginRun";
  RunView view;
  view.completed = run_->completed;
  view.itls = run_->samples.itls;
  view.itl_counts = run_->itl_counts;
  view.iterations = run_->iterations;
  view.batched_tokens = run_->batched_tokens;
  view.padding_tokens = run_->padding_tokens;
  view.promotions = run_->promotions;
  view.retirements = run_->retirements;
  view.replicated_rows = run_->replicated_rows;
  return view;
}

bool MoeServer::StepIteration(double now, double* end_us) {
  COMET_CHECK(run_ != nullptr) << "StepIteration before BeginRun";
  RunState& run = *run_;

  if (run.wedge_next) {
    // Fault injection: park in the genuine fail-fast signal wait. No
    // producer ever raises this signal, so the wait throws CheckError after
    // signal_wait_timeout_ms -- the same path a wedged EP rank takes.
    SymmetricHeap wedge_heap(1);
    const auto sig = wedge_heap.AllocateSignals("serve-wedged-rank", 1);
    wedge_heap.WaitUntilSignalGe(sig, /*rank=*/0, /*index=*/0, /*target=*/1,
                                 options_.signal_wait_timeout_ms);
    COMET_CHECK(false) << "wedged signal wait returned";  // unreachable
  }

  // The batcher drains the queue while it has room (max_active is the
  // backpressure bound that lets the queue fill under overload). Admission
  // pulls a pooled LiveRequest -- no heap traffic once the pool's internal
  // capacities are warm.
  const int64_t n_embed = options_.model.embedding;
  while (run.batcher.CanAdmit()) {
    const std::optional<RequestSpec> spec = run.queue.TryPop();
    if (!spec.has_value()) {
      break;
    }
    const int64_t slot = run.batcher.Admit(*spec);
    LiveRequest* live = run.pool.Acquire();
    live->Reset(*spec, n_embed, options_.dtype);
    if (static_cast<size_t>(slot) >= run.by_slot.size()) {
      run.by_slot.resize(static_cast<size_t>(slot) + 1);
    }
    run.by_slot[static_cast<size_t>(slot)] = live;
    run.batcher_tokens += spec->TotalTokens();
  }

  // Pack one iteration into the persistent plan.
  run.batcher.PackInto(&run.plan);
  const BatchPlan& plan = run.plan;
  if (plan.empty()) {
    return false;
  }

  run.live.resize(plan.entries.size());
  for (size_t e = 0; e < plan.entries.size(); ++e) {
    run.live[e] = run.by_slot[static_cast<size_t>(plan.entries[e].slot)];
    if (run.live[e]->first_scheduled_us < 0.0) {
      run.live[e]->first_scheduled_us = now;
    }
  }

  // One-shot corruption fault: arm the executor's link-corruption injector
  // for this iteration only, with checksums forced on so the flip is
  // DETECTED (CheckError out of RunBatchInto below) rather than served. The
  // injector seed is fixed per server, so the corrupted (buffer, rank, row)
  // is reproducible at any thread count. Consumed only when an iteration
  // actually executes -- an idle corrupt-armed replica stays armed.
  const bool corrupt = run.corrupt_next;
  run.corrupt_next = false;
  executor_.SetTransportIntegrity(options_.verify_transport || corrupt,
                                  corrupt ? 1.0 : 0.0,
                                  options_.seed ^ kCorruptStream);

  // One executor iteration: real numerics + simulated duration, through the
  // persistent workload/execution workspaces.
  int64_t padding = 0;
  BuildBatchWorkloadInto(plan, run.live, now, run, &padding);
  executor_.RunBatchInto(run.workload, cluster_, ExecMode::kFunctional,
                         &run.ex);
  const LayerExecution& ex = run.ex;
  const double end = now + options_.host_overhead_us + ex.duration_us;
  ++run.iterations;
  run.batched_tokens += plan.TotalTokens();
  run.padding_tokens += padding;
  run.batcher_tokens -= plan.TotalTokens();

  // Harvest: digest outputs, emit token events, build next decode rows.
  const int64_t per_group = run.workload.placement.tokens_per_group();
  const auto output_row = [&](int64_t global_row) {
    return ex.outputs[static_cast<size_t>(global_row / per_group)].row(
        global_row % per_group);
  };
  for (size_t e = 0; e < plan.entries.size(); ++e) {
    const BatchEntry& entry = plan.entries[e];
    LiveRequest& lr = *run.live[e];
    lr.executed_tokens += entry.num_tokens;
    for (int64_t i = 0; i < entry.num_tokens; ++i) {
      lr.digest = Fnv1aAddFloats(lr.digest, output_row(run.rows[e] + i));
    }
    const auto last_row = output_row(run.rows[e] + entry.num_tokens - 1);
    const bool completes_prefill =
        !entry.decode &&
        entry.start_pos + entry.num_tokens == lr.spec.prompt_tokens;
    if (completes_prefill) {
      // The iteration that finishes the prompt yields the first token.
      lr.first_token_us = end;
      lr.last_token_us = end;
    } else if (entry.decode) {
      lr.itl_samples.push_back(end - lr.last_token_us);
      lr.last_token_us = end;
    }
    const int64_t decode_done_after =
        entry.decode ? entry.start_pos - lr.spec.prompt_tokens + 1 : 0;
    if ((completes_prefill || entry.decode) &&
        decode_done_after < lr.spec.decode_tokens) {
      // Autoregressive feedback: the next decode input is the last output
      // row plus a unit-variance "sampled token" perturbation (keeps
      // magnitudes ~1 across arbitrarily long decodes), rounded to the
      // serve dtype like any materialized token.
      lr.decode_input.resize(static_cast<size_t>(n_embed));
      lr.decode_rng.FillNormal(lr.decode_input, 0.0, 1.0);
      for (int64_t n = 0; n < n_embed; ++n) {
        lr.decode_input[static_cast<size_t>(n)] +=
            last_row[static_cast<size_t>(n)];
      }
      QuantizeSpan(lr.decode_input, options_.dtype);
    }
  }

  // Retire finished requests back to the pool.
  const bool tel = telemetry_.enabled();
  run.batcher.CompleteInto(plan, &run.finished);
  for (const int64_t slot : run.finished) {
    LiveRequest& lr = *run.by_slot[static_cast<size_t>(slot)];
    RequestRecord rec;
    rec.id = lr.spec.id;
    rec.prompt_tokens = lr.spec.prompt_tokens;
    rec.decode_tokens = lr.spec.decode_tokens;
    rec.arrival_us = lr.spec.arrival_us;
    rec.queue_wait_us = lr.first_scheduled_us - lr.spec.arrival_us;
    rec.ttft_us = lr.first_token_us - lr.spec.arrival_us;
    rec.e2e_us = lr.last_token_us - lr.spec.arrival_us;
    if (!lr.itl_samples.empty()) {
      double sum = 0.0;
      for (double s : lr.itl_samples) {
        sum += s;
      }
      rec.mean_itl_us = sum / static_cast<double>(lr.itl_samples.size());
    }
    rec.output_digest = lr.digest;

    run.samples.queue_waits.push_back(rec.queue_wait_us);
    run.samples.ttfts.push_back(rec.ttft_us);
    run.samples.e2es.push_back(rec.e2e_us);
    run.samples.itls.insert(run.samples.itls.end(), lr.itl_samples.begin(),
                            lr.itl_samples.end());
    run.itl_counts.push_back(static_cast<int64_t>(lr.itl_samples.size()));
    run.completed.push_back(rec);
    if (tel) {
      // Request lifecycle: every timestamp below was stamped from the
      // simulated clock during the run, so recording at retirement loses
      // nothing and keeps the hot path to one pass.
      obs::ServerMetrics& m = telemetry_.metrics();
      obs::SpanRing& spans = telemetry_.spans();
      m.requests_completed->Increment();
      m.queue_wait_us->Observe(rec.queue_wait_us);
      m.ttft_us->Observe(rec.ttft_us);
      m.e2e_us->Observe(rec.e2e_us);
      for (const double s : lr.itl_samples) {
        m.itl_us->Observe(s);
      }
      const uint64_t id = static_cast<uint64_t>(rec.id);
      spans.Record(obs::SpanKind::kRequestQueue, lr.spec.arrival_us,
                   lr.first_scheduled_us, id,
                   static_cast<double>(rec.prompt_tokens));
      spans.Record(obs::SpanKind::kRequestPrefill, lr.first_scheduled_us,
                   lr.first_token_us, id,
                   static_cast<double>(rec.prompt_tokens));
      if (lr.last_token_us > lr.first_token_us) {
        spans.Record(obs::SpanKind::kRequestDecode, lr.first_token_us,
                     lr.last_token_us, id,
                     static_cast<double>(rec.decode_tokens));
      }
      spans.Record(obs::SpanKind::kComplete, lr.last_token_us,
                   lr.last_token_us, id, 0.0);
    }
    run.pool.Release(&lr);
    run.by_slot[static_cast<size_t>(slot)] = nullptr;
  }

  if (tel) {
    RecordIterationTelemetry(run, now, end, plan.TotalTokens(), padding);
  }

  *end_us = end;
  return true;
}

void MoeServer::RecordIterationTelemetry(RunState& run, double now, double end,
                                         int64_t packed, int64_t padding) {
  obs::ServerMetrics& m = telemetry_.metrics();
  obs::SpanRing& spans = telemetry_.spans();
  m.iterations->Increment();
  m.batched_tokens->Add(static_cast<uint64_t>(packed));
  m.padding_tokens->Add(static_cast<uint64_t>(padding));
  m.queue_depth->Set(static_cast<double>(run.queue.size()));
  m.queue_tokens->Set(static_cast<double>(run.queue.queued_tokens()));
  m.batcher_live->Set(static_cast<double>(run.batcher.live_count()));
  m.batch_fill->Set(static_cast<double>(packed) /
                    static_cast<double>(options_.token_budget));
  m.batch_tokens_hist->Observe(static_cast<double>(packed));
  m.iteration_us->Observe(end - now);

  // The executor's memo and heap-integrity totals are cumulative across
  // runs; publish this iteration's deltas.
  const uint64_t hits = executor_.profile_memo_hits();
  const uint64_t misses = executor_.profile_memo_misses();
  m.profile_hits->Add(hits - run.prev_profile_hits);
  m.profile_misses->Add(misses - run.prev_profile_misses);
  run.prev_profile_hits = hits;
  run.prev_profile_misses = misses;
  const CometExecutor::ServingHeapStats heap = executor_.serving_heap_stats();
  // Unlike the other heap totals, traffic restarts at zero with every layer
  // run, so the heap already holds this iteration's bytes. They are an
  // integer-valued double (a sum of byte counts), so the cast is exact.
  m.heap_traffic_bytes->Add(static_cast<uint64_t>(heap.total_traffic_bytes));
  m.heap_rows_verified->Add(heap.rows_verified - run.prev_rows_verified);
  m.heap_rows_corrupted->Add(heap.rows_corrupted - run.prev_rows_corrupted);
  run.prev_rows_verified = heap.rows_verified;
  run.prev_rows_corrupted = heap.rows_corrupted;

  m.promotions->Add(
      static_cast<uint64_t>(run.promotions - run.prev_promotions));
  m.retirements->Add(
      static_cast<uint64_t>(run.retirements - run.prev_retirements));
  m.replicated_rows->Add(
      static_cast<uint64_t>(run.replicated_rows - run.prev_replicated_rows));
  run.prev_promotions = run.promotions;
  run.prev_retirements = run.retirements;
  run.prev_replicated_rows = run.replicated_rows;
  m.active_replicas->Set(static_cast<double>(run.tracker.active_replicas()));

  // Iteration span plus per-phase envelopes of the executor's critical-rank
  // timeline. Timeline intervals are iteration-relative (starting at 0);
  // the serving loop's own host_overhead_us precedes them on the clock.
  const uint64_t iter_id = static_cast<uint64_t>(run.iterations);
  spans.Record(obs::SpanKind::kIteration, now, end, iter_id,
               static_cast<double>(packed));
  constexpr int kPhases = 7;  // OpCategory kGating..kHost
  constexpr obs::SpanKind kPhaseFor[kPhases] = {
      obs::SpanKind::kPhaseGating,     obs::SpanKind::kPhaseLayer0Comm,
      obs::SpanKind::kPhaseLayer0Comp, obs::SpanKind::kPhaseActivation,
      obs::SpanKind::kPhaseLayer1Comp, obs::SpanKind::kPhaseLayer1Comm,
      obs::SpanKind::kPhaseHost};
  double lo[kPhases], hi[kPhases];
  bool any[kPhases] = {};
  for (const TimeInterval& iv : run.ex.timeline.intervals()) {
    const int c = static_cast<int>(iv.category);
    if (c >= kPhases) {
      continue;  // kAttention/kOther never appear in serving batches
    }
    if (!any[c]) {
      any[c] = true;
      lo[c] = iv.start_us;
      hi[c] = iv.end_us;
    } else {
      lo[c] = std::min(lo[c], iv.start_us);
      hi[c] = std::max(hi[c], iv.end_us);
    }
  }
  const double shift = now + options_.host_overhead_us;
  for (int c = 0; c < kPhases; ++c) {
    if (any[c]) {
      spans.Record(kPhaseFor[c], shift + lo[c], shift + hi[c], iter_id, 0.0);
    }
  }
}

obs::ReplicaTelemetry MoeServer::TelemetryView() const {
  obs::ReplicaTelemetry view;
  view.name = "comet-serve";
  view.replica = 0;
  view.live = &telemetry_.spans();
  view.registry = &telemetry_.registry();
  return view;
}

std::string MoeServer::ExportChromeTrace() const {
  const obs::ReplicaTelemetry view = TelemetryView();
  return obs::ToChromeTraceJson({&view, 1});
}

std::string MoeServer::ExportPrometheusText() const {
  const obs::ReplicaTelemetry view = TelemetryView();
  return obs::ToPrometheusText({&view, 1});
}

std::string MoeServer::ExportTelemetryJsonl() const {
  const obs::ReplicaTelemetry view = TelemetryView();
  return obs::ToJsonl({&view, 1});
}

ServeReport MoeServer::BuildReport(double sim_duration_us) const {
  COMET_CHECK(run_ != nullptr) << "BuildReport before BeginRun";
  const RunState& run = *run_;

  ServeReport report;
  report.offered = run.offered;
  report.shed = run.shed;
  report.iterations = run.iterations;
  report.batched_tokens = run.batched_tokens;
  report.padding_tokens = run.padding_tokens;
  report.promotions = run.promotions;
  report.retirements = run.retirements;
  report.replicated_rows = run.replicated_rows;
  report.sim_duration_us = sim_duration_us;
  if (sim_duration_us > 0.0) {
    report.throughput_tokens_per_s =
        static_cast<double>(run.batched_tokens) / (sim_duration_us / 1e6);
  }

  report.completed = run.completed;
  FinishReport(run.samples, options_.slo, run.shed, &report);
  return report;
}

ServeReport MoeServer::Serve(const std::vector<RequestSpec>& arrivals) {
  RunBounds bounds;
  bounds.expected_requests = static_cast<int64_t>(arrivals.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    if (i > 0) {
      COMET_CHECK_GE(arrivals[i].arrival_us, arrivals[i - 1].arrival_us)
          << "arrivals must be sorted by arrival_us";
    }
    bounds.expected_tokens += arrivals[i].TotalTokens();
    bounds.max_prompt_tokens =
        std::max(bounds.max_prompt_tokens, arrivals[i].prompt_tokens);
    bounds.max_decode_tokens =
        std::max(bounds.max_decode_tokens, arrivals[i].decode_tokens);
  }

  BeginRun(bounds);
  double now = 0.0;
  size_t next_arrival = 0;
  while (true) {
    // Open-loop arrivals up to the current simulated time hit the bounded
    // queue; overload sheds here, per policy.
    while (next_arrival < arrivals.size() &&
           arrivals[next_arrival].arrival_us <= now) {
      Offer(arrivals[next_arrival]);
      ++next_arrival;
    }
    double end = 0.0;
    if (StepIteration(now, &end)) {
      now = end;
      continue;
    }
    if (next_arrival < arrivals.size()) {
      // Idle: jump the clock to the next arrival.
      now = std::max(now, arrivals[next_arrival].arrival_us);
      continue;
    }
    break;  // no live work, no future arrivals: done
  }
  return BuildReport(now);
}

ServeReport MoeServer::Serve(LoadGenerator& loadgen) {
  const std::vector<RequestSpec> arrivals = loadgen.GenerateAll();
  return Serve(arrivals);
}

}  // namespace comet
