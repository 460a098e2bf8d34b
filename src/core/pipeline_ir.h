// A small dataflow IR for shared-tensor dependency resolving.
//
// The paper's §3.1 analysis is stated for MoE's two pipelines; its
// conclusion proposes a "fine-grained pipelined programming model" that
// compilers could target. This module is that generalization: operators
// declare HOW they touch each axis of every tensor they read or write
// (parallel / reduce / gather / broadcast), and an analysis pass derives,
// for every producer-consumer pair that crosses the computation <->
// communication boundary, the legal decomposition dimensions and the
// reschedule strategy -- recovering exactly §3.1's conclusions (layer0
// decomposes along M with source-rank sorting, layer1 along N with
// column-panel-major execution) from first principles, and extending them to
// the backward pipelines and to arbitrary operator graphs.
//
// Rule (paper §3.1.1): a shared tensor may be decomposed along an axis iff
// EVERY consumer treats elements along that axis as independent (roles
// kParallel or kGather). The producer's role on the chosen axis decides how
// early sub-tensors become available and hence the reschedule hint.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace comet {

// The axis of a shared tensor its sub-tensors are cut along.
enum class DecomposeDim {
  kM,  // rows (token dimension)
  kN,  // columns (embedding / hidden dimension)
};

std::string DecomposeDimName(DecomposeDim dim);

// How an operator relates the elements of one tensor axis.
enum class AxisRole {
  kParallel,   // elements independent (may run / arrive one by one)
  kReduce,     // reduction along the axis (all elements needed together)
  kGather,     // indexed access; independent but data-dependent placement
  kBroadcast,  // every output element reads the whole axis
};

// Whether an op is compute (GEMM, activation, reduce) or communication
// (dispatch, all-to-all, reduce-scatter). Overlappable pipelines are the
// edges where this domain changes.
enum class OpDomain {
  kCompute,
  kCommunication,
};

// One operand: which tensor, and the op's role on each of its two axes.
struct TensorUse {
  std::string tensor;
  AxisRole rows = AxisRole::kParallel;
  AxisRole cols = AxisRole::kParallel;
};

struct PipelineOp {
  std::string name;
  OpDomain domain = OpDomain::kCompute;
  std::vector<TensorUse> reads;
  std::vector<TensorUse> writes;
};

struct TensorDecl {
  std::string name;
  int64_t rows = 0;
  int64_t cols = 0;
};

// A validated operator graph. Tensors are written by at most one op
// (single-assignment); every use must reference a declared tensor.
class PipelineGraph {
 public:
  PipelineGraph& AddTensor(std::string name, int64_t rows, int64_t cols);
  PipelineGraph& AddOp(PipelineOp op);

  const std::vector<TensorDecl>& tensors() const { return tensors_; }
  const std::vector<PipelineOp>& ops() const { return ops_; }

  bool HasTensor(const std::string& name) const;
  const TensorDecl& Tensor(const std::string& name) const;

  // Producing op of `tensor` (nullptr for graph inputs).
  const PipelineOp* Producer(const std::string& tensor) const;
  // All ops reading `tensor`.
  std::vector<const PipelineOp*> Consumers(const std::string& tensor) const;

  // Structural invariants: all uses declared, single assignment, no op both
  // reads and writes one tensor. Throws CheckError on violation.
  void Validate() const;

 private:
  std::vector<TensorDecl> tensors_;
  std::vector<PipelineOp> ops_;
};

// How the decomposed sub-tensors should be (re)ordered for overlap.
enum class RescheduleHint {
  // Communication produces the tensor: order consumer tiles by data arrival
  // (locals first, then peers in ring order) -- §3.1.2 / Figure 5.
  kArrivalOrder,
  // Computation produces the tensor for a communicating consumer: emit
  // sub-tensors of the chosen axis across ALL groups before moving to the
  // next (column-panel-major) -- §3.1.2 / Figure 6.
  kPanelMajor,
  // Producer and consumer in the same domain: no cross-domain overlap to
  // orchestrate.
  kNone,
};

std::string RescheduleHintName(RescheduleHint hint);

// The analysis result for one shared tensor.
struct ResolvedPipeline {
  std::string shared_tensor;
  std::string producer;
  std::vector<std::string> consumers;
  // Axes along which EVERY consumer is independent, in {kM, kN} order.
  std::vector<DecomposeDim> legal;
  // The chosen axis (unset when `legal` is empty: no fine-grained overlap
  // possible for this operator pair).
  std::optional<DecomposeDim> chosen;
  RescheduleHint hint = RescheduleHint::kNone;
  // True if producer and consumers span compute and communication (the
  // pipelines worth overlapping).
  bool crosses_domains = false;
};

// Analyzes every produced-and-consumed tensor of the graph. Order follows
// tensor declaration order.
std::vector<ResolvedPipeline> ResolvePipelines(const PipelineGraph& graph);

// The subset of ResolvePipelines that crosses the compute/communication
// boundary -- MoE has exactly two per direction (forward and backward).
std::vector<ResolvedPipeline> ResolveOverlapPipelines(
    const PipelineGraph& graph);

// Throws CheckError unless `graph` has exactly one overlap pipeline, and it
// decomposes along `dim` with reschedule `hint`. The executors assert their
// schedules' assumptions through this.
void CheckOverlapPipeline(const PipelineGraph& graph, DecomposeDim dim,
                          RescheduleHint hint);

// Human-readable multi-line summary of an analysis.
std::string DescribePipelines(const std::vector<ResolvedPipeline>& pipelines);

// ---- canonical MoE graphs ----------------------------------------------------

// Forward layer0: dispatch(comm) -> shared A -> GroupGEMM -> H -> act -> Z.
PipelineGraph MoeLayer0Graph(int64_t rows, int64_t embedding, int64_t hidden);
// Forward layer1: GroupGEMM -> shared Y -> topk-reduce + all-to-all(comm).
PipelineGraph MoeLayer1Graph(int64_t rows, int64_t embedding, int64_t hidden);
// Backward kernel A: grad dispatch(comm) -> shared dY -> dgrad1 GEMM -> dZ.
PipelineGraph MoeBackwardKernelAGraph(int64_t rows, int64_t embedding,
                                      int64_t hidden);
// Backward kernel B: dgrad0 GEMM -> shared dA -> undispatch(comm).
PipelineGraph MoeBackwardKernelBGraph(int64_t rows, int64_t embedding,
                                      int64_t hidden);

}  // namespace comet
