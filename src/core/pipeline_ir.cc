#include "core/pipeline_ir.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace comet {
namespace {

bool RoleIndependent(AxisRole role) {
  return role == AxisRole::kParallel || role == AxisRole::kGather;
}

AxisRole UseRole(const TensorUse& use, DecomposeDim dim) {
  return dim == DecomposeDim::kM ? use.rows : use.cols;
}

// The consumer's role on `dim`, for the read of `tensor` inside `op`.
const TensorUse& FindRead(const PipelineOp& op, const std::string& tensor) {
  for (const TensorUse& use : op.reads) {
    if (use.tensor == tensor) {
      return use;
    }
  }
  COMET_CHECK(false) << "op " << op.name << " does not read " << tensor;
  return op.reads.front();  // unreachable
}

}  // namespace

std::string DecomposeDimName(DecomposeDim dim) {
  return dim == DecomposeDim::kM ? "M" : "N";
}

std::string RescheduleHintName(RescheduleHint hint) {
  switch (hint) {
    case RescheduleHint::kArrivalOrder:
      return "arrival-order";
    case RescheduleHint::kPanelMajor:
      return "panel-major";
    case RescheduleHint::kNone:
      return "none";
  }
  return "?";
}

PipelineGraph& PipelineGraph::AddTensor(std::string name, int64_t rows,
                                        int64_t cols) {
  COMET_CHECK(!HasTensor(name)) << "duplicate tensor " << name;
  COMET_CHECK_GT(rows, 0);
  COMET_CHECK_GT(cols, 0);
  tensors_.push_back(TensorDecl{std::move(name), rows, cols});
  return *this;
}

PipelineGraph& PipelineGraph::AddOp(PipelineOp op) {
  COMET_CHECK(!op.name.empty()) << "op needs a name";
  ops_.push_back(std::move(op));
  return *this;
}

bool PipelineGraph::HasTensor(const std::string& name) const {
  return std::any_of(tensors_.begin(), tensors_.end(),
                     [&](const TensorDecl& t) { return t.name == name; });
}

const TensorDecl& PipelineGraph::Tensor(const std::string& name) const {
  for (const TensorDecl& t : tensors_) {
    if (t.name == name) {
      return t;
    }
  }
  COMET_CHECK(false) << "unknown tensor " << name;
  return tensors_.front();  // unreachable
}

const PipelineOp* PipelineGraph::Producer(const std::string& tensor) const {
  for (const PipelineOp& op : ops_) {
    for (const TensorUse& use : op.writes) {
      if (use.tensor == tensor) {
        return &op;
      }
    }
  }
  return nullptr;
}

std::vector<const PipelineOp*> PipelineGraph::Consumers(
    const std::string& tensor) const {
  std::vector<const PipelineOp*> consumers;
  for (const PipelineOp& op : ops_) {
    for (const TensorUse& use : op.reads) {
      if (use.tensor == tensor) {
        consumers.push_back(&op);
        break;
      }
    }
  }
  return consumers;
}

void PipelineGraph::Validate() const {
  for (const PipelineOp& op : ops_) {
    for (const TensorUse& use : op.reads) {
      COMET_CHECK(HasTensor(use.tensor))
          << "op " << op.name << " reads undeclared tensor " << use.tensor;
    }
    for (const TensorUse& use : op.writes) {
      COMET_CHECK(HasTensor(use.tensor))
          << "op " << op.name << " writes undeclared tensor " << use.tensor;
      for (const TensorUse& read : op.reads) {
        COMET_CHECK(read.tensor != use.tensor)
            << "op " << op.name << " reads and writes " << use.tensor
            << " (shared tensors are single-assignment)";
      }
    }
  }
  for (const TensorDecl& t : tensors_) {
    int writers = 0;
    for (const PipelineOp& op : ops_) {
      for (const TensorUse& use : op.writes) {
        if (use.tensor == t.name) {
          ++writers;
        }
      }
    }
    COMET_CHECK_LE(writers, 1) << "tensor " << t.name
                               << " written by " << writers << " ops";
  }
}

std::vector<ResolvedPipeline> ResolvePipelines(const PipelineGraph& graph) {
  graph.Validate();
  std::vector<ResolvedPipeline> result;
  for (const TensorDecl& tensor : graph.tensors()) {
    const PipelineOp* producer = graph.Producer(tensor.name);
    const auto consumers = graph.Consumers(tensor.name);
    if (producer == nullptr || consumers.empty()) {
      continue;  // graph input or output, not a shared tensor
    }

    ResolvedPipeline resolved;
    resolved.shared_tensor = tensor.name;
    resolved.producer = producer->name;
    for (const PipelineOp* c : consumers) {
      resolved.consumers.push_back(c->name);
      resolved.crosses_domains |= c->domain != producer->domain;
    }

    // Legal axes: every consumer independent along the axis (§3.1.1).
    for (const DecomposeDim dim : {DecomposeDim::kM, DecomposeDim::kN}) {
      const bool ok = std::all_of(
          consumers.begin(), consumers.end(), [&](const PipelineOp* c) {
            return RoleIndependent(UseRole(FindRead(*c, tensor.name), dim));
          });
      if (ok) {
        resolved.legal.push_back(dim);
      }
    }

    // Chosen axis: prefer one the producer can also emit incrementally, so
    // sub-tensors flow as soon as they are produced; tie-break toward M
    // (token granularity, the unit of data movement -- §2.2.1).
    const TensorUse* produced = nullptr;
    for (const TensorUse& use : producer->writes) {
      if (use.tensor == tensor.name) {
        produced = &use;
      }
    }
    COMET_CHECK(produced != nullptr);
    for (const DecomposeDim dim : resolved.legal) {
      if (RoleIndependent(UseRole(*produced, dim))) {
        resolved.chosen = dim;
        break;
      }
    }
    if (!resolved.chosen.has_value() && !resolved.legal.empty()) {
      resolved.chosen = resolved.legal.front();
    }

    if (resolved.chosen.has_value() && resolved.crosses_domains) {
      resolved.hint = producer->domain == OpDomain::kCommunication
                          ? RescheduleHint::kArrivalOrder
                          : RescheduleHint::kPanelMajor;
    }
    result.push_back(std::move(resolved));
  }
  return result;
}

std::vector<ResolvedPipeline> ResolveOverlapPipelines(
    const PipelineGraph& graph) {
  std::vector<ResolvedPipeline> all = ResolvePipelines(graph);
  std::erase_if(all, [](const ResolvedPipeline& p) {
    return !p.crosses_domains;
  });
  return all;
}

void CheckOverlapPipeline(const PipelineGraph& graph, DecomposeDim dim,
                          RescheduleHint hint) {
  const std::vector<ResolvedPipeline> pipelines =
      ResolveOverlapPipelines(graph);
  COMET_CHECK(pipelines.size() == 1 && pipelines.front().chosen == dim &&
              pipelines.front().hint == hint)
      << "expected one overlap pipeline along " << DecomposeDimName(dim)
      << " (" << RescheduleHintName(hint) << "), resolved:\n"
      << DescribePipelines(pipelines);
}

std::string DescribePipelines(const std::vector<ResolvedPipeline>& pipelines) {
  std::ostringstream os;
  for (const ResolvedPipeline& p : pipelines) {
    os << p.producer << " -> [" << p.shared_tensor << "] -> ";
    for (size_t i = 0; i < p.consumers.size(); ++i) {
      os << (i ? ", " : "") << p.consumers[i];
    }
    os << "\n  legal: ";
    if (p.legal.empty()) {
      os << "(none -- no fine-grained overlap possible)";
    }
    for (size_t i = 0; i < p.legal.size(); ++i) {
      os << (i ? ", " : "") << DecomposeDimName(p.legal[i]);
    }
    if (p.chosen.has_value()) {
      os << "\n  decompose along " << DecomposeDimName(*p.chosen)
         << ", reschedule: " << RescheduleHintName(p.hint);
    }
    os << "\n";
  }
  return os.str();
}

// ---- canonical MoE graphs ----------------------------------------------------

PipelineGraph MoeLayer0Graph(int64_t rows, int64_t embedding, int64_t hidden) {
  PipelineGraph g;
  g.AddTensor("tokens", rows, embedding)
      .AddTensor("A", rows, embedding)
      .AddTensor("H", rows, hidden)
      .AddTensor("Z", rows, hidden);
  // Dispatch routes whole token rows; row placement is gate-dependent.
  g.AddOp({.name = "dispatch",
           .domain = OpDomain::kCommunication,
           .reads = {{"tokens", AxisRole::kGather, AxisRole::kParallel}},
           .writes = {{"A", AxisRole::kGather, AxisRole::kParallel}}});
  // GroupGEMM: rows independent, reduction along the embedding axis.
  g.AddOp({.name = "group_gemm0",
           .domain = OpDomain::kCompute,
           .reads = {{"A", AxisRole::kParallel, AxisRole::kReduce}},
           .writes = {{"H", AxisRole::kParallel, AxisRole::kParallel}}});
  g.AddOp({.name = "activation",
           .domain = OpDomain::kCompute,
           .reads = {{"H", AxisRole::kParallel, AxisRole::kParallel}},
           .writes = {{"Z", AxisRole::kParallel, AxisRole::kParallel}}});
  return g;
}

PipelineGraph MoeLayer1Graph(int64_t rows, int64_t embedding, int64_t hidden) {
  PipelineGraph g;
  g.AddTensor("Z", rows, hidden)
      .AddTensor("Y", rows, embedding)
      .AddTensor("out", rows, embedding);
  g.AddOp({.name = "group_gemm1",
           .domain = OpDomain::kCompute,
           .reads = {{"Z", AxisRole::kParallel, AxisRole::kReduce}},
           .writes = {{"Y", AxisRole::kParallel, AxisRole::kParallel}}});
  // Top-k reduce + all-to-all: reduces GROUPS of rows (the topk partials of
  // each token), so rows are interdependent; columns independent.
  g.AddOp({.name = "topk_reduce_a2a",
           .domain = OpDomain::kCommunication,
           .reads = {{"Y", AxisRole::kReduce, AxisRole::kParallel}},
           .writes = {{"out", AxisRole::kGather, AxisRole::kParallel}}});
  return g;
}

PipelineGraph MoeBackwardKernelAGraph(int64_t rows, int64_t embedding,
                                      int64_t hidden) {
  PipelineGraph g;
  g.AddTensor("dout", rows, embedding)
      .AddTensor("dY", rows, embedding)
      .AddTensor("dZ", rows, hidden);
  g.AddOp({.name = "grad_dispatch",
           .domain = OpDomain::kCommunication,
           .reads = {{"dout", AxisRole::kGather, AxisRole::kParallel}},
           .writes = {{"dY", AxisRole::kGather, AxisRole::kParallel}}});
  g.AddOp({.name = "dgrad1_gemm",
           .domain = OpDomain::kCompute,
           .reads = {{"dY", AxisRole::kParallel, AxisRole::kReduce}},
           .writes = {{"dZ", AxisRole::kParallel, AxisRole::kParallel}}});
  return g;
}

PipelineGraph MoeBackwardKernelBGraph(int64_t rows, int64_t embedding,
                                      int64_t hidden) {
  PipelineGraph g;
  g.AddTensor("dH", rows, hidden)
      .AddTensor("dA", rows, embedding)
      .AddTensor("dinput", rows, embedding);
  g.AddOp({.name = "dgrad0_gemm",
           .domain = OpDomain::kCompute,
           .reads = {{"dH", AxisRole::kParallel, AxisRole::kReduce}},
           .writes = {{"dA", AxisRole::kParallel, AxisRole::kParallel}}});
  // Undispatch sums the topk slot gradients of each token (row groups) and
  // routes them home: rows interdependent, columns independent.
  g.AddOp({.name = "undispatch_reduce",
           .domain = OpDomain::kCommunication,
           .reads = {{"dA", AxisRole::kReduce, AxisRole::kParallel}},
           .writes = {{"dinput", AxisRole::kGather, AxisRole::kParallel}}});
  return g;
}

}  // namespace comet
