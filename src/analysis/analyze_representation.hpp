// Analyze Representation (paper §3.2.2).
//
// Wraps a model graph with per-node FLOP / memory-access predictions from the
// operator defines, plus whole-model aggregates.  This is the backend-
// independent half of PRoof's analysis.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "ops/op_def.hpp"

namespace proof {

/// Predicted performance-relevant quantities of one model node.
struct NodeAnalysis {
  std::string name;
  std::string op_type;
  double flops = 0.0;
  MemoryEstimate memory;
  OpClass op_class = OpClass::kElementwise;
};

class AnalyzeRepresentation {
 public:
  /// Takes a copy of the model, runs validation + shape inference, and
  /// precomputes the per-node analyses.
  explicit AnalyzeRepresentation(Graph graph);

  /// Tag for graphs the caller guarantees are already validated and
  /// shape-inferred; skips both, shares the frozen graph instead of copying
  /// it, and only runs the per-node analysis.  Both prepared paths use it
  /// over the engine's graph: a full build (prepare_model validated and
  /// inferred it) and a plan-cache instantiation (one infer_shapes pass over
  /// a clone of a previously validated skeleton).
  struct TrustedGraphTag {};
  AnalyzeRepresentation(std::shared_ptr<const Graph> graph, TrustedGraphTag tag);

  [[nodiscard]] const Graph& graph() const { return *graph_; }

  [[nodiscard]] const NodeAnalysis& analysis(NodeId id) const;
  [[nodiscard]] const std::vector<NodeAnalysis>& analyses() const { return analyses_; }

  [[nodiscard]] double total_flops() const;
  [[nodiscard]] MemoryEstimate total_memory() const;
  [[nodiscard]] int64_t param_count() const { return graph_->param_count(); }
  [[nodiscard]] int64_t param_bytes() const { return graph_->param_bytes(); }
  [[nodiscard]] size_t num_nodes() const { return graph_->num_nodes(); }

 private:
  /// Computes the per-node analyses from the frozen graph.
  void refresh();

  std::shared_ptr<const Graph> graph_;
  std::vector<NodeAnalysis> analyses_;
};

}  // namespace proof
