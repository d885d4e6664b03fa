#include "analysis/analyze_representation.hpp"

#include "analysis/shape_inference.hpp"
#include "support/error.hpp"

namespace proof {

AnalyzeRepresentation::AnalyzeRepresentation(Graph graph) {
  graph.validate();
  infer_shapes(graph);
  graph_ = std::make_shared<const Graph>(std::move(graph));
  refresh();
}

AnalyzeRepresentation::AnalyzeRepresentation(std::shared_ptr<const Graph> graph,
                                             TrustedGraphTag)
    : graph_(std::move(graph)) {
  PROOF_CHECK(graph_ != nullptr, "analyze representation requires a graph");
  refresh();
}

void AnalyzeRepresentation::refresh() {
  analyses_.clear();
  analyses_.reserve(graph_->num_nodes());
  for (const Node& node : graph_->nodes()) {
    const OpDef& def = op_def_for(node);
    const OpContext ctx(*graph_, node);
    NodeAnalysis a;
    a.name = node.name;
    a.op_type = node.op_type;
    a.flops = def.flops(ctx);
    a.memory = def.memory(ctx);
    a.op_class = def.op_class(ctx);
    analyses_.push_back(std::move(a));
  }
}

const NodeAnalysis& AnalyzeRepresentation::analysis(NodeId id) const {
  PROOF_CHECK(id >= 0 && static_cast<size_t>(id) < analyses_.size(),
              "bad node id " << id);
  return analyses_[static_cast<size_t>(id)];
}

double AnalyzeRepresentation::total_flops() const {
  double total = 0.0;
  for (const NodeAnalysis& a : analyses_) {
    total += a.flops;
  }
  return total;
}

MemoryEstimate AnalyzeRepresentation::total_memory() const {
  MemoryEstimate total;
  for (const NodeAnalysis& a : analyses_) {
    total += a.memory;
  }
  return total;
}

}  // namespace proof
