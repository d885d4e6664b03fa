#include "backends/prepare.hpp"

#include "analysis/shape_inference.hpp"
#include "obs/span.hpp"
#include "support/error.hpp"

namespace proof::backends {

Graph prepare_model(const Graph& model, const BuildConfig& config,
                    const hw::PlatformDesc& platform) {
  PROOF_SPAN("prepare.model");
  PROOF_COUNT("prepare.models", 1);
  if (!platform.supports(config.dtype)) {
    throw ConfigError("platform '" + platform.id + "' does not support dtype " +
                      std::string(dtype_name(config.dtype)));
  }
  for (const Node& node : model.nodes()) {
    if (platform.unsupported_ops.count(node.op_type) > 0) {
      throw ConfigError("platform '" + platform.id + "' cannot lower operator '" +
                        node.op_type + "' (node '" + node.name +
                        "'): model conversion failed");
    }
  }
  // One plain copy and one inference pass.  Not clone_warm: that would share
  // the model's string pool with every engine cached from it (DESIGN.md §14).
  // The AR and the AnalysisPlan adopt this graph without validating it, so
  // validate here, after inference, whose errors report first.
  Graph g = model;
  specialize_graph(g, config.batch, config.dtype);
  g.validate();
  return g;
}

std::string joined_layer_name(const Graph& graph, const std::vector<NodeId>& members,
                              const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < members.size(); ++i) {
    if (i > 0) {
      out += sep;
    }
    out += graph.node(members[i]).name;
  }
  return out;
}

}  // namespace proof::backends
