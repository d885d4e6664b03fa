#include "analysis/shape_inference.hpp"

#include <utility>

#include "ops/op_def.hpp"
#include "support/error.hpp"

namespace proof {

void infer_shapes(Graph& graph) {
  for (const std::string& in : graph.inputs()) {
    PROOF_CHECK(graph.has_tensor(in) && !graph.tensor(in).shape.empty(),
                "graph input '" << in << "' must carry a shape before inference");
  }
  for (const NodeId id : graph.topo_order()) {
    const Node& node = graph.node(id);
    const OpDef& def = op_def_for(node);
    const OpContext ctx(graph, node);
    std::vector<TensorDesc> outs;
    try {
      outs = def.infer(ctx);
    } catch (const Error& e) {
      throw ModelError("shape inference failed at node '" + node.name + "' (" +
                       node.op_type + "): " + e.what());
    }
    PROOF_CHECK(outs.size() == node.outputs.size(),
                "node '" << node.name << "' declares " << node.outputs.size()
                         << " outputs but op inferred " << outs.size());
    for (size_t i = 0; i < outs.size(); ++i) {
      outs[i].name = node.outputs[i];
      outs[i].is_param = false;
      graph.set_tensor(std::move(outs[i]));
    }
  }
}

namespace {

/// set_batch_size's rewrite without the inference pass: dim 0 of every graph
/// input, plus "shape"/"sizes" attrs whose dim 0 carries the old batch.
void rewrite_batch(Graph& graph, int64_t batch) {
  PROOF_CHECK(batch > 0, "batch must be positive, got " << batch);
  PROOF_CHECK(!graph.inputs().empty(), "graph has no inputs");
  const int64_t old_batch = graph.tensor(graph.inputs()[0]).shape.dim(0);
  for (const std::string& in : graph.inputs()) {
    graph.tensor(in).shape.set_dim(0, batch);
  }
  if (old_batch != batch) {
    // Shape-carrying attributes that bake in the old batch size (builders use
    // 0/-1 placeholders where possible; explicit batch appears in e.g.
    // Expand of broadcast tokens).
    for (size_t i = 0; i < graph.num_nodes(); ++i) {
      AttrMap& attrs = graph.mutable_attrs(static_cast<NodeId>(i));
      for (const char* key : {"shape", "sizes"}) {
        if (!attrs.has(key)) {
          continue;
        }
        std::vector<int64_t> dims = attrs.get_ints(key);
        if (!dims.empty() && dims[0] == old_batch) {
          dims[0] = batch;
          attrs.set(key, dims);
        }
      }
    }
  }
}

/// convert_float_dtype's rewrite without the inference pass: every float
/// tensor desc (inputs, params, and node outputs) becomes `dtype`.
void rewrite_float_dtype(Graph& graph, DType dtype) {
  PROOF_CHECK(dtype_is_float(dtype) || dtype == DType::kI8,
              "conversion target must be a float type or int8");
  for (const std::string& name : graph.inputs()) {
    TensorDesc& desc = graph.tensor(name);
    if (dtype_is_float(desc.dtype)) {
      desc.dtype = dtype;
    }
  }
  std::vector<std::string> names;
  names.reserve(graph.tensors().size());
  for (const auto& [name, desc] : graph.tensors()) {
    names.push_back(name);
  }
  for (const std::string& name : names) {
    TensorDesc& desc = graph.tensor(name);
    if (dtype_is_float(desc.dtype)) {
      desc.dtype = dtype;
    }
  }
}

}  // namespace

void specialize_graph(Graph& graph, int64_t batch, DType dtype) {
  rewrite_batch(graph, batch);
  rewrite_float_dtype(graph, dtype);
  infer_shapes(graph);
}

void set_batch_size(Graph& graph, int64_t batch) {
  rewrite_batch(graph, batch);
  infer_shapes(graph);
}

void convert_float_dtype(Graph& graph, DType dtype) {
  rewrite_float_dtype(graph, dtype);
  infer_shapes(graph);
}

}  // namespace proof
