#include "analysis/quantize.hpp"

#include <map>
#include <set>

#include "analysis/shape_inference.hpp"
#include "support/error.hpp"

namespace proof {

namespace {

bool is_matrix_anchor(const std::string& op_type) {
  return op_type == "Conv" || op_type == "ConvTranspose" || op_type == "Gemm" ||
         op_type == "MatMul";
}

}  // namespace

bool is_qdq_model(const Graph& model) {
  for (const Node& node : model.nodes()) {
    if (node.op_type == "QuantizeLinear" || node.op_type == "DequantizeLinear") {
      return true;
    }
  }
  return false;
}

QuantizeStats quantize_to_qdq(Graph& model) {
  PROOF_CHECK(!is_qdq_model(model), "model is already quantized");
  QuantizeStats stats;
  int fresh = 0;
  const auto scale_param = [&](const std::string& hint) {
    const std::string name = "qdq_scale_" + hint + "_" + std::to_string(fresh++);
    model.add_param(name, DType::kF32, Shape{1});
    return name;
  };

  // Activation tensors already wrapped (shared across consumers).
  std::map<std::string, std::string> dequantized_of;
  // Collect the anchor edits first; node insertion invalidates iteration.
  struct Edit {
    NodeId node;
    size_t input_index;
  };
  std::vector<Edit> activation_edits;
  std::vector<Edit> weight_edits;
  for (size_t i = 0; i < model.num_nodes(); ++i) {
    const Node& node = model.nodes()[i];
    if (!is_matrix_anchor(node.op_type)) {
      continue;
    }
    ++stats.quantized_anchors;
    for (size_t in = 0; in < node.inputs.size() && in < 2; ++in) {
      const TensorDesc& desc = model.tensor(node.inputs[in]);
      if (!dtype_is_float(desc.dtype)) {
        continue;  // integer inputs (e.g. Gather indices) stay untouched
      }
      if (desc.is_param) {
        weight_edits.push_back({static_cast<NodeId>(i), in});
      } else {
        activation_edits.push_back({static_cast<NodeId>(i), in});
      }
    }
  }

  // Weights: store int8 + DequantizeLinear.
  std::map<std::string, std::string> weight_dq;
  for (const Edit& edit : weight_edits) {
    const std::string weight = model.node(edit.node).inputs[edit.input_index];
    auto it = weight_dq.find(weight);
    if (it == weight_dq.end()) {
      TensorDesc& desc = model.tensor(weight);
      desc.dtype = DType::kI8;
      ++stats.int8_params;
      Node dq;
      dq.name = weight + "_dq";
      dq.op_type = "DequantizeLinear";
      dq.inputs = {weight, scale_param("w")};
      dq.outputs = {weight + "_dqo"};
      model.add_node(std::move(dq));
      ++stats.dq_nodes;
      it = weight_dq.emplace(weight, weight + "_dqo").first;
    }
    model.mutable_node(edit.node).inputs[edit.input_index] = it->second;
  }

  // Activations: QuantizeLinear -> DequantizeLinear pairs, shared per tensor.
  for (const Edit& edit : activation_edits) {
    const std::string tensor = model.node(edit.node).inputs[edit.input_index];
    auto it = dequantized_of.find(tensor);
    if (it == dequantized_of.end()) {
      Node q;
      q.name = tensor + "_q";
      q.op_type = "QuantizeLinear";
      q.inputs = {tensor, scale_param("a")};
      q.outputs = {tensor + "_qo"};
      model.add_node(std::move(q));
      ++stats.q_nodes;
      Node dq;
      dq.name = tensor + "_dq";
      dq.op_type = "DequantizeLinear";
      dq.inputs = {tensor + "_qo", scale_param("a")};
      dq.outputs = {tensor + "_dqo"};
      model.add_node(std::move(dq));
      ++stats.dq_nodes;
      it = dequantized_of.emplace(tensor, tensor + "_dqo").first;
    }
    model.mutable_node(edit.node).inputs[edit.input_index] = it->second;
  }

  model.validate();
  infer_shapes(model);
  return stats;
}

}  // namespace proof
