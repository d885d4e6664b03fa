// Whole-graph shape inference.
//
// PRoof runs ONNX shape inference once when building the Analyze
// Representation; this is the equivalent driver over our op registry.
#pragma once

#include "graph/graph.hpp"

namespace proof {

/// Infers every intermediate/output tensor desc in topological order.
/// Graph inputs and params must already carry shapes.  Throws ModelError when
/// an operator cannot be inferred.
///
/// Purity contract (specialize_graph below and the plan cache,
/// core/analysis_plan.hpp, lean on this):
/// the pass is a pure function of the graph's input descs, param descs and
/// node attrs.  Every node-output desc is fully OVERWRITTEN — shape and
/// dtype, is_param forced false — so stale descs left by a previous
/// inference at other shapes never leak into the result, and re-inferring a
/// copied graph after restoring its inputs/attrs reproduces a fresh build
/// bit-for-bit.  Ops must not read pre-existing output descs.
void infer_shapes(Graph& graph);

/// Specializes a model for one build in one pass: set_batch_size's rewrite,
/// then convert_float_dtype's, then a single infer_shapes.  Bit-for-bit equal
/// to set_batch_size followed by convert_float_dtype (two passes) by the
/// purity contract above: the one pass overwrites every node-output desc
/// from the rewritten inputs, params and attrs, and no op's infer reads its
/// own outputs (only OpDef::memory does), so the intermediate pass adds
/// nothing.
void specialize_graph(Graph& graph, int64_t batch, DType dtype);

/// Rewrites the batch dimension (dim 0 of every graph input) to `batch` and
/// re-runs shape inference.  Attribute-encoded shapes (Reshape targets,
/// Expand shapes) that carry the old batch in dim 0 are rewritten as well.
void set_batch_size(Graph& graph, int64_t batch);

/// Converts all float tensors (activations and params) to `dtype` and re-runs
/// shape inference.  `dtype` must be a float type or int8.
void convert_float_dtype(Graph& graph, DType dtype);

}  // namespace proof
