// Layer mapping (paper §3.3, Figure 2): reconstructing which model-design
// nodes each backend layer implements, using only the information surface a
// real runtime exposes.
//
// The mapping ladder, applied per backend layer:
//   1. backend-inserted conversion layers register tensor aliases and map to
//      no model nodes;
//   2. name metadata (exact node name, or a fused-name list as exposed by
//      ONNX Runtime node names / OpenVINO originalLayersNames / TensorRT
//      "a + b" layer names) resolves directly;
//   3. I/O subgraph search (`get_subgraph_ops_by_io`) recovers fused layers
//      that expose only boundary tensors (ORT fused ops, Myelin regions);
//   4. dependency-context inference: a permissive backward walk from the
//      layer outputs over still-unclaimed nodes, for layers whose declared
//      boundary is incomplete.
// Every resolved multi-node layer is registered as a `_FusedOp` on the
// Optimized Analyze Representation, so the OAR converges to the backend's
// fused structure while retaining the model-design composition.
#pragma once

#include <string>
#include <vector>

#include "analysis/optimized_representation.hpp"
#include "backends/backend.hpp"

namespace proof::mapping {

enum class MapMethod : uint8_t {
  kExactName,            ///< layer name/info == one model node
  kNameList,             ///< fused-name list parsed from metadata
  kIoSearch,             ///< subgraph recovered from boundary tensors
  kDependencyInference,  ///< permissive dependency walk
  kBackendInserted,      ///< conversion layer added by the runtime
  kUnmapped,             ///< no mapping found
};

[[nodiscard]] std::string_view map_method_name(MapMethod method);

struct LayerMapEntry {
  std::string backend_layer;
  std::vector<std::string> model_nodes;  ///< mapped model-design node names
  MapMethod method = MapMethod::kUnmapped;
};

struct LayerMapping {
  std::vector<LayerMapEntry> entries;  ///< parallel to Engine::layers()

  /// Fraction of model nodes claimed by some backend layer.
  [[nodiscard]] double node_coverage(size_t total_nodes) const;
  /// Number of layers mapped by the given method.
  [[nodiscard]] size_t count(MapMethod method) const;
};

/// Maps every backend layer of `engine` onto `oar`'s model nodes.  Mutates
/// `oar` (aliases + fused ops).  Never consults BackendLayer::truth_nodes.
[[nodiscard]] LayerMapping map_layers(const backends::Engine& engine,
                                      OptimizedAnalyzeRepresentation& oar);

/// Replays a frozen AnalysisPlan's mapping onto the fresh `oar` of an engine
/// instantiated from that plan (core/analysis_plan.hpp), applying the same
/// alias registrations and `_FusedOp` groups without re-running the mapping
/// search.  The instantiated layer list is replayed from the plan's recipes
/// and therefore structurally identical by construction.  Throws ModelError
/// when the layer counts do not line up.
///
/// `member_ids` holds each entry's model node ids, resolved from the entry's
/// names at plan-build time against the plan skeleton; every clone_warm of
/// the skeleton keeps that node numbering, so no per-name lookup is needed.
void apply_mapping(const backends::Engine& engine,
                   OptimizedAnalyzeRepresentation& oar,
                   const LayerMapping& mapping,
                   const std::vector<std::vector<NodeId>>& member_ids);

/// Test/diagnostic helper: compares a mapping against the engine's ground
/// truth.  Returns the number of layers whose node set differs.
[[nodiscard]] size_t verify_against_truth(const LayerMapping& mapping,
                                          const backends::Engine& engine);

}  // namespace proof::mapping
