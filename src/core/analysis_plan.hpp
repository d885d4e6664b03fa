// Shape-polymorphic analysis plans (the PrepCache plan level).
//
// Every structural decision a profile run makes — fusion partition, lowering
// recipes (layer/kernel names, fused members, segmentation), layer mapping,
// stream policy — depends only on the graph's *structure*: op types,
// attributes, connectivity, parameter shapes.  Batch size, KV position and
// DVFS clocks only change tensor shapes, and every shape-dependent number the
// analysis emits (FLOPs, bytes, latency, power, roofline terms) is closed-form
// in those shapes.  An AnalysisPlan freezes the structure phase once per
// shape-erased structural fingerprint (GraphKeys::structural) so sweep
// inner loops replace the full prepare pipeline with a cheap instantiation:
//
//   1. copy the frozen skeleton graph (the canonical engine's own graph),
//   2. restore the cell model's inputs + shape-carrying attrs,
//   3. one shape-inference pass (set_batch_size),
//   4. replay the layer recipes through the normal kernel-costing code,
//   5. replay the frozen mapping.
//
// The instantiated engine is byte-identical to a full prepare of the same
// (model, config): both paths end with the same pure shape-inference pass over
// identical (inputs, params, attrs) and cost kernels through the same code.
// plan_compatible() verifies a fingerprint hit structurally (hash collisions
// fall back to a full build), and any structural rewrite — fusion toggles,
// `_mod` graph surgery, QDQ quantization — changes the structural fingerprint,
// so stale plans are unreachable by construction.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "backends/backend.hpp"
#include "backends/lowering.hpp"
#include "mapping/layer_mapping.hpp"

namespace proof {

/// Frozen structure phase of a profile run, shared by every shape
/// instantiation of a structural fingerprint.  Immutable once published.
struct AnalysisPlan {
  /// Canonical prepared graph (first cell's batch/dtype), warm-indexed: the
  /// very graph the canonical engine and its AR share, not a copy of it.
  /// Instantiation clone_warm()s it and re-infers shapes in the clone.
  std::shared_ptr<const Graph> skeleton;
  backends::BuildPlan build_plan;
  std::vector<backends::LayerRecipe> recipes;
  mapping::LayerMapping mapping;
  /// Per-mapping-entry model node ids, resolved against the skeleton at
  /// build time.  Node numbering is positional and clone_warm-stable, so
  /// apply_mapping can take these instead of re-resolving names per cell.
  std::vector<std::vector<NodeId>> mapping_node_ids;
  /// mapping.node_coverage(skeleton.num_nodes()) / mapping.count(kUnmapped),
  /// frozen here — both depend only on the frozen mapping and node count.
  double mapping_coverage = 0.0;
  size_t unmapped_layers = 0;
  StreamPolicy stream_policy;
  std::string backend_id;
};

/// Freezes the structure phase of a canonically built engine.  `plan` and
/// `mapping` are the BuildPlan / LayerMapping the engine was built with.
[[nodiscard]] AnalysisPlan build_analysis_plan(const backends::Engine& engine,
                                               const backends::BuildPlan& plan,
                                               const mapping::LayerMapping& mapping);

/// Structural verification of a fingerprint hit: node names/op types/IO,
/// graph inputs/outputs, tensor names/param flags/ranks and param dims must
/// all match the skeleton (param dtypes are exempt — the skeleton's were
/// float-converted at build).  False means a hash collision; callers fall
/// back to a full build.
[[nodiscard]] bool plan_compatible(const AnalysisPlan& plan, const Graph& model);

/// Instantiates the skeleton for one cell: restores `model`'s input descs
/// (float dtypes converted to config.dtype) and shape-carrying attrs, then
/// runs set_batch_size (one shape-inference pass).  The result is
/// byte-identical to prepare_model(model, config, platform)'s graph.
[[nodiscard]] Graph instantiate_plan_graph(const AnalysisPlan& plan,
                                           const Graph& model,
                                           const backends::BuildConfig& config);

/// Replays the frozen layer recipes against an instantiated graph, re-running
/// the shape-dependent kernel costing for `platform`'s architecture.
/// `analyses` (optional) shares the per-node evaluations an
/// AnalyzeRepresentation over `g` already made; see replay_layer_recipe.
[[nodiscard]] std::vector<backends::BackendLayer> replay_plan_layers(
    const AnalysisPlan& plan, const Graph& g, const hw::PlatformDesc& platform,
    const std::vector<NodeAnalysis>* analyses = nullptr);

}  // namespace proof
