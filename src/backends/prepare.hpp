// Internal: shared model preparation for the simulated runtimes.
#pragma once

#include <string>
#include <vector>

#include "backends/backend.hpp"

namespace proof::backends {

/// Checks the platform supports the requested dtype and every operator, then
/// copies the model once (a plain copy), applies the build batch size and
/// precision with one shape-inference pass (specialize_graph) and validates
/// the result.  The engine lowered from this graph shares it with its AR and
/// AnalysisPlan (core/prep_cache.hpp), so nothing copies or infers it again.
[[nodiscard]] Graph prepare_model(const Graph& model, const BuildConfig& config,
                                  const hw::PlatformDesc& platform);

/// " + "-joined member node names (TensorRT's fused-layer naming style).
[[nodiscard]] std::string joined_layer_name(const Graph& graph,
                                            const std::vector<NodeId>& members,
                                            const std::string& sep);

}  // namespace proof::backends
