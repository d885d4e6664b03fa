#include "mapping/layer_mapping.hpp"

#include <algorithm>
#include <set>

#include "obs/span.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace proof::mapping {

std::string_view map_method_name(MapMethod method) {
  switch (method) {
    case MapMethod::kExactName:
      return "exact_name";
    case MapMethod::kNameList:
      return "name_list";
    case MapMethod::kIoSearch:
      return "io_search";
    case MapMethod::kDependencyInference:
      return "dependency_inference";
    case MapMethod::kBackendInserted:
      return "backend_inserted";
    case MapMethod::kUnmapped:
      return "unmapped";
  }
  PROOF_FAIL("unknown map method");
}

double LayerMapping::node_coverage(size_t total_nodes) const {
  std::set<std::string> covered;
  for (const LayerMapEntry& e : entries) {
    covered.insert(e.model_nodes.begin(), e.model_nodes.end());
  }
  return total_nodes == 0
             ? 0.0
             : static_cast<double>(covered.size()) / static_cast<double>(total_nodes);
}

size_t LayerMapping::count(MapMethod method) const {
  size_t n = 0;
  for (const LayerMapEntry& e : entries) {
    if (e.method == method) {
      ++n;
    }
  }
  return n;
}

namespace {

/// Tries to resolve `info` as a separator-joined list of model node names.
std::optional<std::vector<NodeId>> resolve_name_list(
    const Graph& g, const std::string& info, const std::string& sep) {
  std::vector<NodeId> ids;
  for (const auto& raw : strings::split(info, sep[0])) {
    std::string name{strings::trim(raw)};
    // " + "-joined lists leave a trailing '+'-less token; tolerate both
    // "a + b" and "a,b" styles by trimming any residual separator chars.
    while (!name.empty() && (name.back() == '+' || name.back() == ',')) {
      name.pop_back();
    }
    while (!name.empty() && (name.front() == '+' || name.front() == ',')) {
      name.erase(name.begin());
    }
    name = std::string(strings::trim(name));
    if (name.empty()) {
      continue;
    }
    const NodeId id = g.find_node(name);
    if (id == kInvalidNode) {
      return std::nullopt;
    }
    ids.push_back(id);
  }
  if (ids.empty()) {
    return std::nullopt;
  }
  return ids;
}

/// Permissive backward walk: collects unclaimed nodes reachable from the
/// layer outputs, stopping at declared inputs, params, graph inputs and
/// already-claimed nodes.  Used when the declared boundary is incomplete.
/// Runs entirely on interned ids: flag vectors instead of string sets.
std::vector<NodeId> dependency_walk(const OptimizedAnalyzeRepresentation& oar,
                                    const std::vector<std::string>& inputs,
                                    const std::vector<std::string>& outputs) {
  const Graph& g = oar.base().graph();
  std::vector<uint8_t> stop(g.num_tensor_ids(), 0);
  for (const std::string& t : inputs) {
    const TensorId id = oar.resolve_id(t);
    if (id != kInvalidTensor) {
      stop[static_cast<size_t>(id)] = 1;
    }
  }
  std::vector<uint8_t> visited(g.num_nodes(), 0);
  std::vector<NodeId> frontier;
  for (const std::string& out : outputs) {
    const NodeId p = g.producer(oar.resolve_id(out));
    if (p != kInvalidNode && !oar.is_fused(p) && !visited[static_cast<size_t>(p)]) {
      visited[static_cast<size_t>(p)] = 1;
      frontier.push_back(p);
    }
  }
  for (size_t head = 0; head < frontier.size(); ++head) {
    const NodeId id = frontier[head];
    for (const TensorId in : g.node_input_ids(id)) {
      if (stop[static_cast<size_t>(in)]) {
        continue;
      }
      if (g.tensor_is_param(in)) {
        continue;
      }
      const NodeId p = g.producer(in);
      if (p == kInvalidNode || oar.is_fused(p)) {
        continue;  // clip the walk instead of failing
      }
      if (!visited[static_cast<size_t>(p)]) {
        visited[static_cast<size_t>(p)] = 1;
        frontier.push_back(p);
      }
    }
  }
  std::sort(frontier.begin(), frontier.end());
  return frontier;
}

}  // namespace

LayerMapping map_layers(const backends::Engine& engine,
                        OptimizedAnalyzeRepresentation& oar) {
  PROOF_SPAN("mapping.map_layers");
  const Graph& g = oar.base().graph();
  LayerMapping mapping;
  mapping.entries.reserve(engine.layers().size());

  for (const backends::BackendLayer& layer : engine.layers()) {
    LayerMapEntry entry;
    entry.backend_layer = layer.name;

    if (layer.is_reorder) {
      // Conversion layer: its output tensor is a renamed copy of its input;
      // register the alias so downstream I/O searches resolve (Figure 2's
      // set_tensor_alias step).
      if (layer.input_tensors.size() == 1 && layer.output_tensors.size() == 1 &&
          layer.input_tensors[0] != layer.output_tensors[0]) {
        oar.set_tensor_alias(layer.input_tensors[0], layer.output_tensors[0]);
      }
      entry.method = MapMethod::kBackendInserted;
      mapping.entries.push_back(std::move(entry));
      continue;
    }

    std::optional<std::vector<NodeId>> members;
    MapMethod method = MapMethod::kUnmapped;

    // Rung 1/2: name metadata.
    if (!layer.info.empty()) {
      const NodeId exact = g.find_node(layer.info);
      if (exact != kInvalidNode && !oar.is_fused(exact)) {
        members = std::vector<NodeId>{exact};
        method = MapMethod::kExactName;
      } else {
        for (const char* sep : {"+", ","}) {
          auto ids = resolve_name_list(g, layer.info, sep);
          if (ids.has_value()) {
            bool clean = true;
            for (const NodeId id : *ids) {
              clean = clean && !oar.is_fused(id);
            }
            if (clean) {
              members = std::move(ids);
              method = MapMethod::kNameList;
              break;
            }
          }
        }
      }
    }

    // Rung 3: I/O subgraph search.
    if (!members.has_value()) {
      members = oar.get_subgraph_ops_by_io(layer.input_tensors, layer.output_tensors);
      if (members.has_value()) {
        method = MapMethod::kIoSearch;
      }
    }

    // Rung 4: dependency-context inference.
    if (!members.has_value()) {
      std::vector<NodeId> walked =
          dependency_walk(oar, layer.input_tensors, layer.output_tensors);
      if (!walked.empty()) {
        members = std::move(walked);
        method = MapMethod::kDependencyInference;
      }
    }

    if (members.has_value()) {
      oar.set_fused_op(layer.name, *members);
      entry.method = method;
      entry.model_nodes.reserve(members->size());
      for (const NodeId id : *members) {
        entry.model_nodes.push_back(g.node(id).name);
      }
    }
    mapping.entries.push_back(std::move(entry));
  }

#ifndef PROOF_OBS_DISABLED
  // Per-rung outcome counters (which mapping rungs carry real workloads is
  // exactly the §3.2.4 question this layer answers about itself).
  if (obs::enabled()) {
    for (const LayerMapEntry& entry : mapping.entries) {
      obs::MetricsRegistry::instance()
          .counter("mapping.method." + std::string(map_method_name(entry.method)))
          .add(1);
    }
    PROOF_COUNT("mapping.layers", mapping.entries.size());
  }
#endif
  return mapping;
}

void apply_mapping(const backends::Engine& engine,
                   OptimizedAnalyzeRepresentation& oar,
                   const LayerMapping& mapping,
                   const std::vector<std::vector<NodeId>>& member_ids) {
  PROOF_SPAN("mapping.apply");
  if (mapping.entries.size() != engine.layers().size()) {
    throw ModelError("apply_mapping: mapping has " +
                     std::to_string(mapping.entries.size()) + " entries but engine has " +
                     std::to_string(engine.layers().size()) + " layers");
  }
  PROOF_CHECK(member_ids.size() == mapping.entries.size(),
              "apply_mapping: member_ids/entry count mismatch");
  for (size_t i = 0; i < mapping.entries.size(); ++i) {
    const backends::BackendLayer& layer = engine.layers()[i];
    if (layer.is_reorder) {
      // Same alias registration map_layers performs for conversion layers.
      if (layer.input_tensors.size() == 1 && layer.output_tensors.size() == 1 &&
          layer.input_tensors[0] != layer.output_tensors[0]) {
        oar.set_tensor_alias(layer.input_tensors[0], layer.output_tensors[0]);
      }
      continue;
    }
    if (mapping.entries[i].model_nodes.empty()) {
      continue;  // was unmapped; stays unmapped
    }
    oar.set_fused_op(layer.name, member_ids[i]);
  }
}

size_t verify_against_truth(const LayerMapping& mapping,
                            const backends::Engine& engine) {
  PROOF_CHECK(mapping.entries.size() == engine.layers().size(),
              "mapping/layer count mismatch");
  size_t mismatches = 0;
  for (size_t i = 0; i < mapping.entries.size(); ++i) {
    const auto& truth = engine.layers()[i].truth_nodes;
    std::set<std::string> expected(truth.begin(), truth.end());
    std::set<std::string> actual(mapping.entries[i].model_nodes.begin(),
                                 mapping.entries[i].model_nodes.end());
    if (expected != actual) {
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace proof::mapping
