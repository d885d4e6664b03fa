#include "core/analysis_plan.hpp"

#include "analysis/shape_inference.hpp"
#include "obs/span.hpp"
#include "support/error.hpp"
#include "tensor/dtype.hpp"

namespace proof {

AnalysisPlan build_analysis_plan(const backends::Engine& engine,
                                 const backends::BuildPlan& plan,
                                 const mapping::LayerMapping& mapping) {
  AnalysisPlan out;
  out.skeleton = engine.shared_analysis_graph();
  const Graph& skeleton = *out.skeleton;
  out.build_plan = plan;
  // Extracted against the skeleton itself, so the interned tensor ids the
  // recipes cache (kernel boundaries) are valid in every clone_warm() of it.
  out.recipes = backends::extract_layer_recipes(skeleton, engine.layers(),
                                                out.build_plan);
  out.mapping = mapping;
  // Pre-resolve every mapping entry's model nodes against the skeleton:
  // node numbering is positional, so the ids hold in every clone_warm copy.
  out.mapping_node_ids.reserve(mapping.entries.size());
  for (const mapping::LayerMapEntry& entry : mapping.entries) {
    std::vector<NodeId> ids;
    ids.reserve(entry.model_nodes.size());
    for (const std::string& name : entry.model_nodes) {
      const NodeId id = skeleton.find_node(name);
      PROOF_CHECK(id != kInvalidNode,
                  "analysis plan: mapped node '" << name << "' missing from skeleton");
      ids.push_back(id);
    }
    out.mapping_node_ids.push_back(std::move(ids));
  }
  out.mapping_coverage = mapping.node_coverage(skeleton.num_nodes());
  out.unmapped_layers = mapping.count(mapping::MapMethod::kUnmapped);
  out.stream_policy = engine.stream_policy();
  out.backend_id = engine.backend_id();
  // The skeleton is copied concurrently by instantiations; materialize every
  // lazy index now so those copies never race on an index rebuild.
  skeleton.warm_indices();
  return out;
}

bool plan_compatible(const AnalysisPlan& plan, const Graph& model) {
  const Graph& s = *plan.skeleton;
  if (s.num_nodes() != model.num_nodes() || s.inputs() != model.inputs() ||
      s.outputs() != model.outputs()) {
    return false;
  }
  const std::vector<Node>& sn = s.nodes();
  const std::vector<Node>& mn = model.nodes();
  for (size_t i = 0; i < sn.size(); ++i) {
    if (sn[i].name != mn[i].name || sn[i].op_type != mn[i].op_type ||
        sn[i].inputs != mn[i].inputs || sn[i].outputs != mn[i].outputs) {
      return false;
    }
  }
  const Graph::TensorMap& st = s.tensors();
  const Graph::TensorMap& mt = model.tensors();
  if (st.size() != mt.size()) {
    return false;
  }
  auto si = st.begin();
  auto mi = mt.begin();
  for (; si != st.end(); ++si, ++mi) {
    const TensorDesc& sd = si->second;
    const TensorDesc& md = mi->second;
    if (si->first != mi->first || sd.is_param != md.is_param ||
        sd.shape.rank() != md.shape.rank()) {
      return false;
    }
    // Param shapes are structural (they size the weights kernels stream);
    // param *dtypes* are exempt — the skeleton's were float-converted when
    // the canonical engine was built, the model's are the source dtypes.
    if (sd.is_param && sd.shape.dims() != md.shape.dims()) {
      return false;
    }
  }
  return true;
}

Graph instantiate_plan_graph(const AnalysisPlan& plan, const Graph& model,
                             const backends::BuildConfig& config) {
  Graph g = [&] {
    PROOF_SPAN("instantiate.copy");
    return plan.skeleton->clone_warm();
  }();
  g.set_name(model.name());
  // The skeleton's shape-carrying attrs were batch-rewritten when the
  // canonical cell was prepared; restore the model's originals so the
  // set_batch_size below rewrites them against the model's actual batch.
  // Only "shape"/"sizes" attrs can diverge between compatible graphs
  // (plan_compatible pins everything else; set_batch_size touches nothing
  // else), so restoration is limited to nodes carrying them.
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    AttrMap& attrs = g.mutable_attrs(static_cast<NodeId>(i));
    if (attrs.has("shape") || attrs.has("sizes")) {
      attrs = model.node(static_cast<NodeId>(i)).attrs;
    }
  }
  // Restore the model's input descs (shape AND dtype; floats convert to the
  // build precision exactly as prepare_model's specialize_graph does).
  for (const std::string& in : model.inputs()) {
    TensorDesc desc = model.tensor(in);
    if (dtype_is_float(desc.dtype)) {
      desc.dtype = config.dtype;
    }
    g.set_tensor(std::move(desc));
  }
  // One shape-inference pass: infer_shapes overwrites every node-output desc
  // (shape and dtype) in topo order, so the result equals a fresh
  // prepare_model(model, config) graph bit-for-bit.
  {
    PROOF_SPAN("instantiate.infer");
    set_batch_size(g, config.batch);
  }
  return g;
}

std::vector<backends::BackendLayer> replay_plan_layers(
    const AnalysisPlan& plan, const Graph& g, const hw::PlatformDesc& platform,
    const std::vector<NodeAnalysis>* analyses) {
  backends::LoweringOptions options;
  options.arch = platform.arch;
  std::vector<backends::BackendLayer> layers;
  layers.reserve(plan.recipes.size());
  for (const backends::LayerRecipe& recipe : plan.recipes) {
    layers.push_back(backends::replay_layer_recipe(g, recipe, options, analyses));
  }
  return layers;
}

}  // namespace proof
