// Backend abstraction (paper §3.3).
//
// A Backend mirrors a production inference runtime: it takes the model graph
// plus a build configuration (precision, batch size), optimizes the graph
// into *backend layers* (fusion, inserted conversion layers, renamed
// tensors), lowers layers to device kernels and exposes a built-in profiler
// reporting per-backend-layer latency — exactly the information surface PRoof
// gets from TensorRT / OpenVINO / ONNX Runtime.
//
// The ground-truth layer->node mapping is stored on each BackendLayer for
// test verification, but the mapping module must only consume the public
// surface: layer names, `info` metadata and I/O tensor names.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/critical_path/timeline.hpp"
#include "graph/graph.hpp"
#include "hw/counters.hpp"
#include "hw/latency_model.hpp"
#include "hw/power.hpp"

namespace proof::backends {

struct BuildConfig {
  DType dtype = DType::kF16;
  int64_t batch = 1;
};

/// One optimized layer in a built engine.
struct BackendLayer {
  std::string name;                        ///< backend naming convention
  std::vector<std::string> input_tensors;  ///< backend tensor names
  std::vector<std::string> output_tensors;
  /// Runtime-specific mapping metadata: ort_sim exposes the original node
  /// name; ov_sim exposes a comma-separated fused-names list (OpenVINO's
  /// originalLayersNames); trt_sim regions expose nothing ("").
  std::string info;
  bool is_reorder = false;   ///< backend-inserted conversion layer
  bool is_opaque = false;    ///< Myelin-style region: no name-based mapping
  OpClass cls = OpClass::kElementwise;
  std::vector<hw::KernelWork> kernels;

  /// Ground truth for tests only — model node names this layer implements.
  std::vector<std::string> truth_nodes;
};

/// Built-in profiler result (per-iteration averages).
struct EngineProfile {
  std::vector<double> layer_latency_s;  ///< parallel to Engine::layers()
  double total_latency_s = 0.0;
  hw::Utilization utilization;          ///< engine busy fractions
};

class Engine {
 public:
  Engine(std::string backend_id, Graph analysis_graph, std::vector<BackendLayer> layers,
         BuildConfig config, StreamPolicy stream_policy = {});

  /// Shares an already-frozen graph instead of owning a fresh copy — the
  /// plan-cache instantiation path hands the same immutable graph to the
  /// engine and the analyze representation.
  Engine(std::string backend_id, std::shared_ptr<const Graph> analysis_graph,
         std::vector<BackendLayer> layers, BuildConfig config,
         StreamPolicy stream_policy = {});

  [[nodiscard]] const std::string& backend_id() const { return backend_id_; }
  [[nodiscard]] const BuildConfig& config() const { return config_; }

  /// The runtime's dispatch concurrency surface (stream count + lane names).
  [[nodiscard]] const StreamPolicy& stream_policy() const {
    return stream_policy_;
  }

  /// The batch/dtype-converted model graph the layers reference (same node
  /// names as the input model).
  [[nodiscard]] const Graph& analysis_graph() const { return *analysis_graph_; }

  /// The same graph as analysis_graph(), shareable without a copy (the graph
  /// is immutable once the engine owns it; lazy lookup indexes are
  /// thread-safe to materialize).
  [[nodiscard]] const std::shared_ptr<const Graph>& shared_analysis_graph() const {
    return analysis_graph_;
  }

  [[nodiscard]] const std::vector<BackendLayer>& layers() const { return layers_; }

  /// Built-in profiler: per-layer latency under a platform clock state, with
  /// deterministic measurement jitter shrinking with iteration count.
  [[nodiscard]] EngineProfile profile(const hw::PlatformState& state,
                                      int iterations = 50) const;

  /// Multi-stream execution timeline: the same simulated latencies as
  /// profile(), dispatched onto up to `streams` streams (0 = the backend's
  /// stream_policy() maximum; clamped to it otherwise) with explicit
  /// cross-stream sync events.  streams == 1 reproduces the seed's serial
  /// cursor exactly.  See backends/stream_schedule.hpp.
  [[nodiscard]] ExecutionTimeline profile_timeline(const hw::PlatformState& state,
                                                   int iterations = 50,
                                                   int streams = 0) const;

  /// All kernels in execution order (for the counter profiler).
  [[nodiscard]] std::vector<hw::KernelWork> all_kernels() const;

 private:
  std::string backend_id_;
  std::shared_ptr<const Graph> analysis_graph_;
  std::vector<BackendLayer> layers_;
  BuildConfig config_;
  StreamPolicy stream_policy_;
};

/// Batch-independent half of a backend build: the fused-group structure the
/// backend's graph passes decide.  Fusion decisions are purely structural
/// (node names, op types, dataflow), so one plan serves every batch size of a
/// (model, backend, platform, dtype) combination — this is what the
/// preparation cache memoizes (see core/prep_cache.hpp).  Node ids refer to
/// the prepared graph, which preserves the source model's node ordering.
struct BuildPlan {
  std::vector<std::vector<NodeId>> groups;  ///< fused groups in layer order
  std::vector<uint8_t> opaque;              ///< parallel: Myelin-style region?
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// Short id: "trt_sim" / "ov_sim" / "ort_sim".
  [[nodiscard]] virtual std::string id() const = 0;
  /// Display name mirroring Table 2's runtime column.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Optimizes + lowers `model` for `platform`.  Throws ConfigError when the
  /// dtype is unsupported by the platform.  Equivalent to
  /// `lower(prepare, plan(prepare), ...)`; callers holding a memoized plan
  /// use the two-phase form directly.
  [[nodiscard]] Engine build(const Graph& model, const BuildConfig& config,
                             const hw::PlatformDesc& platform) const;

  /// Phase 1 — graph optimization: runs the backend's fusion passes over a
  /// prepared graph (see prepare_model) and returns the group structure.
  /// Batch-independent: the same plan is valid for every batch size.
  [[nodiscard]] virtual BuildPlan plan(const Graph& prepared) const = 0;

  /// Phase 2 — lowering: turns a prepared graph plus a plan into an Engine
  /// with per-layer kernels.  Kernel work sizes are shape-dependent and are
  /// always computed from `prepared`'s actual tensor shapes.  `prepared` is a
  /// sink moved into the Engine (a const reference would force a re-interning
  /// copy); lowering only reads it, so its warm index moves along intact.
  [[nodiscard]] virtual Engine lower(Graph prepared, const BuildPlan& plan,
                                     const BuildConfig& config,
                                     const hw::PlatformDesc& platform) const = 0;
};

class BackendRegistry {
 public:
  static BackendRegistry& instance();

  void add(std::unique_ptr<Backend> backend);
  [[nodiscard]] const Backend& get(const std::string& id) const;
  [[nodiscard]] bool contains(const std::string& id) const;
  [[nodiscard]] std::vector<std::string> ids() const;

 private:
  BackendRegistry();
  std::map<std::string, std::unique_ptr<Backend>> backends_;
};

}  // namespace proof::backends
