// Preparation cache: memoized backend preparation for sweep workloads.
//
// A profile run decomposes into
//   (a) backend graph optimization (fusion planning)      — batch-independent
//   (b) lowering to an Engine with sized kernels           — batch-dependent
//   (c) AnalyzeRepresentation / OAR construction           — batch-dependent
//   (d) layer mapping (name / I/O-search / dependency)     — batch-independent
//   (e) latency simulation + roofline assembly             — clock-dependent
// and only (e) depends on the DVFS clock state.  A cached entry carries the
// outputs of (a)-(d) plus the predicted per-layer FLOPs and bytes derived
// from them, so a warm run does (e) and copies those metrics.  Sweep matrices
// (model x batch x precision x clock) therefore redo enormous amounts of
// identical work when run naively; the paper's "negligible cost" claim for
// the analytical path (§4.2) only survives at production sweep sizes with
// memoization.
//
// Two cache levels:
//  * engine level (model, backend, platform, dtype, batch), keyed on the
//    exact fingerprint: the fully built PreparedEngine from (a)-(d) — reused
//    across clock settings, metric modes and repeated runs (clock/power
//    searches, distributed partition searches, report regeneration).
//  * plan level (model, backend, platform, dtype), keyed on the *shape-erased*
//    structural fingerprint: the frozen AnalysisPlan (core/analysis_plan.hpp)
//    — fusion partition, lowering recipes, layer mapping, stream policy.  The
//    structural key hashes op types / attributes / connectivity but
//    symbolizes batch and sequence dims, so every cell of a sweep grid that
//    differs only in batch or KV position — and every decode-step graph of
//    the same LLM config at a different position — shares one structure
//    phase.  An engine miss that hits a plan replaces the full prepare
//    pipeline with a cheap instantiation: one graph copy, one shape inference
//    pass, closed-form kernel re-evaluation, and a mapping replay.
// Shape-dependent metrics (kernel work sizes, per-node FLOP/bytes) are always
// recomputed per cell; cached artifacts are immutable after construction and
// shared across threads.
//
// The uncached prepare_engine below is the oracle: disable the cache with
// PROOF_PREP_CACHE=0 (or set_enabled(false)) to build everything every time.
// Reports are byte-identical either way (tests/test_cache_oracle.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analyze_representation.hpp"
#include "analysis/optimized_representation.hpp"
#include "backends/backend.hpp"
#include "mapping/layer_mapping.hpp"

namespace proof {

/// Everything a profile run needs that does not depend on clocks: the built
/// engine plus analysis representations and the layer mapping.  Immutable
/// and address-stable once published (oar holds a pointer to ar).
class PreparedEngine {
 public:
  /// Full-build path: builds the AR over the engine's own analysis graph
  /// (shared, never copied; prepare_model already validated and
  /// shape-inferred it, and lowering does not edit it).
  PreparedEngine(backends::Engine engine_in, mapping::LayerMapping mapping_in);

  /// Plan-cache instantiation path: adopts an AR the instantiation already
  /// built over the engine's shared analysis graph instead of constructing
  /// one here.
  PreparedEngine(backends::Engine engine_in, mapping::LayerMapping mapping_in,
                 AnalyzeRepresentation ar_in);

  PreparedEngine(const PreparedEngine&) = delete;
  PreparedEngine& operator=(const PreparedEngine&) = delete;

  backends::Engine engine;
  AnalyzeRepresentation ar;
  OptimizedAnalyzeRepresentation oar;
  mapping::LayerMapping mapping;
  double mapping_coverage = 0.0;
  size_t unmapped_layers = 0;
  /// Wall time of AR/OAR construction + mapping when this entry was built
  /// (reported verbatim on cache hits, mirroring the paper's §4.2 overhead
  /// accounting for the work actually performed once).  Shape inference is
  /// not in it: the AR adopts the graph prepare_model already inferred.
  double analysis_time_s = 0.0;

  /// Predicted (analytical) metrics of one backend layer.
  struct LayerMetrics {
    double flops = 0.0;
    double bytes = 0.0;
  };
  /// Per engine layer: the fusion-aware Equation 1 over the layer's mapped
  /// model nodes; for an unmapped conversion layer, its kernels' bytes; else
  /// zero.  They depend only on the engine, AR/OAR and mapping, never on
  /// clocks, so the cache computes them once when it builds or instantiates
  /// the entry and every predicted-mode report copies them.
  std::vector<LayerMetrics> predicted;
};

struct PrepCacheStats {
  size_t engine_hits = 0;    ///< full (a)-(d) skipped
  size_t engine_misses = 0;
  size_t evictions = 0;      ///< least recently used entries dropped at capacity
  /// Hits (engine, or plan on an engine miss) that found the entry still
  /// being built by another caller and blocked on it.
  size_t in_flight_waits = 0;

  // AnalysisPlan level (structural-fingerprint keyed); consulted on engine
  // misses only.
  size_t plan_cache_hits = 0;        ///< frozen plan instantiated per cell
  size_t plan_cache_misses = 0;      ///< full structure phase built + frozen
  size_t plan_cache_evictions = 0;   ///< least recently used plans dropped
  size_t plan_cache_collisions = 0;  ///< fingerprint hit, verification failed
  uint64_t plan_cache_build_ns = 0;  ///< cumulative structure-phase build time

  [[nodiscard]] double engine_hit_rate() const {
    const size_t total = engine_hits + engine_misses;
    return total == 0 ? 0.0 : static_cast<double>(engine_hits) / static_cast<double>(total);
  }
  [[nodiscard]] double plan_hit_rate() const {
    const size_t total = plan_cache_hits + plan_cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(plan_cache_hits) / static_cast<double>(total);
  }
};

/// Both fingerprints of a model graph, computed in one traversal.  Weights
/// do not enter profiling and are excluded from both.  Sweeps hoist this out
/// of their inner loops and hand it to Profiler::run / the cache so per-cell
/// lookups skip re-hashing the (shared, read-only) model graph.
struct GraphKeys {
  /// Name, I/O, nodes (names, op types, attributes) and the full tensor
  /// table (dtype, every dim, param flag).  Keys engine-level entries.
  uint64_t exact = 0;
  /// Shape-erased: same structure (op types, attributes, connectivity, param
  /// shapes) but the graph name is dropped and non-param tensors contribute
  /// only their rank — batch and sequence/position dims are symbolized.
  /// Every batch size of a model, and every KV position of an LLM decode
  /// step, map to the same structural fingerprint.  Keys AnalysisPlans.
  uint64_t structural = 0;
};
[[nodiscard]] GraphKeys compute_graph_keys(const Graph& model);

class PrepCache {
 public:
  /// Process-wide instance shared by every Profiler.
  static PrepCache& instance();

  PrepCache();
  ~PrepCache();
  PrepCache(const PrepCache&) = delete;
  PrepCache& operator=(const PrepCache&) = delete;

  /// Returns the prepared engine for (model, backend, platform, config),
  /// building at most once per key even under concurrent callers (other
  /// threads wait on the winner's in-flight build).  When the cache is
  /// disabled every call builds privately and records no stats.  `keys`, when
  /// non-null, supplies precomputed fingerprints (sweeps hoist the hashing
  /// out of their inner loops); it must describe `model` exactly.
  [[nodiscard]] std::shared_ptr<const PreparedEngine> get_or_prepare(
      const Graph& model, const backends::Backend& backend,
      const hw::PlatformDesc& platform, const backends::BuildConfig& config,
      const GraphKeys* keys = nullptr);

  /// Drops every cached entry (stats are kept; use reset_stats()).
  void clear();

  [[nodiscard]] PrepCacheStats stats() const;
  void reset_stats();

  /// Runtime switch; initial value comes from PROOF_PREP_CACHE ("0"/"false"
  /// disables).  Disabling does not clear existing entries.
  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const;

  /// Ready engine-level entries cached right now.
  [[nodiscard]] size_t size() const;

  /// Bound on engine-level entries (0 = unbounded).  Initial value comes
  /// from PROOF_PREP_CACHE_CAP (default 512).  Long-running daemons tune this
  /// to bound resident memory.  A hit marks its entry most recently used; a
  /// miss past the bound, or shrinking it, evicts the least recently used
  /// entries immediately, and they are destroyed outside the cache's lock.
  [[nodiscard]] size_t capacity() const;
  void set_capacity(size_t capacity);

  /// Ready AnalysisPlans cached right now.
  [[nodiscard]] size_t plan_cache_size() const;

  /// Bound on AnalysisPlans (0 = unbounded), evicting least recently used
  /// first like the engine level; a plan hit on an engine miss counts as a
  /// use.  Initial value comes from PROOF_PLAN_CACHE_CAP (default 128).
  [[nodiscard]] size_t plan_cache_capacity() const;
  void set_plan_cache_capacity(size_t capacity);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Uncached preparation: the exact (a)-(d) pipeline the cache memoizes.
[[nodiscard]] std::shared_ptr<const PreparedEngine> prepare_engine(
    const Graph& model, const backends::Backend& backend,
    const hw::PlatformDesc& platform, const backends::BuildConfig& config);

}  // namespace proof
