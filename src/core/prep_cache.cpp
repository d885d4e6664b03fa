#include "core/prep_cache.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <iterator>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string_view>
#include <tuple>
#include <variant>
#include <vector>

#include "backends/prepare.hpp"
#include "core/analysis_plan.hpp"
#include "obs/span.hpp"
#include "support/error.hpp"

namespace proof {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- graph fingerprints ------------------------------------------------------

/// splitmix64's finalizer: every input bit flips each output bit with
/// probability ~1/2.  Engine-level hits are not re-verified, so words are
/// folded through it rather than xor-ed or added.
constexpr uint64_t avalanche(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Order-sensitive fold of 64-bit words.
class KeyHash {
 public:
  void mix(uint64_t word) { state_ = avalanche(state_ ^ word); }
  void mix(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  }
  [[nodiscard]] uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xCBF29CE484222325ull;
};

uint64_t word_of(std::string_view s) {
  return static_cast<uint64_t>(std::hash<std::string_view>{}(s));
}

/// One word for a node's attributes; both keys fold it verbatim.
uint64_t attrs_word(const AttrMap& attrs) {
  KeyHash h;
  for (const auto& [key, value] : attrs.raw()) {
    h.mix(word_of(key));
    h.mix(static_cast<uint64_t>(value.index()));
    if (const auto* i = std::get_if<int64_t>(&value)) {
      h.mix(static_cast<uint64_t>(*i));
    } else if (const auto* d = std::get_if<double>(&value)) {
      h.mix(*d);
    } else if (const auto* s = std::get_if<std::string>(&value)) {
      h.mix(word_of(*s));
    } else if (const auto* is = std::get_if<std::vector<int64_t>>(&value)) {
      h.mix(static_cast<uint64_t>(is->size()));
      for (const int64_t v : *is) {
        h.mix(static_cast<uint64_t>(v));
      }
    } else if (const auto* ds = std::get_if<std::vector<double>>(&value)) {
      h.mix(static_cast<uint64_t>(ds->size()));
      for (const double v : *ds) {
        h.mix(v);
      }
    }
  }
  return h.value();
}

}  // namespace

/// One traversal for both keys: each string and each node's attrs is hashed
/// once into a word that both accumulators fold.
///
/// The structural stream is shape-erased: the graph name is dropped (decode
/// positions and renamed copies of a model share structure) and non-param
/// tensors contribute only their rank — batch and sequence/position dims are
/// symbolized.  Param shapes stay (they size the weight traffic recipes
/// replay) and node attrs stay verbatim: attrs are structural inputs to
/// fusion/lowering, and the per-cell attr divergence set_batch_size creates
/// is handled by instantiate_plan_graph's attr restoration, never by the key.
GraphKeys compute_graph_keys(const Graph& model) {
  KeyHash exact;
  KeyHash structural;
  const auto both = [&](uint64_t word) {
    exact.mix(word);
    structural.mix(word);
  };
  const auto names = [&](const std::vector<std::string>& list) {
    both(static_cast<uint64_t>(list.size()));
    for (const std::string& name : list) {
      both(word_of(name));
    }
  };
  exact.mix(word_of(model.name()));
  names(model.inputs());
  names(model.outputs());
  both(static_cast<uint64_t>(model.num_nodes()));
  for (const Node& node : model.nodes()) {
    both(word_of(node.name));
    both(word_of(node.op_type));
    names(node.inputs);
    names(node.outputs);
    both(attrs_word(node.attrs));
  }
  for (const auto& [name, desc] : model.tensors()) {
    both(word_of(name));
    both(static_cast<uint64_t>(desc.dtype));
    both(static_cast<uint64_t>(desc.is_param ? 1 : 0));
    if (desc.is_param) {
      for (const int64_t dim : desc.shape.dims()) {
        both(static_cast<uint64_t>(dim));
      }
    } else {
      for (const int64_t dim : desc.shape.dims()) {
        exact.mix(static_cast<uint64_t>(dim));
      }
      structural.mix(static_cast<uint64_t>(desc.shape.rank()));
    }
  }
  return GraphKeys{exact.value(), structural.value()};
}

// --- PreparedEngine ----------------------------------------------------------

PreparedEngine::PreparedEngine(backends::Engine engine_in,
                               mapping::LayerMapping mapping_in)
    : engine(std::move(engine_in)),
      ar(engine.shared_analysis_graph(), AnalyzeRepresentation::TrustedGraphTag{}),
      oar(ar),
      mapping(std::move(mapping_in)) {}

PreparedEngine::PreparedEngine(backends::Engine engine_in,
                               mapping::LayerMapping mapping_in,
                               AnalyzeRepresentation ar_in)
    : engine(std::move(engine_in)),
      ar(std::move(ar_in)),
      oar(ar),
      mapping(std::move(mapping_in)) {}

// --- PrepCache ---------------------------------------------------------------

namespace {

using PlanKey = std::tuple<uint64_t, std::string, std::string, DType>;
using EngineKey = std::tuple<uint64_t, std::string, std::string, DType, int64_t>;

bool env_flag_enabled(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) {
    return true;
  }
  return !(std::strcmp(env, "0") == 0 || std::strcmp(env, "false") == 0 ||
           std::strcmp(env, "off") == 0);
}

bool env_enables_cache() { return env_flag_enabled("PROOF_PREP_CACHE"); }

size_t env_capacity_or(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != nullptr && *end == '\0') {
      return static_cast<size_t>(v);  // 0 = unbounded
    }
  }
  return fallback;
}

/// Default LRU eviction bound (memory backstop); PROOF_PREP_CACHE_CAP
/// overrides it at startup, set_capacity() at runtime.
size_t env_capacity() { return env_capacity_or("PROOF_PREP_CACHE_CAP", 512); }

size_t env_plan_capacity() {
  return env_capacity_or("PROOF_PLAN_CACHE_CAP", 128);
}

/// Fills entry.predicted.  `member_ids[i]` are the ids of layer i's mapped
/// model nodes in the entry's analysis graph, in mapping order.
void store_predicted_metrics(PreparedEngine& entry,
                             const std::vector<std::vector<NodeId>>& member_ids) {
  const std::vector<backends::BackendLayer>& layers = entry.engine.layers();
  entry.predicted.resize(layers.size());
  for (size_t i = 0; i < layers.size(); ++i) {
    PreparedEngine::LayerMetrics& metrics = entry.predicted[i];
    if (!member_ids[i].empty()) {
      metrics.flops = entry.oar.fused_flops(member_ids[i]);
      metrics.bytes = entry.oar.fused_memory(member_ids[i]).total();
    } else if (layers[i].is_reorder) {
      // Conversion layer: traffic derivable from its I/O tensor sizes.
      for (const hw::KernelWork& kernel : layers[i].kernels) {
        metrics.bytes += kernel.bytes;
      }
    }
  }
}

/// Runs the full (a)-(d) pipeline; fills `*out_analysis_plan` (when non-null)
/// with the frozen structure phase for AnalysisPlan publication.
std::shared_ptr<const PreparedEngine> build_prepared(
    const Graph& model, const backends::Backend& backend,
    const hw::PlatformDesc& platform, const backends::BuildConfig& config,
    std::optional<AnalysisPlan>* out_analysis_plan = nullptr) {
  Graph prepared = backends::prepare_model(model, config, platform);
  const backends::BuildPlan plan = [&] {
    PROOF_SPAN("prepare.plan");
    return backend.plan(prepared);
  }();
  backends::Engine engine = [&] {
    PROOF_SPAN("prepare.lower");
    return backend.lower(std::move(prepared), plan, config, platform);
  }();

  PROOF_SPAN("prepare.analysis");
  const double t0 = now_s();
  auto entry = std::make_shared<PreparedEngine>(std::move(engine),
                                                mapping::LayerMapping{});
  entry->mapping = mapping::map_layers(entry->engine, entry->oar);
  entry->mapping_coverage = entry->mapping.node_coverage(entry->ar.num_nodes());
  entry->unmapped_layers = entry->mapping.count(mapping::MapMethod::kUnmapped);
  entry->analysis_time_s = now_s() - t0;

  // Shared entries are read concurrently; materialize every lazy index now
  // (a const lookup is otherwise a first-use write — a data race).  The
  // engine, the AR and the plan skeleton share this one graph.
  entry->engine.analysis_graph().warm_indices();

  std::vector<std::vector<NodeId>> member_ids;
  member_ids.reserve(entry->mapping.entries.size());
  for (const mapping::LayerMapEntry& mapped : entry->mapping.entries) {
    std::vector<NodeId>& ids = member_ids.emplace_back();
    ids.reserve(mapped.model_nodes.size());
    for (const std::string& name : mapped.model_nodes) {
      ids.push_back(entry->ar.graph().find_node(name));
    }
  }
  store_predicted_metrics(*entry, member_ids);

  if (out_analysis_plan != nullptr) {
    *out_analysis_plan =
        build_analysis_plan(entry->engine, plan, entry->mapping);
  }
  return entry;
}

/// Plan-cache hit path: instantiates a frozen AnalysisPlan for one cell.
/// One graph copy + one shape-inference pass + recipe/mapping replay — no
/// validation, no fusion planning, no mapping search.  Byte-identical to
/// build_prepared over the same (model, config).
std::shared_ptr<const PreparedEngine> instantiate_prepared(
    const AnalysisPlan& plan, const Graph& model,
    const hw::PlatformDesc& platform, const backends::BuildConfig& config) {
  PROOF_SPAN("prepare.instantiate");
  const std::shared_ptr<const Graph> g = [&] {
    PROOF_SPAN("instantiate.graph");
    return std::make_shared<const Graph>(
        instantiate_plan_graph(plan, model, config));
  }();
  // AR first: its per-node evaluations feed the recipe replay, and the
  // engine shares the same graph — one graph, analyzed once, per cell.
  // analysis_time_s mirrors build_prepared's accounting (AR/OAR + mapping,
  // not lowering), so the replay in the middle is excluded.
  const double t0 = now_s();
  AnalyzeRepresentation ar = [&] {
    PROOF_SPAN("instantiate.analysis");
    return AnalyzeRepresentation(g, AnalyzeRepresentation::TrustedGraphTag{});
  }();
  double analysis_s = now_s() - t0;
  std::vector<backends::BackendLayer> layers = [&] {
    PROOF_SPAN("instantiate.replay");
    return replay_plan_layers(plan, *g, platform, &ar.analyses());
  }();
  backends::Engine engine(plan.backend_id, g, std::move(layers), config,
                          plan.stream_policy);

  const double t1 = now_s();
  auto entry = std::make_shared<PreparedEngine>(std::move(engine),
                                                plan.mapping, std::move(ar));
  mapping::apply_mapping(entry->engine, entry->oar, entry->mapping,
                         plan.mapping_node_ids);
  entry->mapping_coverage = plan.mapping_coverage;
  entry->unmapped_layers = plan.unmapped_layers;
  entry->analysis_time_s = analysis_s + (now_s() - t1);
  store_predicted_metrics(*entry, plan.mapping_node_ids);

  // Engine and AR share one analysis graph here; one warm covers both (and
  // clone_warm already produced it warm — this is a cheap validity check).
  entry->engine.analysis_graph().warm_indices();
  return entry;
}

/// Non-blocking: true once the future holds its value or exception.
template <typename T>
bool is_ready(const std::shared_future<T>& future) {
  return future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// A cached entry, rethrowing its builder's exception.  Blocking on another
/// caller's in-flight build runs inside a prep_cache.wait span.
template <typename T>
T get_entry(const std::shared_future<T>& future, bool in_flight) {
  if (!in_flight) {
    return future.get();
  }
  PROOF_SPAN("prep_cache.wait");
  return future.get();
}

/// One cache level: entries by key plus their recency order.  A hit moves
/// its entry to the back of the order; eviction drops from the front, so the
/// entries every request touches stay resident however old they are.  The
/// caller holds the cache mutex for every member.
template <typename Key, typename Value>
struct LruLevel {
  using Future = std::shared_future<std::shared_ptr<const Value>>;
  struct Slot {
    Future future;
    typename std::list<Key>::iterator order;
  };

  explicit LruLevel(size_t capacity_in) : capacity(capacity_in) {}

  /// The entry for `key`, now the most recently used; nullptr on a miss.
  const Future* touch(const Key& key) {
    const auto it = slots.find(key);
    if (it == slots.end()) {
      return nullptr;
    }
    order.splice(order.end(), order, it->second.order);
    return &it->second.future;
  }

  /// Adds `key` (absent) as the most recently used entry.
  void insert(const Key& key, Future future) {
    order.push_back(key);
    slots.emplace(key, Slot{std::move(future), std::prev(order.end())});
  }

  void erase(const Key& key) {
    const auto it = slots.find(key);
    if (it != slots.end()) {
      order.erase(it->second.order);
      slots.erase(it);
    }
  }

  void clear() {
    slots.clear();
    order.clear();
  }

  /// Drops least recently used entries until the level fits its capacity and
  /// returns them, so the caller destroys them after releasing the mutex.
  /// An entry just inserted or touched is the most recently used and, with
  /// any capacity >= 1, survives.
  [[nodiscard]] std::vector<Future> evict_over_capacity() {
    std::vector<Future> victims;
    while (capacity != 0 && order.size() > capacity) {
      const auto it = slots.find(order.front());
      victims.push_back(std::move(it->second.future));
      slots.erase(it);
      order.pop_front();
    }
    return victims;
  }

  size_t capacity;  ///< 0 = unbounded
  std::map<Key, Slot> slots;
  std::list<Key> order;  ///< least recently used first
};

}  // namespace

std::shared_ptr<const PreparedEngine> prepare_engine(
    const Graph& model, const backends::Backend& backend,
    const hw::PlatformDesc& platform, const backends::BuildConfig& config) {
  return build_prepared(model, backend, platform, config);
}

struct PrepCache::Impl {
  /// Entries one eviction pass dropped; destroyed after `mu` is released.
  struct Victims {
    std::vector<std::shared_future<std::shared_ptr<const PreparedEngine>>> engines;
    std::vector<std::shared_future<std::shared_ptr<const AnalysisPlan>>> plans;
  };

  /// Evicts each level down to its capacity and counts what went.  The
  /// caller holds `mu`.
  [[nodiscard]] Victims evict() {
    Victims victims{engines.evict_over_capacity(), plans.evict_over_capacity()};
    if (!victims.engines.empty()) {
      stats.evictions += victims.engines.size();
      PROOF_COUNT("prep_cache.evictions", victims.engines.size());
    }
    if (!victims.plans.empty()) {
      stats.plan_cache_evictions += victims.plans.size();
      PROOF_COUNT("plan_cache.evictions", victims.plans.size());
    }
    return victims;
  }

  mutable std::mutex mu;
  bool enabled = env_enables_cache();
  PrepCacheStats stats;
  LruLevel<EngineKey, PreparedEngine> engines{env_capacity()};
  /// AnalysisPlan level, keyed on the *structural* fingerprint.
  LruLevel<PlanKey, AnalysisPlan> plans{env_plan_capacity()};
};

PrepCache::PrepCache() : impl_(std::make_unique<Impl>()) {}
PrepCache::~PrepCache() = default;

PrepCache& PrepCache::instance() {
  // Leaked singleton: cached engines may be referenced from arbitrary threads
  // at shutdown, so never run the destructor.
  static PrepCache* cache = new PrepCache();
  return *cache;
}

void PrepCache::clear() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->engines.clear();
  impl_->plans.clear();
}

PrepCacheStats PrepCache::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->stats;
}

void PrepCache::reset_stats() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->stats = PrepCacheStats{};
}

void PrepCache::set_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->enabled = enabled;
}

bool PrepCache::enabled() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->enabled;
}

size_t PrepCache::size() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->engines.slots.size();
}

size_t PrepCache::capacity() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->engines.capacity;
}

void PrepCache::set_capacity(size_t capacity) {
  Impl::Victims victims;  // declared before the lock: destroyed after it
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->engines.capacity = capacity;
  victims = impl_->evict();
}

size_t PrepCache::plan_cache_size() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->plans.slots.size();
}

size_t PrepCache::plan_cache_capacity() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->plans.capacity;
}

void PrepCache::set_plan_cache_capacity(size_t capacity) {
  Impl::Victims victims;  // declared before the lock: destroyed after it
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->plans.capacity = capacity;
  victims = impl_->evict();
}

std::shared_ptr<const PreparedEngine> PrepCache::get_or_prepare(
    const Graph& model, const backends::Backend& backend,
    const hw::PlatformDesc& platform, const backends::BuildConfig& config,
    const GraphKeys* keys) {
  if (!enabled()) {
    return prepare_engine(model, backend, platform, config);
  }

  const GraphKeys graph_keys =
      keys != nullptr ? *keys : compute_graph_keys(model);
  const EngineKey ekey{graph_keys.exact, backend.id(), platform.id,
                       config.dtype, config.batch};
  const PlanKey skey{graph_keys.structural, backend.id(), platform.id,
                     config.dtype};

  // Registered under the lock when this call is the builder for its key, so
  // concurrent callers of the same key wait on the winner's in-flight build.
  // An engine miss either joins a published plan (aplan_future) or becomes the
  // builder of its structural key too (aplan_promise).
  std::promise<std::shared_ptr<const PreparedEngine>> engine_promise;
  std::optional<std::promise<std::shared_ptr<const AnalysisPlan>>> aplan_promise;
  std::shared_future<std::shared_ptr<const AnalysisPlan>> aplan_future;

  std::shared_future<std::shared_ptr<const PreparedEngine>> ready;
  bool is_hit = false;
  bool in_flight = false;  // the hit joins another caller's unfinished build
  {
    // The obs counters are bumped here, inside the same critical section as
    // the struct ledger, so the two stay reconciled: every lookup lands its
    // lookup + (hit xor miss) increments back-to-back under the lock instead
    // of counting the hit only after a potentially long blocking wait on the
    // builder's future — a concurrently sampled stats snapshot (the serve
    // daemon's `stats` endpoint) would otherwise read lookups > hits + misses
    // for the whole duration of a build.
    Impl::Victims victims;  // declared before the lock: destroyed after it
    std::lock_guard<std::mutex> lock(impl_->mu);
    PROOF_COUNT("prep_cache.lookups", 1);
    if (const auto* hit = impl_->engines.touch(ekey)) {
      ++impl_->stats.engine_hits;
      PROOF_COUNT("prep_cache.hits", 1);
      ready = *hit;
      is_hit = true;
      in_flight = !is_ready(ready);
    } else {
      ++impl_->stats.engine_misses;
      PROOF_COUNT("prep_cache.misses", 1);
      ready = engine_promise.get_future().share();
      impl_->engines.insert(ekey, ready);
      // AnalysisPlan level: structural-fingerprint keyed, shared across batch
      // sizes and decode positions.
      if (const auto* plan = impl_->plans.touch(skey)) {
        ++impl_->stats.plan_cache_hits;
        PROOF_COUNT("plan_cache.hits", 1);
        aplan_future = *plan;
        in_flight = !is_ready(aplan_future);
      } else {
        ++impl_->stats.plan_cache_misses;
        PROOF_COUNT("plan_cache.misses", 1);
        aplan_promise.emplace();
        impl_->plans.insert(skey, aplan_promise->get_future().share());
      }
      victims = impl_->evict();
    }
    if (in_flight) {
      ++impl_->stats.in_flight_waits;
      PROOF_COUNT("prep_cache.in_flight_waits", 1);
    }
  }

  if (is_hit) {
    return get_entry(ready, in_flight);
  }

  // This call is the builder for its key.
  try {
    std::shared_ptr<const PreparedEngine> entry;
    if (aplan_future.valid()) {
      // Structural hit: instantiate the frozen plan.  A fingerprint collision
      // (structurally incompatible graph) or an instantiation error falls
      // back to a full build without touching the published plan.
      const std::shared_ptr<const AnalysisPlan> aplan =
          get_entry(aplan_future, in_flight);
      if (plan_compatible(*aplan, model)) {
        try {
          entry = instantiate_prepared(*aplan, model, platform, config);
        } catch (const Error&) {
          PROOF_COUNT("plan_cache.fallbacks", 1);
        }
      } else {
        {
          std::lock_guard<std::mutex> lock(impl_->mu);
          ++impl_->stats.plan_cache_collisions;
        }
        PROOF_COUNT("plan_cache.collisions", 1);
      }
      if (entry == nullptr) {
        entry = build_prepared(model, backend, platform, config);
      }
    } else {
      // This call is also the builder for its structural key: run the full
      // pipeline once and freeze the structure phase for every later cell.
      const auto t0 = std::chrono::steady_clock::now();
      std::optional<AnalysisPlan> built_aplan;
      entry = build_prepared(model, backend, platform, config, &built_aplan);
      aplan_promise->set_value(
          std::make_shared<const AnalysisPlan>(std::move(*built_aplan)));
      const uint64_t build_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      {
        std::lock_guard<std::mutex> lock(impl_->mu);
        impl_->stats.plan_cache_build_ns += build_ns;
      }
      PROOF_COUNT("plan_cache.build_ns", build_ns);
    }
    engine_promise.set_value(entry);
    return entry;
  } catch (...) {
    // Publish the failure to current waiters, then drop the keys so later
    // calls rebuild instead of replaying a stale error.
    if (aplan_promise.has_value()) {
      aplan_promise->set_exception(std::current_exception());
    }
    engine_promise.set_exception(std::current_exception());
    {
      std::lock_guard<std::mutex> lock(impl_->mu);
      impl_->engines.erase(ekey);
      if (aplan_promise.has_value()) {
        impl_->plans.erase(skey);
      }
    }
    throw;
  }
}

}  // namespace proof
