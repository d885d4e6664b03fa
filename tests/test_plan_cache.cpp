// Shape-polymorphic AnalysisPlan cache (core/analysis_plan.hpp): structural
// fingerprint properties, byte-identity of every golden between the cache and
// the uncached prepare_engine oracle, mutation-fuzz proof that structural
// rewrites invalidate the plan (no stale reuse), stats/capacity behaviour,
// the predicted per-layer metrics stored on built and instantiated entries,
// and a concurrency suite (PlanCache.*) run under TSan via
// scripts/check_tsan.sh.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/quantize.hpp"
#include "analysis/shape_inference.hpp"
#include "backends/backend.hpp"
#include "core/decode_sweep.hpp"
#include "core/prep_cache.hpp"
#include "core/profiler.hpp"
#include "core/report_json.hpp"
#include "hw/platform.hpp"
#include "models/builder.hpp"
#include "models/zoo.hpp"
#include "opt/optimizer.hpp"
#include "support/thread_pool.hpp"
#include "test_util.hpp"

#ifndef PROOF_TEST_SOURCE_DIR
#error "tests/CMakeLists.txt must define PROOF_TEST_SOURCE_DIR"
#endif

namespace proof {
namespace {

uint64_t structural_fp(const Graph& g) { return compute_graph_keys(g).structural; }

uint64_t exact_fp(const Graph& g) { return compute_graph_keys(g).exact; }

/// Fresh cache + stats; `cache_on = false` selects the uncached
/// prepare_engine oracle.  Every gtest case runs in its own ctest process
/// (gtest_discover_tests), so nothing needs restoring.
void reset_cache(bool cache_on = true) {
  PrepCache::instance().set_enabled(cache_on);
  PrepCache::instance().clear();
  PrepCache::instance().reset_stats();
}

// --- structural fingerprint properties --------------------------------------

TEST(StructuralFingerprint, DropsGraphNameKeepsExactSensitive) {
  const Graph base = proof::testing::small_cnn();
  Graph renamed = base;
  renamed.set_name("something_else");
  EXPECT_EQ(structural_fp(base), structural_fp(renamed));
  EXPECT_NE(exact_fp(base), exact_fp(renamed));
}

TEST(StructuralFingerprint, SymbolizesBatchDims) {
  const Graph base = proof::testing::small_cnn();
  Graph batched = base;
  set_batch_size(batched, 8);
  // The batch lives in non-param tensor dims (rank-erased structurally).
  EXPECT_EQ(structural_fp(base), structural_fp(batched));
  EXPECT_NE(exact_fp(base), exact_fp(batched));
}

TEST(StructuralFingerprint, SharedAcrossDecodePositions) {
  const models::LlmConfig& cfg = models::llm_config("gpt2");
  const Graph p64 = models::build_llm_decode_step(cfg, 64);
  const Graph p512 = models::build_llm_decode_step(cfg, 512);
  // The position appears only in the graph name and the past_k_/past_v_
  // input dims (models/zoo_llm.cpp contract): one structural fingerprint.
  EXPECT_EQ(structural_fp(p64), structural_fp(p512));
  EXPECT_NE(exact_fp(p64), exact_fp(p512));
  // But a genuinely different graph (prefill) must not collide.
  const Graph prefill = models::build_llm_prefill(cfg, 64);
  EXPECT_NE(structural_fp(p64), structural_fp(prefill));
}

TEST(StructuralFingerprint, SensitiveToOpTypesAttrsAndParamShapes) {
  const Graph base = proof::testing::small_cnn();

  // Op-type change (Relu -> Gelu): different fusion structure, different fp.
  models::GraphBuilder gelu_b("small_cnn");
  {
    std::string x = gelu_b.input("input", Shape{1, 3, 32, 32});
    x = gelu_b.conv(x, 8, 3, 1);
    x = gelu_b.batchnorm(x);
    x = gelu_b.act(x, "Gelu");
    std::string y = gelu_b.conv(x, 8, 3, 1);
    y = gelu_b.add(y, x);
    y = gelu_b.act(y, "Relu");
    y = gelu_b.global_avgpool(y);
    y = gelu_b.flatten(y);
    y = gelu_b.linear(y, 10);
    const Graph gelu = gelu_b.finish({y});
    EXPECT_NE(structural_fp(base), structural_fp(gelu));
  }

  // Param-shape change (8 -> 16 channels): params hash full dims.
  models::GraphBuilder wide_b("small_cnn");
  {
    std::string x = wide_b.input("input", Shape{1, 3, 32, 32});
    x = wide_b.conv(x, 16, 3, 1);
    x = wide_b.batchnorm(x);
    x = wide_b.act(x, "Relu");
    std::string y = wide_b.conv(x, 16, 3, 1);
    y = wide_b.add(y, x);
    y = wide_b.act(y, "Relu");
    y = wide_b.global_avgpool(y);
    y = wide_b.flatten(y);
    y = wide_b.linear(y, 10);
    const Graph wide = wide_b.finish({y});
    EXPECT_NE(structural_fp(base), structural_fp(wide));
  }

  // Attr change (stride 1 -> 2): attrs are hashed verbatim.
  models::GraphBuilder stride_b("small_cnn");
  {
    std::string x = stride_b.input("input", Shape{1, 3, 32, 32});
    x = stride_b.conv(x, 8, 3, 2);
    x = stride_b.batchnorm(x);
    x = stride_b.act(x, "Relu");
    x = stride_b.global_avgpool(x);
    x = stride_b.flatten(x);
    x = stride_b.linear(x, 10);
    const Graph strided = stride_b.finish({x});
    EXPECT_NE(structural_fp(base), structural_fp(strided));
  }
}

// --- golden byte-identity: cache vs the uncached oracle ----------------------

std::string golden_path(const std::string& id) {
  return std::string(PROOF_TEST_SOURCE_DIR) + "/golden/" + id + ".json";
}

std::string generate_report(const std::string& model_id) {
  ProfileOptions opt;
  opt.platform_id = "a100";
  opt.backend_id = "trt_sim";
  opt.dtype = DType::kF16;
  opt.batch = model_id == "sd_unet" ? 2 : 4;
  opt.mode = MetricMode::kPredicted;
  return testing::normalize_wall_clock(
      report_to_json(Profiler(opt).run_zoo(model_id)));
}

std::string generate_optimize() {
  opt::OptimizeOptions options;
  options.base.platform_id = "a100";
  options.base.backend_id = "trt_sim";
  options.base.dtype = DType::kF16;
  options.base.batch = 256;
  options.base.mode = MetricMode::kPredicted;
  const opt::OptimizeResult result = opt::optimize("shufflenetv2_10", options);
  return testing::normalize_wall_clock(report_to_json(
      result.final_report, false, opt::optimization_section_json(result.log)));
}

std::string generate_decode_sweep() {
  DecodeSweepOptions opt;
  opt.config_id = "gpt2";
  opt.platform_id = "a100";
  opt.backend_id = "trt_sim";
  opt.prefill_len = 512;
  opt.batches = {1, 4};
  opt.positions = {64, 256};
  return decode_sweep_json(sweep_decode(opt));
}

/// Runs `generate` through a fresh cache, then through the uncached oracle,
/// and demands byte-identical output.  When `golden_id` is non-empty the
/// cached output must also match the frozen golden on disk — the cache may
/// not even perturb the historical bytes.
void expect_on_off_identical(const std::string& golden_id,
                             std::string (*generate)()) {
  reset_cache(/*cache_on=*/true);
  const std::string with_cache = generate();
  ASSERT_FALSE(with_cache.empty());
  const PrepCacheStats stats = PrepCache::instance().stats();
  EXPECT_GE(stats.plan_cache_misses, 1u)
      << "plan cache never consulted — the comparison proves nothing";

  reset_cache(/*cache_on=*/false);
  const std::string without_cache = generate();
  EXPECT_EQ(PrepCache::instance().plan_cache_size(), 0u);
  EXPECT_EQ(PrepCache::instance().stats().plan_cache_misses, 0u);

  EXPECT_EQ(with_cache, without_cache)
      << "plan-cache instantiation diverged from the full prepare pipeline";

  if (!golden_id.empty()) {
    const std::string frozen = testing::read_file(golden_path(golden_id));
    ASSERT_FALSE(frozen.empty()) << "missing golden " << golden_path(golden_id);
    EXPECT_EQ(with_cache, frozen)
        << "plan-cache output drifted from frozen golden " << golden_id;
  }
  PrepCache::instance().set_enabled(true);
}

class PlanCacheGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(PlanCacheGolden, ReportByteIdenticalOnVsOff) {
  const std::string model_id = GetParam();
  reset_cache(true);
  const std::string on = generate_report(model_id);
  EXPECT_GE(PrepCache::instance().stats().plan_cache_misses, 1u);
  reset_cache(false);
  const std::string off = generate_report(model_id);
  EXPECT_EQ(on, off);
  const std::string frozen = testing::read_file(golden_path(model_id));
  ASSERT_FALSE(frozen.empty()) << "missing golden " << golden_path(model_id);
  EXPECT_EQ(on, frozen);
  PrepCache::instance().set_enabled(true);
}

INSTANTIATE_TEST_SUITE_P(FourZooModels, PlanCacheGolden,
                         ::testing::Values("resnet50", "bert_base",
                                           "shufflenetv2_10", "sd_unet"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(PlanCacheGoldenOptimize, ByteIdenticalOnVsOff) {
  expect_on_off_identical("optimize_shufflenetv2_10", &generate_optimize);
}

TEST(PlanCacheGoldenDecodeSweep, ByteIdenticalOnVsOff) {
  expect_on_off_identical("decode_sweep_gpt2", &generate_decode_sweep);
}

// --- predicted metrics stored on the entry -----------------------------------

/// The per-call computation Profiler::run made before the predicted metrics
/// were stored on the entry: Equation 1 over find_node of each mapped model
/// node; the kernels' bytes for an unmapped conversion layer.
PreparedEngine::LayerMetrics per_call_metrics(const PreparedEngine& prep,
                                              size_t layer) {
  const mapping::LayerMapEntry& entry = prep.mapping.entries[layer];
  const backends::BackendLayer& bl = prep.engine.layers()[layer];
  PreparedEngine::LayerMetrics metrics;
  if (!entry.model_nodes.empty()) {
    std::vector<NodeId> ids;
    for (const std::string& name : entry.model_nodes) {
      ids.push_back(prep.ar.graph().find_node(name));
    }
    metrics.flops = prep.oar.fused_flops(ids);
    metrics.bytes = prep.oar.fused_memory(ids).total();
  } else if (bl.is_reorder) {
    for (const hw::KernelWork& kernel : bl.kernels) {
      metrics.bytes += kernel.bytes;
    }
  }
  return metrics;
}

TEST(PredictedMetrics, BuiltAndInstantiatedEntriesMatchPerCallComputation) {
  const hw::PlatformDesc& platform = hw::PlatformRegistry::instance().get("a100");
  const backends::Backend& backend =
      backends::BackendRegistry::instance().get("trt_sim");
  size_t mapped = 0;
  size_t conversions = 0;
  for (const char* model_id : {"resnet50", "bert_base", "shufflenetv2_10", "sd_unet"}) {
    SCOPED_TRACE(model_id);
    const Graph model = models::build_model(model_id);
    PrepCache cache;
    cache.set_enabled(true);
    // Batch 1 builds the engine and freezes the plan; batch 8 instantiates it.
    for (const int64_t batch : {1, 8}) {
      SCOPED_TRACE(batch);
      backends::BuildConfig config;
      config.dtype = DType::kF16;
      config.batch = batch;
      const auto prep = cache.get_or_prepare(model, backend, platform, config);
      ASSERT_EQ(prep->predicted.size(), prep->engine.layers().size());
      for (size_t i = 0; i < prep->predicted.size(); ++i) {
        const PreparedEngine::LayerMetrics want = per_call_metrics(*prep, i);
        EXPECT_EQ(prep->predicted[i].flops, want.flops) << prep->engine.layers()[i].name;
        EXPECT_EQ(prep->predicted[i].bytes, want.bytes) << prep->engine.layers()[i].name;
        mapped += prep->mapping.entries[i].model_nodes.empty() ? 0 : 1;
        conversions += prep->mapping.entries[i].model_nodes.empty() &&
                               prep->engine.layers()[i].is_reorder
                           ? 1
                           : 0;
      }
    }
    EXPECT_EQ(cache.stats().plan_cache_misses, 1u);
    EXPECT_EQ(cache.stats().plan_cache_hits, 1u);
  }
  // Both branches ran.
  EXPECT_GT(mapped, 0u);
  EXPECT_GT(conversions, 0u);
}

// --- mutation fuzz: structural rewrites must invalidate the plan -------------

std::string profile_normalized(const Graph& model) {
  ProfileOptions opt;
  opt.platform_id = "a100";
  opt.backend_id = "trt_sim";
  opt.dtype = DType::kF16;
  opt.batch = 2;
  opt.mode = MetricMode::kPredicted;
  return testing::normalize_wall_clock(report_to_json(Profiler(opt).run(model)));
}

/// Seeds the plan cache with `base`, then profiles `mutated` and checks
/// (a) the mutated graph MISSES (no stale-plan reuse: misses go up, hits do
/// not) and (b) its report is byte-identical to the uncached oracle's.
void expect_invalidates(const Graph& base, const Graph& mutated) {
  ASSERT_NE(structural_fp(base), structural_fp(mutated))
      << base.name() << " vs " << mutated.name()
      << ": mutation did not change the structural fingerprint";

  reset_cache(true);
  (void)profile_normalized(base);
  const PrepCacheStats seeded = PrepCache::instance().stats();
  EXPECT_GE(seeded.plan_cache_misses, 1u);

  const std::string with_cache = profile_normalized(mutated);
  const PrepCacheStats after = PrepCache::instance().stats();
  EXPECT_GT(after.plan_cache_misses, seeded.plan_cache_misses)
      << "mutated graph did not miss the plan cache";
  EXPECT_EQ(after.plan_cache_hits, seeded.plan_cache_hits)
      << "stale plan reused for a structurally rewritten graph";

  reset_cache(false);
  const std::string without_cache = profile_normalized(mutated);
  EXPECT_EQ(with_cache, without_cache);
  PrepCache::instance().set_enabled(true);
}

TEST(PlanCacheMutationFuzz, QuantizePassInvalidates) {
  const Graph base = proof::testing::small_cnn();
  Graph qdq = base;
  const QuantizeStats qstats = quantize_to_qdq(qdq);
  ASSERT_GT(qstats.quantized_anchors, 0u);
  expect_invalidates(base, qdq);
}

TEST(PlanCacheMutationFuzz, ModRedesignInvalidates) {
  expect_invalidates(models::build_model("shufflenetv2_10"),
                     models::build_model("shufflenetv2_10_mod"));
}

TEST(PlanCacheMutationFuzz, FusionToggleRewritesInvalidate) {
  // Rewrites that flip what the backends can fuse: dropping the BN between
  // conv and activation, and swapping the activation op.  Both must re-plan.
  const Graph base = proof::testing::small_cnn();

  models::GraphBuilder no_bn("small_cnn");
  std::string x = no_bn.input("input", Shape{1, 3, 32, 32});
  x = no_bn.conv(x, 8, 3, 1);
  x = no_bn.act(x, "Relu");
  std::string y = no_bn.conv(x, 8, 3, 1);
  y = no_bn.add(y, x);
  y = no_bn.act(y, "Relu");
  y = no_bn.global_avgpool(y);
  y = no_bn.flatten(y);
  y = no_bn.linear(y, 10);
  expect_invalidates(base, no_bn.finish({y}));

  models::GraphBuilder swapped("small_cnn");
  x = swapped.input("input", Shape{1, 3, 32, 32});
  x = swapped.conv(x, 8, 3, 1);
  x = swapped.batchnorm(x);
  x = swapped.act(x, "Sigmoid");
  y = swapped.conv(x, 8, 3, 1);
  y = swapped.add(y, x);
  y = swapped.act(y, "Sigmoid");
  y = swapped.global_avgpool(y);
  y = swapped.flatten(y);
  y = swapped.linear(y, 10);
  expect_invalidates(base, swapped.finish({y}));
}

TEST(PlanCacheMutationFuzz, BatchChangeHitsAndStaysByteIdentical) {
  // Positive control: the shape-only change the cache exists for must HIT and
  // still reproduce the oracle's bytes.
  const Graph model = proof::testing::small_cnn();
  const auto profile_at = [&](int64_t batch) {
    ProfileOptions opt;
    opt.platform_id = "a100";
    opt.backend_id = "trt_sim";
    opt.dtype = DType::kF16;
    opt.batch = batch;
    opt.mode = MetricMode::kPredicted;
    return testing::normalize_wall_clock(report_to_json(Profiler(opt).run(model)));
  };

  reset_cache(true);
  (void)profile_at(2);
  const std::string hit_json = profile_at(4);
  const PrepCacheStats stats = PrepCache::instance().stats();
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_EQ(stats.plan_cache_collisions, 0u);

  reset_cache(false);
  EXPECT_EQ(hit_json, profile_at(4));
  PrepCache::instance().set_enabled(true);
}

// --- concurrency + stats suite (TSan: scripts/check_tsan.sh) -----------------

backends::BuildConfig config_for_batch(int64_t batch) {
  backends::BuildConfig config;
  config.dtype = DType::kF16;
  config.batch = batch;
  return config;
}

TEST(PlanCache, ConcurrentMixedBatchesShareOnePlan) {
  reset_cache(true);
  const Graph model = proof::testing::small_cnn();
  const backends::Backend& backend =
      backends::BackendRegistry::instance().get("trt_sim");
  const hw::PlatformDesc& platform =
      hw::PlatformRegistry::instance().get("a100");
  const std::vector<int64_t> batches = {1, 2, 3, 4, 5, 6, 7, 8};

  constexpr size_t kRounds = 4;
  ThreadPool pool(8);
  const size_t total = batches.size() * kRounds;
  std::vector<std::shared_ptr<const PreparedEngine>> results(total);
  pool.parallel_for(total, [&](size_t i) {
    results[i] = PrepCache::instance().get_or_prepare(
        model, backend, platform, config_for_batch(batches[i % batches.size()]));
  });

  std::set<const PreparedEngine*> distinct;
  for (size_t i = 0; i < total; ++i) {
    ASSERT_NE(results[i], nullptr);
    distinct.insert(results[i].get());
    EXPECT_EQ(results[i].get(), results[i % batches.size()].get());
  }
  EXPECT_EQ(distinct.size(), batches.size());

  const PrepCacheStats stats = PrepCache::instance().stats();
  EXPECT_EQ(stats.engine_misses, batches.size());
  EXPECT_EQ(stats.engine_hits, total - batches.size());
  // One structure phase for all 8 batches; every other engine build
  // instantiated the shared frozen plan.
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_EQ(stats.plan_cache_hits, batches.size() - 1);
  EXPECT_EQ(stats.plan_cache_collisions, 0u);
  EXPECT_EQ(PrepCache::instance().plan_cache_size(), 1u);
}

TEST(PlanCache, CapacityBoundsPlansAndShrinksEagerly) {
  reset_cache(true);
  const size_t original = PrepCache::instance().plan_cache_capacity();
  PrepCache::instance().set_plan_cache_capacity(1);
  EXPECT_EQ(PrepCache::instance().plan_cache_capacity(), 1u);

  const backends::Backend& backend =
      backends::BackendRegistry::instance().get("trt_sim");
  const hw::PlatformDesc& platform =
      hw::PlatformRegistry::instance().get("a100");
  const Graph cnn = proof::testing::small_cnn();
  const Graph transformer = proof::testing::small_transformer();

  (void)PrepCache::instance().get_or_prepare(cnn, backend, platform,
                                             config_for_batch(1));
  (void)PrepCache::instance().get_or_prepare(transformer, backend, platform,
                                             config_for_batch(1));
  EXPECT_EQ(PrepCache::instance().plan_cache_size(), 1u);
  EXPECT_EQ(PrepCache::instance().stats().plan_cache_evictions, 1u);

  // The evicted plan rebuilds on demand — a miss, never an error.
  (void)PrepCache::instance().get_or_prepare(cnn, backend, platform,
                                             config_for_batch(2));
  EXPECT_EQ(PrepCache::instance().stats().plan_cache_misses, 3u);

  // Capacity 0 = unbounded; raising the cap keeps current entries.
  PrepCache::instance().set_plan_cache_capacity(0);
  (void)PrepCache::instance().get_or_prepare(transformer, backend, platform,
                                             config_for_batch(2));
  EXPECT_EQ(PrepCache::instance().plan_cache_size(), 2u);
  PrepCache::instance().set_plan_cache_capacity(original);
}

TEST(PlanCache, EvictsTheLeastRecentlyUsedPlan) {
  reset_cache(true);
  const backends::Backend& backend =
      backends::BackendRegistry::instance().get("trt_sim");
  const hw::PlatformDesc& platform =
      hw::PlatformRegistry::instance().get("a100");
  const Graph cnn = proof::testing::small_cnn();
  const Graph transformer = proof::testing::small_transformer();
  const auto get = [&](const Graph& model, DType dtype, int64_t batch) {
    (void)PrepCache::instance().get_or_prepare(model, backend, platform,
                                               {dtype, batch});
  };

  const size_t original = PrepCache::instance().plan_cache_capacity();
  PrepCache::instance().set_plan_cache_capacity(2);
  get(cnn, DType::kF16, 1);
  get(transformer, DType::kF16, 1);
  // An engine miss at a new batch hits the cnn plan and makes it the newest use.
  get(cnn, DType::kF16, 2);
  EXPECT_EQ(PrepCache::instance().stats().plan_cache_hits, 1u);
  // A third plan evicts the transformer's, not the older cnn one.
  get(cnn, DType::kF32, 1);
  EXPECT_EQ(PrepCache::instance().stats().plan_cache_evictions, 1u);
  get(cnn, DType::kF16, 3);
  EXPECT_EQ(PrepCache::instance().stats().plan_cache_hits, 2u);
  EXPECT_EQ(PrepCache::instance().stats().plan_cache_misses, 3u);
  get(transformer, DType::kF16, 2);
  EXPECT_EQ(PrepCache::instance().stats().plan_cache_misses, 4u);
  PrepCache::instance().set_plan_cache_capacity(original);
}

TEST(PlanCache, ClearDropsPlansButKeepsStats) {
  reset_cache(true);
  const Graph model = proof::testing::small_cnn();
  const backends::Backend& backend =
      backends::BackendRegistry::instance().get("trt_sim");
  const hw::PlatformDesc& platform =
      hw::PlatformRegistry::instance().get("a100");
  (void)PrepCache::instance().get_or_prepare(model, backend, platform,
                                             config_for_batch(1));
  EXPECT_EQ(PrepCache::instance().plan_cache_size(), 1u);
  PrepCache::instance().clear();
  EXPECT_EQ(PrepCache::instance().plan_cache_size(), 0u);
  EXPECT_EQ(PrepCache::instance().stats().plan_cache_misses, 1u);
  const uint64_t build_ns = PrepCache::instance().stats().plan_cache_build_ns;
  EXPECT_GT(build_ns, 0u) << "structure-phase build time not accounted";
}

}  // namespace
}  // namespace proof
