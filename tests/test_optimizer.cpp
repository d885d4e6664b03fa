// The production optimizer end to end (ISSUE 8): bottleneck classifier,
// classification-keyed variant generation, and the guarded loop rediscovering
// the paper's two case studies:
//   * §4.5 — ShuffleNetV2 x1.0 on the A100: classified bandwidth-bound with
//     a dominant reorder share; the channel-shuffle-removal redesign
//     (`shufflenetv2_10_mod`) is proposed, measured, and accepted;
//   * §4.6 — EfficientNetV2-T on the Orin NX under a 15 W budget: the
//     nominal-clock baseline is infeasible; the clock axis explores the DVFS
//     grid and the guard lands on GPU 612 / EMC 2133 (Table 7's "ours") with
//     < 5% performance loss versus the unconstrained memory clock.
// Plus the determinism contract: the optimization report is byte-identical
// at --jobs 1 and --jobs 4.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/prep_cache.hpp"
#include "core/report_json.hpp"
#include "hw/platform.hpp"
#include "models/zoo.hpp"
#include "opt/optimizer.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"
#include "test_util.hpp"

namespace proof::opt {
namespace {

ProfileOptions base_options(const std::string& platform, int64_t batch) {
  ProfileOptions opt;
  opt.platform_id = platform;
  opt.batch = batch;
  opt.mode = MetricMode::kPredicted;
  const auto& desc = hw::PlatformRegistry::instance().get(platform);
  opt.dtype = desc.supports(DType::kF16) ? DType::kF16 : DType::kF32;
  return opt;
}

BottleneckReport classify_model(const std::string& model_id,
                                const ProfileOptions& opt) {
  const ProfileReport report =
      Profiler(opt).run(models::build_model(model_id));
  return classify(report,
                  hw::PlatformRegistry::instance().get(opt.platform_id));
}

// --- classifier --------------------------------------------------------------

TEST(OptClassifier, Fp32ResNetAtLargeBatchIsComputeBound) {
  ProfileOptions opt = base_options("a100", 256);
  opt.dtype = DType::kF32;
  const BottleneckReport cls = classify_model("resnet50", opt);
  EXPECT_EQ(cls.kind, Bottleneck::kCompute);
  EXPECT_GT(cls.compute_share, 0.8);
  EXPECT_EQ(cls.dominant_layers.size(), 3u);
}

TEST(OptClassifier, ShuffleNetIsBandwidthBoundWithDominantReorderShare) {
  // The §4.5 signal: over a third of the wall time in channel-shuffle
  // (Reshape/Transpose) data movement.
  const BottleneckReport cls =
      classify_model("shufflenetv2_10", base_options("a100", 2048));
  EXPECT_EQ(cls.kind, Bottleneck::kBandwidth);
  EXPECT_GT(cls.reorder_share, 0.35);
  EXPECT_LT(cls.compute_share, 0.2);
}

TEST(OptClassifier, TinyModelAtBatchOneIsOverheadBound) {
  // Per-kernel launch cost dwarfs the microseconds of useful work.
  const BottleneckReport cls =
      classify_model("mobilenetv2_05", base_options("a100", 1));
  EXPECT_EQ(cls.kind, Bottleneck::kOverhead);
  EXPECT_GT(cls.overhead_share, 0.35);
}

TEST(OptClassifier, SharesPartitionTheKernelTime) {
  const BottleneckReport cls =
      classify_model("resnet50", base_options("a100", 64));
  EXPECT_NEAR(cls.compute_share + cls.bandwidth_share + cls.reorder_share, 1.0,
              1e-9);
  EXPECT_GE(cls.overhead_share, 0.0);
  EXPECT_LE(cls.overhead_share, 1.0);
}

// --- variant generator -------------------------------------------------------

ProposalContext a100_context() {
  ProposalContext ctx;
  ctx.model_id = "shufflenetv2_10";
  ctx.platform_id = "a100";
  ctx.backend_id = "trt_sim";
  ctx.batch = 256;
  ctx.gpu_mhz = 1410.0;
  ctx.mem_mhz = 1215.0;
  ctx.supports_int8 = true;
  return ctx;
}

BottleneckReport classification(Bottleneck kind) {
  BottleneckReport cls;
  cls.kind = kind;
  return cls;
}

bool has_variant(const std::vector<Variant>& variants, const std::string& id) {
  for (const Variant& v : variants) {
    if (v.id == id) {
      return true;
    }
  }
  return false;
}

TEST(OptVariants, BandwidthBoundProposesTheModRedesign) {
  const std::vector<Variant> variants =
      propose_variants(a100_context(), classification(Bottleneck::kBandwidth));
  EXPECT_TRUE(has_variant(variants, "model=shufflenetv2_10_mod"));
  EXPECT_TRUE(has_variant(variants, "precision=int8"));
}

TEST(OptVariants, ComputeBoundSkipsTheModRedesignWithoutReorderShare) {
  ProposalContext ctx = a100_context();
  const std::vector<Variant> variants =
      propose_variants(ctx, classification(Bottleneck::kCompute));
  EXPECT_FALSE(has_variant(variants, "model=shufflenetv2_10_mod"));
  // Batch probes one step in each direction.
  EXPECT_TRUE(has_variant(variants, "batch=512"));
  EXPECT_TRUE(has_variant(variants, "batch=128"));
}

TEST(OptVariants, OverheadBoundScalesBatchUpOnly) {
  const std::vector<Variant> variants =
      propose_variants(a100_context(), classification(Bottleneck::kOverhead));
  EXPECT_TRUE(has_variant(variants, "batch=512"));
  EXPECT_TRUE(has_variant(variants, "batch=1024"));
  EXPECT_FALSE(has_variant(variants, "batch=128"));
}

TEST(OptVariants, ClockAxisNeedsAPowerIncentive) {
  ProposalContext ctx = a100_context();
  size_t clock_variants = 0;
  for (const Variant& v :
       propose_variants(ctx, classification(Bottleneck::kBandwidth))) {
    clock_variants += v.axis == "clocks";
  }
  EXPECT_EQ(clock_variants, 0u) << "latency objective, no budget";

  ctx.power_budget_w = 200.0;
  clock_variants = 0;
  for (const Variant& v :
       propose_variants(ctx, classification(Bottleneck::kBandwidth))) {
    clock_variants += v.axis == "clocks";
  }
  EXPECT_GT(clock_variants, 0u) << "a power budget enables the DVFS grid";
}

TEST(OptVariants, AxisConfigRoundTripsAndRejectsUnknownNames) {
  EXPECT_EQ(axes_to_string(axes_from_string("model,clocks")), "model,clocks");
  const AxisConfig all;
  EXPECT_EQ(axes_to_string(all), "model,precision,batch,backend,clocks");
  EXPECT_THROW((void)axes_from_string("model,warp"), ConfigError);
  EXPECT_THROW((void)objective_from_name("speed"), ConfigError);
}

TEST(OptVariants, QuantizedContextDoesNotReproposeInt8) {
  ProposalContext ctx = a100_context();
  ctx.quantized = true;
  EXPECT_FALSE(has_variant(
      propose_variants(ctx, classification(Bottleneck::kCompute)),
      "precision=int8"));
}

// --- §4.5 rediscovery --------------------------------------------------------

TEST(OptCaseStudies, RediscoversShuffleRemovalOnA100) {
  OptimizeOptions options;
  options.base = base_options("a100", 2048);
  const OptimizeResult result = optimize("shufflenetv2_10", options);

  // Classified bandwidth-bound with the reorder share the paper points at.
  ASSERT_FALSE(result.log.rounds.empty());
  const BottleneckReport& cls = result.log.rounds[0].classification;
  EXPECT_EQ(cls.kind, Bottleneck::kBandwidth);
  EXPECT_GT(cls.reorder_share, 0.35);

  // The redesign was proposed AND accepted; the loop converged on it.
  ASSERT_FALSE(result.log.accepted_chain.empty());
  EXPECT_EQ(result.log.accepted_chain[0], "model=shufflenetv2_10_mod");
  EXPECT_EQ(result.final_model_id, "shufflenetv2_10_mod");
  EXPECT_EQ(result.final_report.model_name, "shufflenetv2_10_mod");

  // Table 5 territory: 1.39–1.64x on real hardware; the simulator lands in
  // a generous band around it.
  const double speedup =
      result.baseline_report.total_latency_s / result.final_report.total_latency_s;
  EXPECT_GT(speedup, 1.15);
  EXPECT_LT(speedup, 2.2);

  // Rejected variants are recorded too, with their deltas.
  size_t rejected = 0;
  for (const VariantResult& v : result.log.rounds[0].variants) {
    rejected += !v.accepted;
    if (!v.accepted && v.measurement.feasible) {
      EXPECT_NE(v.delta_pct, 0.0) << v.variant.id;
    }
  }
  EXPECT_GT(rejected, 0u);
  size_t recorded = 0;
  for (const RoundLog& round : result.log.rounds) {
    recorded += round.variants.size();
  }
  EXPECT_EQ(result.log.variants_evaluated, recorded);
}

// --- §4.6 rediscovery --------------------------------------------------------

TEST(OptCaseStudies, FindsOrinClockPointUnderPowerBudget) {
  OptimizeOptions options;
  options.base = base_options("orin_nx16", 128);
  // Table 7 fixes the CPU clusters low; the search is over GPU x EMC.
  options.base.clocks.gpu_mhz = 918.0;
  options.base.clocks.mem_mhz = 3199.0;
  options.base.clocks.cpu_cluster_mhz = {729.0, 0.0};
  options.power_budget_w = 15.0;
  options.axes = axes_from_string("clocks");
  const OptimizeResult result = optimize("efficientnetv2_t", options);

  // The nominal-clock baseline busts the budget; the guard escaped it.
  EXPECT_FALSE(result.log.baseline.feasible);
  EXPECT_GT(result.baseline_report.power_w, 15.0);
  ASSERT_FALSE(result.log.accepted_chain.empty());
  EXPECT_TRUE(result.log.final_best.feasible);

  // Table 7 "ours": GPU 612 MHz / EMC 2133 MHz, within the 15 W envelope.
  ASSERT_TRUE(result.final_options.clocks.gpu_mhz.has_value());
  ASSERT_TRUE(result.final_options.clocks.mem_mhz.has_value());
  EXPECT_DOUBLE_EQ(*result.final_options.clocks.gpu_mhz, 612.0);
  EXPECT_DOUBLE_EQ(*result.final_options.clocks.mem_mhz, 2133.0);
  EXPECT_LT(result.final_report.power_w, 15.0);

  // "<5% perf loss" vs the same GPU clock with the unconstrained memory
  // clock (the paper's headline for capping EMC at 2133).
  ProfileOptions unconstrained = options.base;
  unconstrained.clocks.gpu_mhz = 612.0;
  unconstrained.clocks.mem_mhz = 3199.0;
  const ProfileReport free_mem =
      Profiler(unconstrained).run(models::build_model("efficientnetv2_t"));
  EXPECT_LT(result.final_report.total_latency_s,
            free_mem.total_latency_s * 1.05);

  // Every over-budget point was measured, rejected, and annotated.
  for (const RoundLog& round : result.log.rounds) {
    for (const VariantResult& v : round.variants) {
      if (!v.measurement.feasible) {
        EXPECT_FALSE(v.accepted);
        EXPECT_EQ(v.measurement.note, "power budget exceeded");
      }
    }
  }
}

// --- determinism -------------------------------------------------------------

/// Resets the global pool + cache, runs `fn`, restores the default pool.
template <typename F>
auto with_jobs(unsigned jobs, F&& fn) {
  ThreadPool::set_global_jobs(jobs);
  PrepCache::instance().clear();
  PrepCache::instance().reset_stats();
  auto result = fn();
  ThreadPool::set_global_jobs(0);
  return result;
}

TEST(OptDeterminism, OptimizationReportIsByteIdenticalAcrossJobCounts) {
  const auto run = [] {
    OptimizeOptions options;
    options.base = base_options("a100", 64);
    options.axes = axes_from_string("precision,batch,backend");
    options.max_rounds = 2;
    const OptimizeResult result = optimize("shufflenetv2_05", options);
    return testing::normalize_wall_clock(report_to_json(
        result.final_report, false, optimization_section_json(result.log)));
  };
  const std::string serial = with_jobs(1, run);
  const std::string parallel = with_jobs(4, run);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"optimization\":"), std::string::npos);
}

TEST(OptDeterminism, OptimizationSectionIsValidJson) {
  OptimizeOptions options;
  options.base = base_options("a100", 256);
  options.max_rounds = 1;
  const OptimizeResult result = optimize("shufflenetv2_10", options);
  const std::string section = optimization_section_json(result.log);
  const json::Value parsed = json::parse(section);

  EXPECT_EQ(parsed.get_string("objective"), "latency");
  const json::Value* rounds = parsed.find("rounds");
  ASSERT_NE(rounds, nullptr);
  ASSERT_TRUE(rounds->is_array());
  ASSERT_FALSE(rounds->array.empty());
  const json::Value* variants = rounds->array[0].find("variants");
  ASSERT_NE(variants, nullptr);
  EXPECT_FALSE(variants->array.empty());
  // Accepted and rejected variants both present, each with a delta field.
  bool saw_accepted = false;
  bool saw_rejected = false;
  for (const json::Value& v : variants->array) {
    const json::Value* accepted = v.find("accepted");
    ASSERT_NE(accepted, nullptr);
    (accepted->bool_value ? saw_accepted : saw_rejected) = true;
    EXPECT_NE(v.find("delta_pct"), nullptr);
    EXPECT_NE(v.find("measurement"), nullptr);
  }
  EXPECT_TRUE(saw_accepted);
  EXPECT_TRUE(saw_rejected);

  // And the full-report splice parses as one document.
  const std::string full = report_to_json(result.final_report, false, section);
  EXPECT_NO_THROW((void)json::parse(full));
}

}  // namespace
}  // namespace proof::opt
