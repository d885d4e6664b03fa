// Determinism and memoization guarantees of the parallel profiling engine:
//  * sweeps produce byte-identical output at any --jobs setting;
//  * the preparation cache changes cost, never results;
//  * the plan cache shares one frozen AnalysisPlan across batches.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/prep_cache.hpp"
#include "core/report_json.hpp"
#include "core/sweep.hpp"
#include "models/zoo.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "test_util.hpp"

namespace proof {
namespace {

ProfileOptions a100_opts() {
  ProfileOptions opt;
  opt.platform_id = "a100";
  opt.dtype = DType::kF16;
  opt.mode = MetricMode::kPredicted;
  return opt;
}

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

std::string batch_sweep_fingerprint(const BatchSweep& sweep) {
  std::string out;
  for (const BatchPoint& p : sweep.points) {
    out += std::to_string(p.batch) + "|" +
           std::to_string(p.latency_s) + "|" +
           std::to_string(p.throughput_per_s) + "|" +
           std::to_string(p.attained_flops) + "\n";
  }
  out += "optimal=" + std::to_string(sweep.optimal_batch);
  return out;
}

TEST(ParallelDeterminism, BatchSweepIdenticalAcrossJobCounts) {
  const Graph model = models::build_model("resnet50");
  const auto run = [&] {
    return sweep_batches(a100_opts(), model, {1, 4, 16, 64, 256});
  };
  const BatchSweep serial = with_jobs(1, run);
  const BatchSweep parallel = with_jobs(4, run);
  EXPECT_EQ(batch_sweep_fingerprint(serial), batch_sweep_fingerprint(parallel));
  EXPECT_EQ(sweep_text(serial), sweep_text(parallel));
}

TEST(ParallelDeterminism, ZooSweepIdenticalAcrossJobCounts) {
  const std::vector<std::string> ids = {"resnet50", "mobilenetv2_05",
                                        "vit_tiny", "mlp_mixer_b16"};
  ProfileOptions opt = a100_opts();
  opt.batch = 8;
  const auto run = [&] { return sweep_zoo(opt, ids); };
  const ZooSweep serial = with_jobs(1, run);
  const ZooSweep parallel = with_jobs(4, run);
  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(serial.points[i].model_id, parallel.points[i].model_id);
    EXPECT_EQ(serial.points[i].latency_s, parallel.points[i].latency_s);
    EXPECT_EQ(serial.points[i].throughput_per_s,
              parallel.points[i].throughput_per_s);
    EXPECT_EQ(serial.points[i].mapping_coverage,
              parallel.points[i].mapping_coverage);
    EXPECT_EQ(serial.points[i].error, parallel.points[i].error);
  }
  EXPECT_EQ(zoo_sweep_text(serial), zoo_sweep_text(parallel));
}

TEST(ParallelDeterminism, CacheOnAndOffProduceIdenticalReports) {
  const Graph model = models::build_model("vit_tiny");
  ProfileOptions opt = a100_opts();
  opt.batch = 4;

  PrepCache::instance().clear();
  PrepCache::instance().set_enabled(false);
  const std::string uncached = report_to_json(Profiler(opt).run(model));

  PrepCache::instance().set_enabled(true);
  PrepCache::instance().clear();
  // A cold (miss) and a warm (hit) cached run must match each other byte for
  // byte — the warm run reports the cold build's analysis wall time verbatim.
  const ProfileReport cold = Profiler(opt).run(model);
  const ProfileReport warm = Profiler(opt).run(model);
  EXPECT_EQ(report_to_json(cold), report_to_json(warm));

  // Against the uncached path only the measured wall-time fields may differ;
  // zero them and require byte identity for everything else.
  EXPECT_EQ(testing::normalize_wall_clock(uncached),
            testing::normalize_wall_clock(report_to_json(cold)));
  PrepCache::instance().clear();
}

TEST(PrepCache, EngineHitsOnRepeatAndPlanSharingAcrossBatches) {
  const Graph model = models::build_model("resnet50");
  PrepCache::instance().set_enabled(true);
  PrepCache::instance().clear();
  PrepCache::instance().reset_stats();

  ProfileOptions opt = a100_opts();
  opt.batch = 1;
  (void)Profiler(opt).run(model);   // engine miss, plan miss
  (void)Profiler(opt).run(model);   // engine hit
  opt.batch = 8;
  (void)Profiler(opt).run(model);   // engine miss, plan HIT (batch changed)
  opt.clocks.gpu_mhz = 1000.0;
  (void)Profiler(opt).run(model);   // engine hit (clocks don't enter the build)

  const PrepCacheStats stats = PrepCache::instance().stats();
  EXPECT_EQ(stats.engine_misses, 2u);
  EXPECT_EQ(stats.engine_hits, 2u);
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_GT(stats.engine_hit_rate(), 0.0);
  EXPECT_GT(stats.plan_hit_rate(), 0.0);
  EXPECT_GE(PrepCache::instance().size(), 2u);
  PrepCache::instance().clear();
}

TEST(PrepCache, FingerprintSeparatesModelsAndTracksStructure) {
  const Graph a = models::build_model("resnet50");
  const Graph b = models::build_model("mobilenetv2_05");
  EXPECT_NE(compute_graph_keys(a).exact, compute_graph_keys(b).exact);
  EXPECT_EQ(compute_graph_keys(a).exact,
            compute_graph_keys(models::build_model("resnet50")).exact);
}

TEST(BatchSweep, RejectsEmptyValidatedCandidates) {
  const Graph model = models::build_model("mobilenetv2_05");
  EXPECT_THROW((void)sweep_batches(a100_opts(), model, {0, -5}), ConfigError);
}

TEST(BatchSweep, DeduplicatesCandidatesKeepingFirst) {
  const Graph model = models::build_model("mobilenetv2_05");
  const BatchSweep sweep = sweep_batches(a100_opts(), model, {4, 4, -1, 2, 4});
  ASSERT_EQ(sweep.points.size(), 2u);
  EXPECT_EQ(sweep.points[0].batch, 4);
  EXPECT_EQ(sweep.points[1].batch, 2);
}

TEST(SweepText, EmptySweepRendersMessage) {
  const BatchSweep empty;
  EXPECT_NE(sweep_text(empty).find("empty sweep"), std::string::npos);
  const ZooSweep zoo_empty;
  EXPECT_NE(zoo_sweep_text(zoo_empty).find("empty sweep"), std::string::npos);
}

}  // namespace
}  // namespace proof
