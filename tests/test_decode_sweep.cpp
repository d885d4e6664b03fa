// Decode-sweep engine tests: grid semantics, the cross-platform
// decode-bound-ness claim and its agreement with single-platform sweeps,
// --jobs byte-identity, the two-pass fan-out's plan-cache ledger, and a
// golden freezing the JSON report section (tests/golden/decode_sweep_gpt2.json).
//
// Regenerate the golden after an intentional change with:
//   PROOF_UPDATE_GOLDENS=1 ./proof_tests --gtest_filter='DecodeSweep*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/decode_sweep.hpp"
#include "core/prep_cache.hpp"
#include "hw/platform.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "test_util.hpp"

#ifndef PROOF_TEST_SOURCE_DIR
#error "tests/CMakeLists.txt must define PROOF_TEST_SOURCE_DIR"
#endif

namespace proof {
namespace {

DecodeSweepOptions small_options(const std::string& platform) {
  DecodeSweepOptions opt;
  opt.config_id = "gpt2";
  opt.platform_id = platform;
  opt.prefill_len = 512;
  opt.batches = {1, 4};
  opt.positions = {64, 256};
  return opt;
}

TEST(DecodeSweep, GridShapeAndMonotonicBytes) {
  const DecodeSweep sweep = sweep_decode(small_options("a100"));
  ASSERT_EQ(sweep.prefill.size(), 2u);
  ASSERT_EQ(sweep.points.size(), 4u);  // batch-major over positions

  for (size_t b = 0; b < 2; ++b) {
    for (size_t p = 0; p < 2; ++p) {
      const DecodePoint& pt = sweep.points[b * 2 + p];
      EXPECT_EQ(pt.batch, sweep.options.batches[b]);
      EXPECT_EQ(pt.position, sweep.options.positions[p]);
      EXPECT_GT(pt.latency_s, 0.0);
      EXPECT_CLOSE(pt.tokens_per_s, pt.batch / pt.latency_s, 1e-9);
    }
    // Deeper positions move strictly more bytes (the KV cache grows) and
    // decay the arithmetic intensity.
    EXPECT_GT(sweep.points[b * 2 + 1].bytes, sweep.points[b * 2].bytes);
    EXPECT_LT(sweep.points[b * 2 + 1].arithmetic_intensity,
              sweep.points[b * 2].arithmetic_intensity);
  }

  // A100 decode at batch 1 is bandwidth-bound; the GEMM-heavy prefill at
  // S=512 spends a visibly smaller share of its time on the memory system.
  EXPECT_GT(sweep.decode_bound_fraction, 0.5);
  EXPECT_TRUE(sweep.decode_bandwidth_bound());
  EXPECT_GT(sweep.decode_time.bandwidth_bound_time_fraction(),
            sweep.prefill_time.bandwidth_bound_time_fraction());
  EXPECT_LT(sweep.prefill_time.bandwidth_bound_time_fraction(), 0.9);
}

TEST(DecodeSweep, RejectsBadGridsAndConfigs) {
  EXPECT_THROW(sweep_decode(DecodeSweepOptions{}), ConfigError);  // no platform
  DecodeSweepOptions opt = small_options("a100");
  opt.config_id = "no_such_llm";
  EXPECT_THROW(sweep_decode(opt), ConfigError);
  opt = small_options("a100");
  opt.batches = {0, 1};
  EXPECT_THROW(sweep_decode(opt), ConfigError);
  opt = small_options("a100");
  opt.positions.clear();
  EXPECT_THROW(sweep_decode(opt), ConfigError);

  // The cross-platform sweep validates the same grid once, up front, instead
  // of returning one identical error row per platform.
  opt = small_options("");
  opt.config_id = "no_such_llm";
  EXPECT_THROW((void)sweep_decode_platforms(opt), ConfigError);
  opt = small_options("");
  opt.batches = {0, 1};
  EXPECT_THROW((void)sweep_decode_platforms(opt), ConfigError);
  opt = small_options("");
  opt.positions.clear();
  EXPECT_THROW((void)sweep_decode_platforms(opt, {"a100", "npu3720"}), ConfigError);
}

TEST(DecodeSweep, AllPlatformsMostlyBandwidthBound) {
  // The paper-level claim the report makes: single-request decode is
  // bandwidth-bound nearly everywhere.  The NPU cannot lower the LLM
  // activation ops and must surface as an error row, not an abort.
  const std::vector<PlatformDecodeSummary> rows =
      sweep_decode_platforms(small_options(""));
  EXPECT_EQ(rows.size(), hw::PlatformRegistry::instance().ids().size());

  size_t bound = 0;
  size_t failed = 0;
  bool npu_failed = false;
  for (const PlatformDecodeSummary& row : rows) {
    if (!row.error.empty()) {
      ++failed;
      npu_failed |= row.platform_id == "npu3720";
      continue;
    }
    EXPECT_GT(row.decode_tokens_per_s, 0.0) << row.platform_id;
    EXPECT_GT(row.prefill_latency_s, 0.0) << row.platform_id;
    bound += row.decode_bandwidth_bound ? 1 : 0;
  }
  EXPECT_TRUE(npu_failed) << "npu3720 lowers Silu/Gelu now? update this test";
  EXPECT_EQ(failed, 1u);
  EXPECT_GE(bound, 6u) << "decode must be bandwidth-bound on >= 6 platforms";

  const std::string text = decode_platforms_text(rows);
  EXPECT_NE(text.find("failed"), std::string::npos);
  const std::string json = decode_platforms_json(rows);
  EXPECT_NE(json.find("\"platforms\""), std::string::npos);
}

TEST(DecodeSweep, JsonIsByteIdenticalAcrossJobCounts) {
  const auto run = [] { return decode_sweep_json(sweep_decode(small_options("a100"))); };
  ThreadPool::set_global_jobs(1);
  const std::string serial = run();
  ThreadPool::set_global_jobs(4);
  const std::string parallel = run();
  ThreadPool::set_global_jobs(0);  // restore the default pool
  EXPECT_EQ(serial, parallel)
      << "sweep output must not depend on --jobs (index-written points)";
}

TEST(DecodeSweep, PlatformsJsonIsByteIdenticalAcrossJobCounts) {
  const auto run = [] { return decode_platforms_json(sweep_decode_platforms(small_options(""))); };
  ThreadPool::set_global_jobs(1);
  const std::string serial = run();
  ThreadPool::set_global_jobs(4);
  const std::string parallel = run();
  ThreadPool::set_global_jobs(0);  // restore the default pool
  EXPECT_NE(serial.find("\"platform\":\"npu3720\",\"name\":\"npu3720\",\"error\":"),
            std::string::npos)
      << serial;
  EXPECT_EQ(serial, parallel)
      << "cross-platform output must not depend on --jobs (index-written cells)";
}

TEST(DecodeSweep, PlatformRowsMatchSinglePlatformSweeps) {
  DecodeSweepOptions base = small_options("");
  base.backend_id = "trt_sim";  // ignored: every platform runs its default runtime
  const std::vector<PlatformDecodeSummary> rows = sweep_decode_platforms(base);
  ASSERT_EQ(rows.size(), hw::PlatformRegistry::instance().ids().size());
  for (const PlatformDecodeSummary& row : rows) {
    SCOPED_TRACE(row.platform_id);
    if (!row.error.empty()) {
      // The single-platform sweep throws the very error the row reports.
      try {
        (void)sweep_decode(small_options(row.platform_id));
        ADD_FAILURE() << "sweep_decode ran where the row failed: " << row.error;
      } catch (const Error& e) {
        EXPECT_EQ(row.error, e.what());
      }
      continue;
    }
    const DecodeSweep sweep = sweep_decode(small_options(row.platform_id));
    EXPECT_EQ(row.platform_name, sweep.platform_name);
    EXPECT_EQ(row.decode_bound_fraction, sweep.decode_bound_fraction);
    EXPECT_EQ(row.decode_bandwidth_bound, sweep.decode_bandwidth_bound());
    // Smallest batch, largest position: the last point of the first row.
    EXPECT_EQ(row.decode_tokens_per_s,
              sweep.points[sweep.options.positions.size() - 1].tokens_per_s);
    EXPECT_EQ(row.prefill_latency_s, sweep.prefill.front().latency_s);
  }
  const auto npu = std::find_if(rows.begin(), rows.end(), [](const PlatformDecodeSummary& r) {
    return r.platform_id == "npu3720";
  });
  ASSERT_NE(npu, rows.end());
  EXPECT_FALSE(npu->error.empty());
}

TEST(DecodeSweep, PlansBuildOncePerStructureWithoutWaiting) {
  // Pass 1 builds each platform's prefill and decode AnalysisPlans together;
  // pass 2 only instantiates published plans.  So on a cold cache there is
  // exactly one plan miss per (platform, phase), every other cell of a
  // runnable platform is a plan hit, and no lookup blocks on another
  // thread's in-flight build, at any job count.
  PrepCache& cache = PrepCache::instance();
  cache.set_enabled(true);
  cache.clear();
  cache.reset_stats();
  obs::MetricsRegistry::instance().reset();
  const DecodeSweepOptions options = small_options("");
  const size_t cells = options.batches.size() * (1 + options.positions.size());

  // Spans the grid's graph stage; counts nothing when obs is off.
  const auto graph_builds = [] {
    return obs::MetricsRegistry::instance().histogram("sweep.decode.graphs").snapshot().count;
  };

  ThreadPool::set_global_jobs(4);
  const std::vector<PlatformDecodeSummary> rows = sweep_decode_platforms(options);
  const PrepCacheStats stats = cache.stats();
  [[maybe_unused]] const uint64_t graph_builds_after_platforms = graph_builds();
  (void)sweep_decode(small_options("a100"));
  ThreadPool::set_global_jobs(0);  // restore the default pool

  const size_t runnable = static_cast<size_t>(std::count_if(
      rows.begin(), rows.end(), [](const PlatformDecodeSummary& r) { return r.error.empty(); }));
  EXPECT_EQ(runnable, rows.size() - 1);  // npu3720
  EXPECT_EQ(stats.plan_cache_misses, 2 * rows.size());
  EXPECT_EQ(stats.plan_cache_hits, runnable * (cells - 2));
  EXPECT_EQ(stats.in_flight_waits, 0u);
  EXPECT_EQ(cache.stats().in_flight_waits, 0u);

#ifndef PROOF_OBS_DISABLED
  if (obs::enabled()) {
    // The graphs are built once per call, not once per platform.
    EXPECT_EQ(graph_builds_after_platforms, 1u);
    EXPECT_EQ(graph_builds(), 2u);
    EXPECT_EQ(obs::MetricsRegistry::instance().counter("prep_cache.in_flight_waits").value(),
              0u);
  }
#endif
}

// --- golden ------------------------------------------------------------------

std::string golden_path() {
  return std::string(PROOF_TEST_SOURCE_DIR) + "/golden/decode_sweep_gpt2.json";
}

bool update_goldens() {
  const char* env = std::getenv("PROOF_UPDATE_GOLDENS");
  return env != nullptr && std::strcmp(env, "0") != 0 &&
         std::strcmp(env, "") != 0;
}

/// The frozen configuration: gpt2 on a100/trt_sim, fp16, a 2x2 grid.  The
/// sweep is forced to predicted mode internally, so the JSON carries no
/// wall-clock fields and needs no normalization.
std::string generate_golden() {
  DecodeSweepOptions opt = small_options("a100");
  opt.backend_id = "trt_sim";
  return decode_sweep_json(sweep_decode(opt));
}

TEST(DecodeSweepGolden, MatchesFrozenJson) {
  const std::string path = golden_path();
  const std::string actual = generate_golden();
  ASSERT_FALSE(actual.empty());

  if (update_goldens()) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden regenerated: " << path;
  }

  const std::string expected = testing::read_file(path);
  ASSERT_FALSE(expected.empty())
      << "missing golden " << path
      << " — regenerate with PROOF_UPDATE_GOLDENS=1";
  EXPECT_EQ(actual, expected)
      << "decode sweep JSON drifted from " << path
      << "\nIf the change is intentional, regenerate with "
         "PROOF_UPDATE_GOLDENS=1 and review the diff.";
}

TEST(DecodeSweepGolden, GenerationIsDeterministic) {
  EXPECT_EQ(generate_golden(), generate_golden());
}

}  // namespace
}  // namespace proof
