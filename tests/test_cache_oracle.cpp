// Cache oracle: every report the PrepCache serves must be byte-identical to
// the uncached prepare_engine pipeline (PrepCache::set_enabled(false)).
//
// Every zoo model (model_zoo() + extended_model_zoo()) runs in 10
// configurations: each registered platform on its default runtime (fp32 on
// the CPUs, fp16 elsewhere), plus ov_sim on xeon6330 and int8 trt_sim on
// a100.  Each case profiles batches 1, 2 and 8 through a freshly cleared
// cache — one plan-cache miss, then two instantiations of that plan — and
// again through the oracle.  A configuration the platform cannot lower must
// fail with the same message on both paths.  A decode-sweep case covers the
// KV-position axis the same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "core/decode_sweep.hpp"
#include "core/prep_cache.hpp"
#include "core/profiler.hpp"
#include "core/report_json.hpp"
#include "hw/platform.hpp"
#include "models/zoo.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace proof {
namespace {

constexpr int64_t kBatches[] = {1, 2, 8};
constexpr const char* kThrew = "threw: ";

struct OracleCase {
  std::string model;
  std::string platform;
  std::string backend;
  DType dtype;
};

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << c.model << " on " << c.backend << "/" << c.platform << " " << dtype_name(c.dtype);
}

std::vector<OracleCase> all_cases() {
  std::vector<OracleCase> configs;
  for (const std::string& id : hw::PlatformRegistry::instance().ids()) {
    const hw::PlatformDesc& platform = hw::PlatformRegistry::instance().get(id);
    const bool cpu = platform.arch == "x86" || platform.arch == "arm";
    configs.push_back({"", id, platform.runtime, cpu ? DType::kF32 : DType::kF16});
  }
  configs.push_back({"", "xeon6330", "ov_sim", DType::kF32});
  configs.push_back({"", "a100", "trt_sim", DType::kI8});

  std::vector<OracleCase> cases;
  for (const auto* zoo : {&models::model_zoo(), &models::extended_model_zoo()}) {
    for (const models::ModelSpec& spec : *zoo) {
      for (OracleCase c : configs) {
        c.model = spec.id;
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

/// Profiles `model` at every batch of kBatches through the current PrepCache
/// mode.  Each entry is the normalized report JSON, or kThrew + the message.
std::vector<std::string> profile_batches(const Graph& model, const OracleCase& c) {
  std::vector<std::string> out;
  for (const int64_t batch : kBatches) {
    ProfileOptions opt;
    opt.platform_id = c.platform;
    opt.backend_id = c.backend;
    opt.dtype = c.dtype;
    opt.batch = batch;
    opt.mode = MetricMode::kPredicted;
    try {
      out.push_back(testing::normalize_wall_clock(report_to_json(Profiler(opt).run(model))));
    } catch (const Error& e) {
      out.push_back(kThrew + std::string(e.what()));
    }
  }
  return out;
}

/// True when `platform` cannot lower one of `model`'s operators — the only
/// reason a zoo configuration may fail to build.
bool has_unsupported_op(const Graph& model, const hw::PlatformDesc& platform) {
  return std::any_of(model.nodes().begin(), model.nodes().end(), [&](const Node& node) {
    return platform.unsupported_ops.count(node.op_type) > 0;
  });
}

class CacheOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(CacheOracle, CachedReportsMatchUncachedPrepare) {
  const OracleCase& c = GetParam();
  const Graph model = models::build_model(c.model);
  PrepCache& cache = PrepCache::instance();

  cache.set_enabled(true);
  cache.clear();
  cache.reset_stats();
  const std::vector<std::string> cached = profile_batches(model, c);
  const PrepCacheStats stats = cache.stats();

  cache.set_enabled(false);
  const std::vector<std::string> oracle = profile_batches(model, c);
  cache.set_enabled(true);

  ASSERT_EQ(cached.size(), oracle.size());
  size_t failures = 0;
  for (size_t i = 0; i < cached.size(); ++i) {
    EXPECT_TRUE(cached[i] == oracle[i])
        << "batch " << kBatches[i] << ": cached report (got) differs from the "
        << "uncached prepare_engine oracle (want), "
        << testing::first_difference(cached[i], oracle[i]);
    failures += cached[i].rfind(kThrew, 0) == 0 ? 1 : 0;
  }

  if (failures == 0) {
    // One structure phase for the three batches, instantiated twice.
    EXPECT_EQ(stats.plan_cache_misses, 1u);
    EXPECT_EQ(stats.plan_cache_hits, 2u);
  } else {
    EXPECT_EQ(failures, cached.size()) << "only some batches failed to build";
    EXPECT_TRUE(has_unsupported_op(model, hw::PlatformRegistry::instance().get(c.platform)))
        << cached.front();
  }
}

std::string case_name(const ::testing::TestParamInfo<OracleCase>& info) {
  const OracleCase& c = info.param;
  return c.model + "_" + c.platform + "_" + c.backend + "_" + std::string(dtype_name(c.dtype));
}

INSTANTIATE_TEST_SUITE_P(Zoo, CacheOracle, ::testing::ValuesIn(all_cases()), case_name);

TEST(CacheOracleDecode, SweepDecodeMatchesUncachedPrepare) {
  struct Target {
    const char* platform;
    const char* backend;
    DType dtype;
  };
  PrepCache& cache = PrepCache::instance();
  for (const char* config : {"gpt2", "llama7b"}) {
    for (const Target& t : {Target{"a100", "trt_sim", DType::kF16},
                            Target{"xeon6330", "ort_sim", DType::kF32}}) {
      SCOPED_TRACE(std::string(config) + " on " + t.backend + "/" + t.platform);
      DecodeSweepOptions opt;
      opt.config_id = config;
      opt.platform_id = t.platform;
      opt.backend_id = t.backend;
      opt.dtype = t.dtype;
      opt.batches = {1, 3};
      opt.positions = {32, 100, 512};

      cache.set_enabled(true);
      cache.clear();
      cache.reset_stats();
      const std::string cached = decode_sweep_json(sweep_decode(opt));
      EXPECT_GT(cache.stats().plan_cache_hits, 0u) << "no cell instantiated a plan";

      cache.set_enabled(false);
      const std::string oracle = decode_sweep_json(sweep_decode(opt));
      cache.set_enabled(true);
      EXPECT_TRUE(cached == oracle) << testing::first_difference(cached, oracle);
    }
  }
}

}  // namespace
}  // namespace proof
