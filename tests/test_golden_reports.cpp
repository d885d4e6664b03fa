// Golden-regression harness: freezes the full report_json output for four
// representative zoo models on the trt_sim backend.  Any change to shape
// inference, FLOP/memory analysis, fusion, mapping, the latency model or the
// JSON serializer shows up as a byte-level diff against tests/golden/*.json.
//
// Regenerate after an intentional change with:
//   PROOF_UPDATE_GOLDENS=1 ./proof_tests --gtest_filter='GoldenReports.*'
// and review the resulting diff like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/profiler.hpp"
#include "core/report_json.hpp"
#include "opt/optimizer.hpp"
#include "test_util.hpp"

#ifndef PROOF_TEST_SOURCE_DIR
#error "tests/CMakeLists.txt must define PROOF_TEST_SOURCE_DIR"
#endif

namespace proof {
namespace {

std::string golden_path(const std::string& model_id) {
  return std::string(PROOF_TEST_SOURCE_DIR) + "/golden/" + model_id + ".json";
}

bool update_goldens() {
  const char* env = std::getenv("PROOF_UPDATE_GOLDENS");
  return env != nullptr && std::strcmp(env, "0") != 0 &&
         std::strcmp(env, "") != 0;
}

std::string generate(const std::string& model_id) {
  ProfileOptions opt;
  opt.platform_id = "a100";
  opt.backend_id = "trt_sim";
  opt.dtype = DType::kF16;
  opt.batch = model_id == "sd_unet" ? 2 : 4;  // keep SD activation maps small
  opt.mode = MetricMode::kPredicted;
  const ProfileReport report = Profiler(opt).run_zoo(model_id);
  // include_self_profile stays off: self-profile values are wall-clock.
  return testing::normalize_wall_clock(report_to_json(report));
}

class GoldenReports : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenReports, MatchesFrozenJson) {
  const std::string model_id = GetParam();
  const std::string path = golden_path(model_id);
  const std::string actual = generate(model_id);
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
      << "report JSON drifted from " << path << "\n"
      << testing::first_difference(actual, expected)
      << "\nIf the change is intentional, regenerate with "
         "PROOF_UPDATE_GOLDENS=1 and review the diff.";
}

TEST_P(GoldenReports, GenerationIsDeterministic) {
  // The freeze only works if two in-process runs already agree byte-for-byte
  // (engine jitter is seeded by kernel identity, not wall clock).
  const std::string model_id = GetParam();
  EXPECT_EQ(generate(model_id), generate(model_id));
}

INSTANTIATE_TEST_SUITE_P(FourZooModels, GoldenReports,
                         ::testing::Values("resnet50", "bert_base",
                                           "shufflenetv2_10", "sd_unet"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// The fifth golden freezes the guarded optimizer's report for the §4.5
// model: full final-config report plus the "optimization" section (rounds,
// classifications, accepted AND rejected variants with deltas).  The section
// carries no wall-clock values by construction; the wrapping report is
// normalized like the other goldens.
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

TEST(GoldenReportsOptimize, MatchesFrozenJson) {
  const std::string path = golden_path("optimize_shufflenetv2_10");
  const std::string actual = generate_optimize();
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
      << "optimization report drifted from " << path << "\n"
      << testing::first_difference(actual, expected)
      << "\nIf the change is intentional, regenerate with "
         "PROOF_UPDATE_GOLDENS=1 and review the diff.";
}

TEST(GoldenReportsOptimize, GenerationIsDeterministic) {
  EXPECT_EQ(generate_optimize(), generate_optimize());
}

}  // namespace
}  // namespace proof
