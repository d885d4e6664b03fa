// Zero-rebuild invariant (docs/METRICS.md): preparing and instantiating
// engines never mutates a graph whose lazy index is already built, so
// `graph.index.rebuilds` stays at 0 for every zoo model on every simulated
// runtime.  A rebuild here means some stage wrote through mutable_node() (or
// grew the graph) between index queries, which turns each cold prepare into
// O(layers x graph) work.  A cold prepare also builds at most one index: its
// AR and its plan skeleton share the engine's graph instead of copying it.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "backends/backend.hpp"
#include "backends/prepare.hpp"
#include "core/analysis_plan.hpp"
#include "core/prep_cache.hpp"
#include "hw/platform.hpp"
#include "models/zoo.hpp"
#include "obs/metrics.hpp"

namespace proof {
namespace {

struct RebuildCase {
  std::string model;
  std::string backend;
  std::string platform;
  DType dtype;
};

void PrintTo(const RebuildCase& c, std::ostream* os) {
  *os << c.model << " on " << c.backend << "/" << c.platform << " " << dtype_name(c.dtype);
}

std::vector<RebuildCase> all_cases() {
  std::vector<RebuildCase> cases;
  for (const auto* zoo : {&models::model_zoo(), &models::extended_model_zoo()}) {
    for (const models::ModelSpec& spec : *zoo) {
      cases.push_back({spec.id, "trt_sim", "a100", DType::kF16});
      cases.push_back({spec.id, "ov_sim", "xeon6330", DType::kF32});
      cases.push_back({spec.id, "ort_sim", "xeon6330", DType::kF32});
    }
  }
  return cases;
}

uint64_t rebuilds() {
  return obs::MetricsRegistry::instance().counter("graph.index.rebuilds").value();
}

uint64_t builds() {
  return obs::MetricsRegistry::instance().counter("graph.index.builds").value();
}

class IndexRebuilds : public ::testing::TestWithParam<RebuildCase> {};

TEST_P(IndexRebuilds, ZeroAcrossPrepareAndInstantiate) {
  const RebuildCase& c = GetParam();
  const Graph model = models::build_model(c.model);
  const backends::Backend& backend =
      backends::BackendRegistry::instance().get(c.backend);
  const hw::PlatformDesc& platform = hw::PlatformRegistry::instance().get(c.platform);
  const backends::BuildConfig first{c.dtype, 1};
  const backends::BuildConfig second{c.dtype, 2};
  const uint64_t rebuilds_before = rebuilds();

  // Lowering only reads the graph it moves into the engine.
  Graph prepared = backends::prepare_model(model, first, platform);
  const backends::BuildPlan plan = backend.plan(prepared);
  const uint64_t generation = prepared.index_generation();
  const backends::Engine engine =
      backend.lower(std::move(prepared), plan, first, platform);
  EXPECT_EQ(engine.analysis_graph().index_generation(), generation);

  // The uncached oracle copies and shape-infers the model once: the AR and
  // the plan skeleton share the engine's graph, so it indexes one graph.
  model.warm_indices();
  const uint64_t builds_before = builds();
  const std::shared_ptr<const PreparedEngine> entry =
      prepare_engine(model, backend, platform, first);
  ASSERT_NE(entry, nullptr);
  EXPECT_LE(builds() - builds_before, 1u);  // vacuous when instrumentation is off
  EXPECT_EQ(&entry->ar.graph(), &entry->engine.analysis_graph());
  EXPECT_EQ(build_analysis_plan(entry->engine, plan, entry->mapping).skeleton,
            entry->engine.shared_analysis_graph());

  // Then a plan-cache instantiation at a second batch.
  PrepCache& cache = PrepCache::instance();
  cache.set_enabled(true);
  cache.clear();
  cache.reset_stats();
  ASSERT_NE(cache.get_or_prepare(model, backend, platform, first), nullptr);
  ASSERT_NE(cache.get_or_prepare(model, backend, platform, second), nullptr);
  EXPECT_EQ(cache.stats().plan_cache_hits, 1u);
  // Vacuous when instrumentation is off; the generation check covers that.
  EXPECT_EQ(rebuilds() - rebuilds_before, 0u);
}

std::string case_name(const ::testing::TestParamInfo<RebuildCase>& info) {
  return info.param.model + "_" + info.param.backend + "_" + info.param.platform;
}

INSTANTIATE_TEST_SUITE_P(Zoo, IndexRebuilds, ::testing::ValuesIn(all_cases()), case_name);

}  // namespace
}  // namespace proof
