// Concurrency guarantees of the preparation cache: many threads hammering
// get_or_prepare must build each key exactly once, always agree on the
// published entry, and keep the stats ledger consistent (hits + misses ==
// lookups, reconciled against the obs counters the cache emits).
// Runs under TSan via scripts/check_tsan.sh (suite name matches its filter).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "backends/backend.hpp"
#include "core/prep_cache.hpp"
#include "hw/platform.hpp"
#include "models/zoo.hpp"
#include "obs/metrics.hpp"
#include "support/thread_pool.hpp"
#include "test_util.hpp"

namespace proof {
namespace {

/// Fresh cache + metrics state for each test; restores nothing because every
/// gtest case runs in its own ctest process (gtest_discover_tests).
void reset_state() {
  PrepCache::instance().set_enabled(true);
  PrepCache::instance().clear();
  PrepCache::instance().reset_stats();
  obs::MetricsRegistry::instance().reset();
}

uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

TEST(PrepCache, ConcurrentIdenticalKeysBuildExactlyOnce) {
  reset_state();
  const Graph model = proof::testing::small_cnn();
  const backends::Backend& backend =
      backends::BackendRegistry::instance().get("trt_sim");
  const hw::PlatformDesc& platform = hw::PlatformRegistry::instance().get("a100");
  const backends::BuildConfig config{DType::kF16, 4};

  constexpr size_t kCallers = 32;
  ThreadPool pool(8);
  std::vector<std::shared_ptr<const PreparedEngine>> results(kCallers);
  pool.parallel_for(kCallers, [&](size_t i) {
    results[i] =
        PrepCache::instance().get_or_prepare(model, backend, platform, config);
  });

  // Every caller got the same published object — the build ran once.
  for (size_t i = 1; i < kCallers; ++i) {
    ASSERT_NE(results[i], nullptr);
    EXPECT_EQ(results[i].get(), results[0].get());
  }

  const PrepCacheStats stats = PrepCache::instance().stats();
  EXPECT_EQ(stats.engine_misses, 1u);
  EXPECT_EQ(stats.engine_hits, kCallers - 1);
  EXPECT_EQ(PrepCache::instance().size(), 1u);
}

TEST(PrepCache, ConcurrentDistinctKeysBuildOncePerKey) {
  reset_state();
  const Graph model = proof::testing::small_cnn();
  const backends::Backend& backend =
      backends::BackendRegistry::instance().get("trt_sim");
  const hw::PlatformDesc& platform = hw::PlatformRegistry::instance().get("a100");
  const std::vector<int64_t> batches = {1, 2, 4, 8};

  constexpr size_t kRounds = 8;
  ThreadPool pool(8);
  const size_t total = batches.size() * kRounds;
  std::vector<std::shared_ptr<const PreparedEngine>> results(total);
  pool.parallel_for(total, [&](size_t i) {
    const backends::BuildConfig config{DType::kF16, batches[i % batches.size()]};
    results[i] =
        PrepCache::instance().get_or_prepare(model, backend, platform, config);
  });

  // One engine per distinct batch; callers of the same batch share it.
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
  // Plan-level sharing: one plan miss for the first batch, hits afterwards.
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_EQ(PrepCache::instance().size(), batches.size());
}

TEST(PrepCache, ObsCountersReconcileWithStats) {
  reset_state();
#ifdef PROOF_OBS_DISABLED
  GTEST_SKIP() << "instrumentation compiled out (PROOF_OBS=OFF)";
#else
  if (!obs::enabled()) {
    GTEST_SKIP() << "observability disabled in this environment";
  }
  const Graph model = proof::testing::small_cnn();
  const backends::Backend& backend =
      backends::BackendRegistry::instance().get("trt_sim");
  const hw::PlatformDesc& platform = hw::PlatformRegistry::instance().get("a100");

  constexpr size_t kCalls = 24;
  ThreadPool pool(6);
  pool.parallel_for(kCalls, [&](size_t i) {
    const backends::BuildConfig config{DType::kF16,
                                       static_cast<int64_t>(i % 3 + 1)};
    (void)PrepCache::instance().get_or_prepare(model, backend, platform,
                                               config);
  });

  const uint64_t lookups = counter_value("prep_cache.lookups");
  const uint64_t hits = counter_value("prep_cache.hits");
  const uint64_t misses = counter_value("prep_cache.misses");
  EXPECT_EQ(lookups, kCalls);
  EXPECT_EQ(hits + misses, lookups);
  EXPECT_EQ(misses, 3u);  // one per distinct batch

  const PrepCacheStats stats = PrepCache::instance().stats();
  EXPECT_EQ(stats.engine_hits, hits);
  EXPECT_EQ(stats.engine_misses, misses);
  EXPECT_EQ(stats.evictions, counter_value("prep_cache.evictions"));
  EXPECT_EQ(stats.in_flight_waits, counter_value("prep_cache.in_flight_waits"));
  EXPECT_LE(stats.in_flight_waits, stats.engine_hits + stats.plan_cache_hits);
#endif
}

TEST(PrepCache, CapacityBoundsResidencyAndShrinksEagerly) {
  reset_state();
  const Graph model = proof::testing::small_cnn();
  const backends::Backend& backend =
      backends::BackendRegistry::instance().get("trt_sim");
  const hw::PlatformDesc& platform = hw::PlatformRegistry::instance().get("a100");

  const size_t original = PrepCache::instance().capacity();
  PrepCache::instance().set_capacity(4);
  EXPECT_EQ(PrepCache::instance().capacity(), 4u);
  for (int64_t batch = 1; batch <= 8; ++batch) {
    const backends::BuildConfig config{DType::kF16, batch};
    (void)PrepCache::instance().get_or_prepare(model, backend, platform, config);
    // Eviction never drops the entry just inserted: the repeat is a hit.
    const backends::BuildConfig again{DType::kF16, batch};
    (void)PrepCache::instance().get_or_prepare(model, backend, platform, again);
  }
  EXPECT_EQ(PrepCache::instance().size(), 4u);
  EXPECT_EQ(PrepCache::instance().stats().evictions, 4u);

  // Shrinking drops the least recently used entries immediately.
  PrepCache::instance().set_capacity(2);
  EXPECT_EQ(PrepCache::instance().size(), 2u);
  EXPECT_EQ(PrepCache::instance().stats().evictions, 6u);

  // Capacity 0 = unbounded.
  PrepCache::instance().set_capacity(0);
  for (int64_t batch = 1; batch <= 8; ++batch) {
    const backends::BuildConfig config{DType::kF16, batch};
    (void)PrepCache::instance().get_or_prepare(model, backend, platform, config);
  }
  EXPECT_EQ(PrepCache::instance().size(), 8u);
  PrepCache::instance().set_capacity(original);
}

TEST(PrepCache, EvictsTheLeastRecentlyUsedEngine) {
  reset_state();
  const Graph model = proof::testing::small_cnn();
  const backends::Backend& backend =
      backends::BackendRegistry::instance().get("trt_sim");
  const hw::PlatformDesc& platform = hw::PlatformRegistry::instance().get("a100");
  const auto get = [&](int64_t batch) {
    return PrepCache::instance().get_or_prepare(model, backend, platform,
                                                {DType::kF16, batch});
  };

  const size_t original = PrepCache::instance().capacity();
  PrepCache::instance().set_capacity(2);
  const std::shared_ptr<const PreparedEngine> first = get(1);
  (void)get(2);
  EXPECT_EQ(get(1).get(), first.get());  // the hit makes batch 1 the newest use
  (void)get(3);                          // evicts batch 2, not the older batch 1
  const PrepCacheStats before = PrepCache::instance().stats();
  EXPECT_EQ(before.evictions, 1u);
  EXPECT_EQ(get(1).get(), first.get());
  EXPECT_EQ(PrepCache::instance().stats().engine_hits, before.engine_hits + 1);
  (void)get(2);
  EXPECT_EQ(PrepCache::instance().stats().engine_misses, before.engine_misses + 1);
  PrepCache::instance().set_capacity(original);
}

TEST(PrepCache, DisabledBypassRecordsNothing) {
  reset_state();
  PrepCache::instance().set_enabled(false);
  const Graph model = proof::testing::small_cnn();
  const backends::Backend& backend =
      backends::BackendRegistry::instance().get("trt_sim");
  const hw::PlatformDesc& platform = hw::PlatformRegistry::instance().get("a100");
  const backends::BuildConfig config{DType::kF16, 2};

  const auto a =
      PrepCache::instance().get_or_prepare(model, backend, platform, config);
  const auto b =
      PrepCache::instance().get_or_prepare(model, backend, platform, config);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get());  // private builds, nothing shared

  const PrepCacheStats stats = PrepCache::instance().stats();
  EXPECT_EQ(stats.engine_hits, 0u);
  EXPECT_EQ(stats.engine_misses, 0u);
  EXPECT_EQ(counter_value("prep_cache.lookups"), 0u);
  EXPECT_EQ(PrepCache::instance().size(), 0u);
  PrepCache::instance().set_enabled(true);
}

}  // namespace
}  // namespace proof
