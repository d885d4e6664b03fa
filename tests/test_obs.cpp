// Unit tests: the observability layer (obs/) — sharded counters under the
// thread pool, histogram bucketing/quantiles, RAII spans, the runtime
// disable switch, the self-profile JSON export and its write failures, and
// docs/METRICS.md coverage of every metric name emitted from src/.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/self_profile.hpp"
#include "obs/span.hpp"
#include "serve/session.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"
#include "test_util.hpp"

namespace proof::obs {
namespace {

/// Restores the runtime switch and scrubs test-local state on scope exit.
class ObsSandbox {
 public:
  ObsSandbox() : was_enabled_(enabled()) {
    set_enabled(true);
    MetricsRegistry::instance().reset();
    clear_trace();
  }
  ~ObsSandbox() {
    MetricsRegistry::instance().reset();
    clear_trace();
    set_enabled(was_enabled_);
  }

 private:
  bool was_enabled_;
};

TEST(Obs, CounterAggregatesAcrossPoolWorkers) {
  ObsSandbox sandbox;
  Counter& c = MetricsRegistry::instance().counter("test.pool_counter");
  ThreadPool pool(8);
  constexpr size_t kN = 10000;
  pool.parallel_for(kN, [&](size_t) { c.add(1); });
  EXPECT_EQ(c.value(), kN);
  c.add(5);
  EXPECT_EQ(c.value(), kN + 5);
}

TEST(Obs, RegistryReturnsStableReferences) {
  ObsSandbox sandbox;
  Counter& a = MetricsRegistry::instance().counter("test.stable");
  Counter& b = MetricsRegistry::instance().counter("test.stable");
  EXPECT_EQ(&a, &b);
  // Same name as a different kind must be rejected.
  EXPECT_THROW((void)MetricsRegistry::instance().gauge("test.stable"),
               Error);
}

TEST(Obs, HistogramBucketsAndQuantiles) {
  ObsSandbox sandbox;
  Histogram& h = MetricsRegistry::instance().histogram("test.hist");
  // 1000 observations of 10 us and one of 50 ms.
  for (int i = 0; i < 1000; ++i) {
    h.observe_ns(10'000);
  }
  h.observe_ns(50'000'000);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1001u);
  EXPECT_EQ(snap.max_ns, 50'000'000u);
  EXPECT_DOUBLE_EQ(static_cast<double>(snap.sum_ns),
                   1000.0 * 10'000 + 50'000'000);
  // p50 lands in the 10 us bucket, p999+ reaches the outlier's bucket.
  EXPECT_LT(snap.quantile_s(0.5), 20e-6);
  EXPECT_GT(snap.quantile_s(0.9999), 1e-3);
  EXPECT_GT(snap.mean_s(), 0.0);
}

TEST(Obs, HistogramConcurrentObserversLoseNothing) {
  ObsSandbox sandbox;
  Histogram& h = MetricsRegistry::instance().histogram("test.hist_mt");
  ThreadPool pool(8);
  constexpr size_t kN = 20000;
  pool.parallel_for(kN, [&](size_t i) { h.observe_ns(1000 * (i % 64 + 1)); });
  EXPECT_EQ(h.snapshot().count, kN);
}

TEST(Obs, SpanRecordsHistogramAndTraceEvent) {
  ObsSandbox sandbox;
  {
    PROOF_SPAN("test.span");
  }
  {
    PROOF_SPAN("test.span");
  }
#ifndef PROOF_OBS_DISABLED
  const HistogramSnapshot snap =
      MetricsRegistry::instance().histogram("test.span").snapshot();
  EXPECT_EQ(snap.count, 2u);
  const std::vector<TraceEvent> events = trace_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "test.span");
  EXPECT_GT(events[0].tid, 0u);
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
#endif
}

TEST(Obs, DisabledSpansAndCountersAreInert) {
  ObsSandbox sandbox;
  set_enabled(false);
  {
    PROOF_SPAN("test.disabled_span");
    PROOF_COUNT("test.disabled_count", 3);
  }
  set_enabled(true);
  EXPECT_TRUE(trace_events().empty());
#ifndef PROOF_OBS_DISABLED
  EXPECT_EQ(MetricsRegistry::instance()
                .histogram("test.disabled_span")
                .snapshot()
                .count,
            0u);
  EXPECT_EQ(MetricsRegistry::instance().counter("test.disabled_count").value(),
            0u);
#endif
}

TEST(Obs, SpansOnPoolWorkersGetDistinctTracks) {
  ObsSandbox sandbox;
  ThreadPool pool(4);
  pool.parallel_for(64, [&](size_t) {
    PROOF_SPAN("test.worker_span");
  });
#ifndef PROOF_OBS_DISABLED
  const std::vector<TraceEvent> events = trace_events();
  EXPECT_EQ(events.size(), 64u);
  for (const TraceEvent& e : events) {
    EXPECT_GT(e.tid, 0u);
  }
#endif
}

TEST(Obs, SelfProfileJsonIsWellFormed) {
  ObsSandbox sandbox;
  MetricsRegistry::instance().counter("test.json_counter").add(7);
  MetricsRegistry::instance().gauge("test.json_gauge").set(2.5);
  {
    PROOF_SPAN("test.json_span");
  }
  const std::string json = self_profile_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\":7"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"spans\":["), std::string::npos);
  EXPECT_NE(json.find("\"trace_events\":"), std::string::npos);

  const std::string text = self_profile_text();
  EXPECT_NE(text.find("test.json_counter"), std::string::npos);
}

TEST(Obs, SelfProfileJsonEscapesControlBytesInNames) {
  ObsSandbox sandbox;
  const std::string name = "test.tab\tcr\rquote\"\x01";
  MetricsRegistry::instance().counter(name).add(3);
  const json::Value doc = json::parse(self_profile_json());
  ASSERT_NE(doc.find("counters"), nullptr);
  EXPECT_EQ(doc.find("counters")->get_int(name), 3);
}

TEST(Obs, ResetZeroesValuesButKeepsRegistrations) {
  ObsSandbox sandbox;
  Counter& c = MetricsRegistry::instance().counter("test.reset");
  c.add(9);
  MetricsRegistry::instance().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);  // the cached reference is still live
  EXPECT_EQ(c.value(), 2u);
}

TEST(Obs, TraceBufferRespectsCap) {
  ObsSandbox sandbox;
  // The cap is process-wide state; just confirm clear_trace() resets both
  // the buffer and the dropped counter bookkeeping.
  {
    PROOF_SPAN("test.cap_span");
  }
  clear_trace();
  EXPECT_TRUE(trace_events().empty());
  EXPECT_EQ(trace_dropped(), 0u);
}

TEST(Obs, TraceEventCountMatchesBufferAndStopsAtCap) {
  ObsSandbox sandbox;
  EXPECT_EQ(trace_event_count(), 0u);
  for (int i = 0; i < 100; ++i) {
    PROOF_SPAN("test.count_span");
  }
#ifndef PROOF_OBS_DISABLED
  EXPECT_EQ(trace_event_count(), 100u);
  EXPECT_EQ(trace_event_count(), trace_events().size());

  constexpr size_t kPastCap = 25;
  for (size_t i = trace_event_count(); i < kMaxTraceEvents + kPastCap; ++i) {
    PROOF_SPAN("test.count_span");
  }
  EXPECT_EQ(trace_event_count(), kMaxTraceEvents);
  EXPECT_EQ(trace_events().size(), kMaxTraceEvents);
  EXPECT_EQ(trace_dropped(), kPastCap);
  clear_trace();
  EXPECT_EQ(trace_event_count(), 0u);
#endif
}

TEST(Obs, DumpSelfProfileThrowsNamingAnUnwritablePath) {
  const std::string missing_dir =
      (std::filesystem::temp_directory_path() /
       ("proof_no_such_dir_" + std::to_string(::getpid())) / "metrics.json")
          .string();
  for (const std::string& path : {missing_dir, std::string("/dev/full")}) {
    if (path == "/dev/full" && !std::ifstream(path).good()) {
      continue;  // no /dev/full on this system
    }
    try {
      dump_self_profile(path);
      ADD_FAILURE() << "dumping to " << path << " did not throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    }
  }
}

// Every metric name a PROOF_SPAN / PROOF_COUNT / PROOF_GAUGE_SET site under
// src/ passes as a string literal needs a row in docs/METRICS.md, and the
// serve.latency.<method> row names every daemon method.
TEST(MetricsDoc, ListsEveryEmittedMetric) {
  const std::filesystem::path root =
      std::filesystem::path(PROOF_TEST_SOURCE_DIR).parent_path();
  const std::string doc = testing::read_file(root / "docs" / "METRICS.md");
  ASSERT_FALSE(doc.empty()) << "cannot read docs/METRICS.md under " << root;

  size_t sites = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(root / "src")) {
    const std::string ext = entry.path().extension().string();
    if (!entry.is_regular_file() || (ext != ".cpp" && ext != ".hpp")) {
      continue;
    }
    const std::string text = testing::read_file(entry.path());
    for (const char* macro : {"PROOF_SPAN(\"", "PROOF_COUNT(\"", "PROOF_GAUGE_SET(\""}) {
      for (size_t pos = text.find(macro); pos != std::string::npos;
           pos = text.find(macro, pos + 1)) {
        const size_t begin = pos + std::strlen(macro);
        const std::string name = text.substr(begin, text.find('"', begin) - begin);
        ++sites;
        EXPECT_NE(doc.find("| `" + name + "` |"), std::string::npos)
            << name << " (" << entry.path().filename().string()
            << ") has no row in docs/METRICS.md";
      }
    }
  }
  EXPECT_GT(sites, 0u) << "no metric sites found under " << root / "src";

  const size_t row = doc.find("| `serve.latency.<method>` |");
  ASSERT_NE(row, std::string::npos) << "docs/METRICS.md has no serve.latency row";
  const std::string line = doc.substr(row, doc.find('\n', row) - row);
  for (const serve::Method& method : serve::kMethods) {
    EXPECT_NE(line.find("`" + std::string(method.name) + "`"), std::string::npos)
        << method.name << " is missing from: " << line;
  }
}

}  // namespace
}  // namespace proof::obs
