// RAII span tracer for the profiler's own pipeline stages.
//
// A span measures one stage (prepare, plan, lower, mapping, latency, sweep
// ...) and on destruction feeds
//  * the stage's latency histogram + invocation counter (MetricsRegistry),
//  * a bounded trace-event buffer serialized into the chrome_trace writer,
//    with one track per OS thread so parallel sweep work renders as real
//    per-thread lanes in chrome://tracing.
//
// Cost model: when obs::enabled() is false a span is one relaxed atomic load;
// when compiled with PROOF_OBS_DISABLED the macros expand to nothing.  Use
// spans at stage granularity (>= microseconds of work), not per node.
//
// Usage — always through the macros so the metric lookup happens once per
// call site (function-local static):
//
//   void run() {
//     PROOF_SPAN("profiler.run");          // whole-function span
//     ...
//     { PROOF_SPAN("profiler.prepare"); prepare(); }   // scoped stage
//   }
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"

namespace proof::obs {

/// Monotonic nanoseconds since the process's first observability call.
[[nodiscard]] uint64_t now_ns();

/// One completed span in the self-profile timeline.
struct TraceEvent {
  const char* name = nullptr;  ///< string literal from the span site
  uint32_t tid = 0;            ///< small per-OS-thread track id (1-based)
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
};

/// Per-call-site metric bundle; constructed once (function-local static in
/// PROOF_SPAN) so steady-state spans never touch the registry mutex.
struct SpanSite {
  explicit SpanSite(const char* name_in)
      : name(name_in),
        hist(MetricsRegistry::instance().histogram(name_in)) {}
  const char* name;
  Histogram& hist;
};

class Span {
 public:
  explicit Span(const SpanSite& site)
      : site_(&site), active_(enabled()), start_ns_(active_ ? now_ns() : 0) {}
  ~Span() { if (active_) { finish(); } }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void finish();

  const SpanSite* site_;
  bool active_;
  uint64_t start_ns_;
};

// --- trace buffer ------------------------------------------------------------

/// Hard cap on buffered self-profile events; completions past the cap are
/// still counted in metrics but dropped from the timeline (see
/// `obs.trace.dropped` in the self-profile export).
constexpr size_t kMaxTraceEvents = 1 << 16;

/// All buffered events, merged across threads and sorted by start time.
[[nodiscard]] std::vector<TraceEvent> trace_events();

/// Number of buffered events (at most kMaxTraceEvents), read from one atomic:
/// no copy, no sort, no shard lock.
[[nodiscard]] size_t trace_event_count();

/// Number of events dropped since the last clear_trace() due to the cap.
[[nodiscard]] uint64_t trace_dropped();

/// Empties the trace buffer (metrics are untouched; see MetricsRegistry).
void clear_trace();

}  // namespace proof::obs

// --- instrumentation macros --------------------------------------------------

#define PROOF_OBS_CAT_(a, b) a##b
#define PROOF_OBS_CAT(a, b) PROOF_OBS_CAT_(a, b)

#ifndef PROOF_OBS_DISABLED

/// Opens an RAII span named `name` (string literal) until end of scope.
#define PROOF_SPAN(name)                                                     \
  static const ::proof::obs::SpanSite PROOF_OBS_CAT(proof_span_site_,        \
                                                    __LINE__){name};         \
  const ::proof::obs::Span PROOF_OBS_CAT(proof_span_, __LINE__)(             \
      PROOF_OBS_CAT(proof_span_site_, __LINE__))

/// Adds `n` to the counter named `name` (string literal).
#define PROOF_COUNT(name, n)                                                 \
  do {                                                                       \
    if (::proof::obs::enabled()) {                                           \
      static ::proof::obs::Counter& proof_count_site =                       \
          ::proof::obs::MetricsRegistry::instance().counter(name);           \
      proof_count_site.add(n);                                               \
    }                                                                        \
  } while (0)

/// Sets the gauge named `name` (string literal) to `v`.
#define PROOF_GAUGE_SET(name, v)                                             \
  do {                                                                       \
    if (::proof::obs::enabled()) {                                           \
      static ::proof::obs::Gauge& proof_gauge_site =                         \
          ::proof::obs::MetricsRegistry::instance().gauge(name);             \
      proof_gauge_site.set(v);                                               \
    }                                                                        \
  } while (0)

#else  // PROOF_OBS_DISABLED: compile instrumentation out entirely.

#define PROOF_SPAN(name) ((void)0)
#define PROOF_COUNT(name, n) ((void)0)
#define PROOF_GAUGE_SET(name, v) ((void)0)

#endif
