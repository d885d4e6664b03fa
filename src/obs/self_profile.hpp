// Self-profile export: the queryable record every run leaves behind.
//
// Three surfaces share this serialization:
//  * `report_to_json(report, /*include_self_profile=*/true)` embeds it as a
//    "self_profile" section of the profile report,
//  * `proof stats` prints the human table and can save the JSON,
//  * PROOF_METRICS_OUT=<path> dumps the JSON at process exit (registered by
//    the first instrumented call; crash-free runs always leave the record).
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace proof::obs {

/// Whole-registry snapshot as one JSON object:
/// {"enabled":…,"counters":{…},"gauges":{…},
///  "spans":[{"name","count","total_s","mean_s","p50_s","p95_s","max_s"},…],
///  "trace_events":N,"trace_dropped":N}
/// Span histograms are keyed by their span name; units are seconds.
[[nodiscard]] std::string self_profile_json();

/// Human-readable rendering of the same snapshot (span table + counters).
[[nodiscard]] std::string self_profile_text();

/// Writes self_profile_json() to `path` ("" = no-op).  Throws proof::Error
/// naming `path` when the file cannot be opened, written or flushed.
void dump_self_profile(const std::string& path);

/// Registers an atexit dump to $PROOF_METRICS_OUT once per process; cheap to
/// call repeatedly.  Invoked by the instrumented pipeline entry points.  A
/// failed dump prints one stderr line naming the path; the exit code stays.
void arm_metrics_dump_at_exit();

}  // namespace proof::obs
