// LLM serving sweep: batch size x decode position, per phase.
//
// Autoregressive generation splits into a prefill pass (prompt length S,
// GEMM-dominated) and a long run of decode steps whose KV cache — and with
// it the bytes per step — grows with the position.  This sweep profiles the
// prefill graph once per batch and the decode-step graph at every
// (batch, position) grid point, then reports:
//   * tokens/s vs batch curves (one curve per decode position),
//   * per-phase time-based rooflines (roofline/time_roofline.hpp) at a
//     representative point, and
//   * the decode-bound-ness headline: the fraction of decode time that is
//     bandwidth-bound at the smallest batch.
//
// One grid runner serves both the single-platform sweep and the
// cross-platform summary.  It builds the prefill graph and one decode graph
// per position once per call, shared read-only by every platform, then fans
// out over the global ThreadPool in two passes: first each platform's two
// structure builders (prefill and decode at the smallest batch and first
// position), whose distinct structural keys let every AnalysisPlan build
// concurrently; then every other cell, each instantiating a published plan
// from the shared PrepCache, so no cell waits on an in-flight build.  Cells
// are written by index, so the output is byte-identical regardless of
// --jobs (the determinism contract every sweep in this module honors).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/profiler.hpp"
#include "roofline/time_roofline.hpp"

namespace proof {

struct DecodeSweepOptions {
  std::string config_id = "gpt2";   ///< models::llm_config id
  std::string platform_id;          ///< required
  std::string backend_id;           ///< empty = platform default runtime
  DType dtype = DType::kF16;
  int64_t prefill_len = 512;        ///< prompt length S for the prefill phase
  std::vector<int64_t> batches = {1, 2, 4, 8};
  std::vector<int64_t> positions = {64, 256, 512, 1024};  ///< S_past grid
};

/// One decode-step grid point.
struct DecodePoint {
  int64_t batch = 0;
  int64_t position = 0;             ///< S_past at this step
  double latency_s = 0.0;           ///< one decode step
  double tokens_per_s = 0.0;        ///< batch / latency_s
  double flops = 0.0;
  double bytes = 0.0;
  double arithmetic_intensity = 0.0;
  /// Share of roofline-bound time in bandwidth-bound layers (time roofline).
  double bandwidth_bound_fraction = 0.0;
  bool bandwidth_bound = false;     ///< fraction > 0.5
};

/// One prefill point (per batch).
struct PrefillPoint {
  int64_t batch = 0;
  double latency_s = 0.0;
  double tokens_per_s = 0.0;        ///< batch * prefill_len / latency_s
  double bandwidth_bound_fraction = 0.0;
};

struct DecodeSweep {
  DecodeSweepOptions options;
  std::string model_display;        ///< e.g. "GPT-2 small (decoder)"
  std::string platform_name;
  std::string backend_name;

  std::vector<PrefillPoint> prefill;    ///< options.batches order
  std::vector<DecodePoint> points;      ///< batch-major over positions

  /// Per-phase time-roofline views at the representative point: prefill at
  /// the smallest batch; decode at the smallest batch and largest position.
  roofline::TimeAnalysis prefill_time;
  roofline::TimeAnalysis decode_time;

  /// Headline decode-bound-ness: latency-weighted bandwidth-bound fraction
  /// over the smallest-batch decode points.
  double decode_bound_fraction = 0.0;
  [[nodiscard]] bool decode_bandwidth_bound() const {
    return decode_bound_fraction > 0.5;
  }
};

/// Runs the sweep.  Throws ConfigError for unknown configs/platforms, empty
/// or non-positive grids, and platforms that cannot lower the model.
[[nodiscard]] DecodeSweep sweep_decode(const DecodeSweepOptions& options);

/// Text rendering: tokens/s-vs-batch table, per-phase time-roofline tables,
/// bound-ness summary.
[[nodiscard]] std::string decode_sweep_text(const DecodeSweep& sweep);

/// Deterministic JSON section (no wall-clock fields) for goldens and the
/// serve method.
[[nodiscard]] std::string decode_sweep_json(const DecodeSweep& sweep);

// --- all-platforms summary ---------------------------------------------------

/// One platform's row of the cross-platform decode summary.
struct PlatformDecodeSummary {
  std::string platform_id;
  std::string platform_name;
  double decode_bound_fraction = 0.0;   ///< at the smallest batch
  bool decode_bandwidth_bound = false;
  double decode_tokens_per_s = 0.0;     ///< smallest batch, largest position
  double prefill_latency_s = 0.0;       ///< smallest batch
  /// Set when the platform cannot run the model (e.g. the NPU compiler
  /// rejecting activation ops); numeric fields are zero then.
  std::string error;
};

/// Runs the decode grid on every registry platform (or `platform_ids` when
/// non-empty), each on its default runtime (`base.backend_id` is ignored),
/// in one fan-out.  Throws ConfigError for an invalid grid or unknown config,
/// like `sweep_decode`; a platform that cannot run the model gets an error
/// row (the error its prefill builder, else its decode builder, else its
/// first failing point threw) instead of aborting the others.
[[nodiscard]] std::vector<PlatformDecodeSummary> sweep_decode_platforms(
    const DecodeSweepOptions& base, std::vector<std::string> platform_ids = {});

/// Text rendering of the cross-platform summary.
[[nodiscard]] std::string decode_platforms_text(
    const std::vector<PlatformDecodeSummary>& rows);

/// Deterministic JSON array of the cross-platform summary.
[[nodiscard]] std::string decode_platforms_json(
    const std::vector<PlatformDecodeSummary>& rows);

}  // namespace proof
