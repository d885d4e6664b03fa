// Profiling sweeps: batch-size selection, full-zoo runs and DVFS searches.
//
// The paper's Figure-4 methodology picks "a batch size ... that fully
// utilizes the hardware" per device; `sweep_batches` automates that choice by
// sweeping candidate batch sizes and selecting the knee of the throughput
// curve.  `sweep_zoo` runs the whole Table-3 model zoo under one
// configuration, and `sweep_clocks` / `search_gpu_clock_under_power`
// implement the §4.6 DVFS tuning procedure.
//
// Every sweep fans its points out over the global thread pool
// (support/thread_pool.hpp) and writes results by point index, so output is
// byte-identical to the serial order regardless of --jobs.
#pragma once

#include <vector>

#include "core/profiler.hpp"

namespace proof {

struct BatchPoint {
  int64_t batch = 0;
  double latency_s = 0.0;
  double throughput_per_s = 0.0;
  double attained_flops = 0.0;
};

struct BatchSweep {
  std::vector<BatchPoint> points;
  /// Smallest batch whose throughput is within `knee_tolerance` of the best.
  int64_t optimal_batch = 0;
};

/// The batches a batch sweep profiles: `requested`, or powers of two 1..2048
/// when it is empty, with non-positive entries and repeats dropped (first
/// occurrence wins).  Throws ConfigError when no candidate is left.  Shared
/// by sweep_batches and the serve daemon's incremental sweep.
[[nodiscard]] std::vector<int64_t> batch_candidates(std::vector<int64_t> requested);

/// Profiles `model` at each of `batch_candidates(candidates)` and selects
/// the saturation knee.  `knee_tolerance` = 0.05 keeps the smallest batch
/// within 5 % of peak throughput.
[[nodiscard]] BatchSweep sweep_batches(const ProfileOptions& base,
                                       const Graph& model,
                                       std::vector<int64_t> candidates = {},
                                       double knee_tolerance = 0.05);

/// The knee-selection rule on its own: the smallest batch whose throughput is
/// within `knee_tolerance` of the best point.  Returns 0 for an empty sweep.
/// Shared by sweep_batches and the serve daemon's incremental sweep, which
/// profiles points one at a time (streaming them out) rather than as one
/// parallel fan-out.
[[nodiscard]] int64_t select_optimal_batch(const std::vector<BatchPoint>& points,
                                           double knee_tolerance = 0.05);

/// Text rendering of a sweep.
[[nodiscard]] std::string sweep_text(const BatchSweep& sweep);

// --- full-zoo sweep ----------------------------------------------------------

struct ZooSweepPoint {
  std::string model_id;
  std::string display;              ///< Table-3 display name
  double latency_s = 0.0;
  double throughput_per_s = 0.0;
  double attained_flops = 0.0;
  double mapping_coverage = 0.0;
  /// Set when the model failed to build/lower on this platform (the paper's
  /// NPU observation); the numeric fields are zero in that case.
  std::string error;
};

struct ZooSweep {
  std::vector<ZooSweepPoint> points;  ///< zoo order (Table 3 indices)
};

/// Profiles every zoo model (default: all Table-3 entries) under `base`.
/// Per-model build failures are recorded in `error` instead of aborting the
/// sweep.  Points come back in the requested order regardless of --jobs.
[[nodiscard]] ZooSweep sweep_zoo(const ProfileOptions& base,
                                 std::vector<std::string> model_ids = {});

/// Text rendering of a zoo sweep.
[[nodiscard]] std::string zoo_sweep_text(const ZooSweep& sweep);

// --- DVFS sweeps (§4.6) ------------------------------------------------------

struct ClockPoint {
  double gpu_mhz = 0.0;
  double latency_s = 0.0;
  double power_w = 0.0;
  double throughput_per_s = 0.0;
};

struct ClockSweep {
  std::vector<ClockPoint> points;  ///< ascending gpu_mhz
};

/// Profiles `model` at each GPU clock step (default: every step the
/// platform's gpu_clock domain offers), holding the rest of `base.clocks`
/// fixed.
[[nodiscard]] ClockSweep sweep_clocks(const ProfileOptions& base,
                                      const Graph& model,
                                      std::vector<double> gpu_mhz_steps = {});

/// §4.6 power-budget search: evaluates the platform's GPU clock steps and
/// returns the highest clock whose modelled board power stays within
/// `power_budget_w` (when every step busts the budget, the LOWEST step — the
/// closest the hardware can get to compliance — not 0).  Unlike the paper's
/// serial binary search this evaluates candidate steps concurrently — same
/// result, one pool fan-out instead of log2(n) round trips.
///
/// Surprise to note: when `sweep_out` is non-null the evaluated points are
/// APPENDED to `sweep_out->points` — existing points are kept, not replaced,
/// so callers can accumulate several searches (e.g. per power budget) into
/// one ClockSweep for a combined table.  `sweep_out->points` therefore ends
/// up sorted by clock only within each appended segment, and
/// `sweep_out`'s other fields are never touched.  Pass an empty ClockSweep
/// for plain capture semantics.  Pinned by SweepClocks.PowerSearchAppendsToSweepOut.
[[nodiscard]] double search_gpu_clock_under_power(const ProfileOptions& base,
                                                  const Graph& model,
                                                  double power_budget_w,
                                                  ClockSweep* sweep_out = nullptr);

}  // namespace proof
