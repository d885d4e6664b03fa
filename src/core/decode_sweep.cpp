#include "core/decode_sweep.hpp"

#include <algorithm>
#include <exception>
#include <sstream>
#include <utility>

#include "core/json_writer.hpp"
#include "core/prep_cache.hpp"
#include "core/sweep_axis.hpp"
#include "hw/platform.hpp"
#include "models/zoo.hpp"
#include "obs/span.hpp"
#include "report/table.hpp"
#include "report/time_view.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "support/units.hpp"

namespace proof {

namespace {

/// Positive, ascending, deduplicated grid axis; throws naming the axis for
/// an empty grid or any non-positive entry.
std::vector<int64_t> clean_axis(const std::vector<int64_t>& values,
                                const char* what) {
  sweep_axis::AxisSpec spec;
  spec.context = "sweep_decode";
  spec.what = what;
  spec.reject_nonpositive = true;
  spec.sorted = true;
  return sweep_axis::clean_axis(values, spec);
}

ProfileOptions profile_options(const DecodeSweepOptions& options, int64_t batch) {
  ProfileOptions opt;
  opt.platform_id = options.platform_id;
  opt.backend_id = options.backend_id;
  opt.dtype = options.dtype;
  opt.batch = batch;
  opt.mode = MetricMode::kPredicted;  // deterministic, runs on every platform
  return opt;
}

/// Headline bound-ness and display names of a sweep whose cells all ran.
void finish_sweep(DecodeSweep& sweep) {
  // Headline bound-ness: latency-weighted over the smallest-batch points.
  double latency_sum = 0.0;
  double weighted = 0.0;
  for (const DecodePoint& point : sweep.points) {
    if (point.batch != sweep.options.batches.front()) {
      continue;
    }
    latency_sum += point.latency_s;
    weighted += point.latency_s * point.bandwidth_bound_fraction;
  }
  sweep.decode_bound_fraction = latency_sum > 0.0 ? weighted / latency_sum : 0.0;

  const hw::PlatformDesc& platform =
      hw::PlatformRegistry::instance().get(sweep.options.platform_id);
  sweep.platform_name = platform.name;
  sweep.backend_name = sweep.options.backend_id.empty() ? platform.runtime
                                                        : sweep.options.backend_id;
}

/// One platform's share of a decode grid.  Cell `c` is prefill point `c`
/// for c < B, else decode point `c - B`; it records its failure in errors[c].
struct PlatformGrid {
  DecodeSweep sweep;
  std::vector<std::exception_ptr> errors;

  /// The lowest-index failure.  A failed builder (cell 0 or B) skips every
  /// other cell, so this is the prefill builder's error, else the decode
  /// builder's, else the first failing grid point's.
  [[nodiscard]] std::exception_ptr error() const {
    for (const std::exception_ptr& e : errors) {
      if (e) {
        return e;
      }
    }
    return nullptr;
  }
};

/// Runs the decode grid on every platform in `platform_ids` as the two-pass
/// fan-out described in decode_sweep.hpp.  Throws for an invalid grid or
/// unknown config; cell failures land in PlatformGrid::errors.
std::vector<PlatformGrid> run_decode_grid(
    const DecodeSweepOptions& base, const std::vector<std::string>& platform_ids) {
  DecodeSweepOptions options = base;
  options.batches = clean_axis(base.batches, "batch sizes");
  options.positions = clean_axis(base.positions, "decode positions");
  PROOF_CHECK(options.prefill_len >= 1,
              "prefill length must be >= 1, got " << options.prefill_len);
  const models::LlmConfig& cfg = models::llm_config(options.config_id);

  const std::vector<int64_t>& batches = options.batches;
  const std::vector<int64_t>& positions = options.positions;
  const size_t decode_begin = batches.size();
  const size_t cells = decode_begin + batches.size() * positions.size();

  PROOF_SPAN("sweep.decode");
  PROOF_COUNT("sweep.points", platform_ids.size() * cells);

  // graphs[0] is the prefill graph, graphs[1 + p] the decode step at
  // positions[p].  Batch is applied during backend prepare (which copies), so
  // warm the lazy indices and hash the cache fingerprints once up front.  All
  // decode positions share one structural fingerprint (position only appears
  // in KV-cache input dims, which the structural key rank-erases), so each
  // platform builds one AnalysisPlan per phase.
  std::vector<Graph> graphs;
  std::vector<GraphKeys> keys;
  {
    PROOF_SPAN("sweep.decode.graphs");
    graphs.reserve(1 + positions.size());
    graphs.push_back(models::build_llm_prefill(cfg, options.prefill_len));
    for (const int64_t position : positions) {
      graphs.push_back(models::build_llm_decode_step(cfg, position));
    }
    for (const Graph& graph : graphs) {
      graph.warm_indices();
      keys.push_back(compute_graph_keys(graph));
    }
  }

  std::vector<PlatformGrid> grids(platform_ids.size());
  for (size_t k = 0; k < grids.size(); ++k) {
    DecodeSweep& sweep = grids[k].sweep;
    sweep.options = options;
    sweep.options.platform_id = platform_ids[k];
    sweep.model_display = cfg.display;
    sweep.prefill.resize(batches.size());
    sweep.points.resize(cells - decode_begin);
    grids[k].errors.resize(cells);
  }

  // A cell catches its own failure: parallel_for's abort-on-first-exception
  // would otherwise let one platform cancel the others' cells.  The
  // representative per-phase views (smallest batch; decode at the deepest
  // position) keep the time analysis their cell computed anyway.
  const auto run_cell = [&](size_t k, size_t c) {
    DecodeSweep& sweep = grids[k].sweep;
    try {
      const bool prefill = c < decode_begin;
      const size_t i = prefill ? c : c - decode_begin;
      const int64_t batch = batches[prefill ? i : i / positions.size()];
      const size_t g = prefill ? 0 : 1 + i % positions.size();
      const ProfileReport r = Profiler(profile_options(sweep.options, batch))
                                  .run(graphs[g], &keys[g]);
      roofline::TimeAnalysis time = roofline::time_analysis(r.roofline);
      if (prefill) {
        PrefillPoint& point = sweep.prefill[i];
        point.batch = batch;
        point.latency_s = r.total_latency_s;
        point.tokens_per_s =
            r.total_latency_s > 0.0
                ? static_cast<double>(batch * options.prefill_len) /
                      r.total_latency_s
                : 0.0;
        point.bandwidth_bound_fraction = time.bandwidth_bound_latency_fraction();
        if (i == 0) {
          sweep.prefill_time = std::move(time);
        }
        return;
      }
      DecodePoint& point = sweep.points[i];
      point.batch = batch;
      point.position = positions[g - 1];
      point.latency_s = r.total_latency_s;
      point.tokens_per_s = r.throughput_per_s();  // batch tokens per step
      point.flops = r.roofline.end_to_end.flops;
      point.bytes = r.roofline.end_to_end.bytes;
      point.arithmetic_intensity =
          r.roofline.end_to_end.arithmetic_intensity();
      point.bandwidth_bound_fraction = time.bandwidth_bound_latency_fraction();
      point.bandwidth_bound = point.bandwidth_bound_fraction > 0.5;
      if (i == positions.size() - 1) {
        sweep.decode_time = std::move(time);
      }
    } catch (...) {
      grids[k].errors[c] = std::current_exception();
    }
  };

  {
    PROOF_SPAN("sweep.decode.plans");
    ThreadPool::global().parallel_for(2 * grids.size(), [&](size_t i) {
      run_cell(i / 2, i % 2 == 0 ? 0 : decode_begin);
    });
  }
  {
    PROOF_SPAN("sweep.decode.cells");
    std::vector<std::pair<size_t, size_t>> rest;
    for (size_t k = 0; k < grids.size(); ++k) {
      if (grids[k].error()) {
        continue;
      }
      for (size_t c = 1; c < cells; ++c) {
        if (c != decode_begin) {
          rest.emplace_back(k, c);
        }
      }
    }
    ThreadPool::global().parallel_for(rest.size(), [&](size_t i) {
      run_cell(rest[i].first, rest[i].second);
    });
  }

  for (PlatformGrid& grid : grids) {
    if (!grid.error()) {
      finish_sweep(grid.sweep);
    }
  }
  return grids;
}

}  // namespace

DecodeSweep sweep_decode(const DecodeSweepOptions& options) {
  if (options.platform_id.empty()) {
    throw ConfigError("sweep_decode: platform_id is required");
  }
  PlatformGrid grid = std::move(run_decode_grid(options, {options.platform_id}).front());
  if (const std::exception_ptr error = grid.error()) {
    std::rethrow_exception(error);
  }
  return std::move(grid.sweep);
}

std::string decode_sweep_text(const DecodeSweep& sweep) {
  std::ostringstream out;
  out << "LLM decode sweep: " << sweep.model_display << "  platform: "
      << sweep.platform_name << "  backend: " << sweep.backend_name << "\n";
  out << "prefill length: " << sweep.options.prefill_len
      << "  dtype: " << dtype_name(sweep.options.dtype) << "\n\n";

  report::TextTable prefill({"batch", "prefill latency", "prefill tokens/s",
                             "bw-bound"});
  for (const PrefillPoint& p : sweep.prefill) {
    prefill.add_row({std::to_string(p.batch), units::ms(p.latency_s),
                     units::fixed(p.tokens_per_s, 0) + "/s",
                     units::percent(p.bandwidth_bound_fraction)});
  }
  out << "prefill phase:\n" << prefill.to_string() << "\n";

  std::vector<std::string> headers = {"batch"};
  for (const int64_t position : sweep.options.positions) {
    headers.push_back("tok/s @p" + std::to_string(position));
  }
  headers.push_back("bw-bound @p" +
                    std::to_string(sweep.options.positions.back()));
  report::TextTable decode(std::move(headers));
  for (const int64_t batch : sweep.options.batches) {
    std::vector<std::string> row = {std::to_string(batch)};
    double last_fraction = 0.0;
    for (const DecodePoint& p : sweep.points) {
      if (p.batch != batch) {
        continue;
      }
      row.push_back(units::fixed(p.tokens_per_s, 0));
      last_fraction = p.bandwidth_bound_fraction;
    }
    row.push_back(units::percent(last_fraction));
    decode.add_row(std::move(row));
  }
  out << "decode phase (tokens/s per step):\n" << decode.to_string() << "\n";

  out << "decode-bound-ness @ batch " << sweep.options.batches.front() << ": "
      << units::percent(sweep.decode_bound_fraction)
      << " of decode time bandwidth-bound -> "
      << (sweep.decode_bandwidth_bound() ? "memory" : "compute") << "-bound\n\n";

  out << "prefill time roofline (batch " << sweep.options.batches.front()
      << ", S=" << sweep.options.prefill_len << "):\n"
      << report::time_roofline_table_text(sweep.prefill_time, 10) << "\n";
  out << "decode time roofline (batch " << sweep.options.batches.front()
      << ", S_past=" << sweep.options.positions.back() << "):\n"
      << report::time_roofline_table_text(sweep.decode_time, 10);
  return out.str();
}

namespace {

void emit_time_phase(JsonWriter& w, const std::string& key,
                     const roofline::TimeAnalysis& time) {
  w.begin_object(key);
  w.field("flops", time.total.flops);
  w.field("bytes", time.total.bytes);
  w.field("latency_s", time.total.latency_s);
  w.field("compute_time_s", time.total.compute_time_s);
  w.field("memory_time_s", time.total.memory_time_s);
  w.field("bound_time_s", time.total.bound_time_s);
  w.field("bandwidth_bound", time.total.bandwidth_bound);
  w.field("bandwidth_bound_time_fraction", time.bandwidth_bound_time_fraction());
  w.field("bandwidth_bound_latency_fraction",
          time.bandwidth_bound_latency_fraction());
  w.field("layers", static_cast<int64_t>(time.layers.size()));
  w.end_object();
}

}  // namespace

std::string decode_sweep_json(const DecodeSweep& sweep) {
  JsonWriter w;
  w.begin_object();
  w.field("config", sweep.options.config_id);
  w.field("model", sweep.model_display);
  w.field("platform", sweep.options.platform_id);
  w.field("backend", sweep.backend_name);
  w.field("dtype", dtype_name(sweep.options.dtype));
  w.field("prefill_len", sweep.options.prefill_len);
  w.begin_array("prefill");
  for (const PrefillPoint& p : sweep.prefill) {
    w.begin_object();
    w.field("batch", p.batch);
    w.field("latency_s", p.latency_s);
    w.field("tokens_per_s", p.tokens_per_s);
    w.field("bandwidth_bound_fraction", p.bandwidth_bound_fraction);
    w.end_object();
  }
  w.end_array();
  w.begin_array("decode");
  for (const DecodePoint& p : sweep.points) {
    w.begin_object();
    w.field("batch", p.batch);
    w.field("position", p.position);
    w.field("latency_s", p.latency_s);
    w.field("tokens_per_s", p.tokens_per_s);
    w.field("flops", p.flops);
    w.field("bytes", p.bytes);
    w.field("arithmetic_intensity", p.arithmetic_intensity);
    w.field("bandwidth_bound_fraction", p.bandwidth_bound_fraction);
    w.field("bandwidth_bound", p.bandwidth_bound);
    w.end_object();
  }
  w.end_array();
  emit_time_phase(w, "prefill_time_roofline", sweep.prefill_time);
  emit_time_phase(w, "decode_time_roofline", sweep.decode_time);
  w.field("decode_bound_fraction", sweep.decode_bound_fraction);
  w.field("decode_bandwidth_bound", sweep.decode_bandwidth_bound());
  w.end_object();
  return w.take();
}

std::vector<PlatformDecodeSummary> sweep_decode_platforms(
    const DecodeSweepOptions& base, std::vector<std::string> platform_ids) {
  if (platform_ids.empty()) {
    platform_ids = hw::PlatformRegistry::instance().ids();
  }
  PROOF_SPAN("sweep.decode_platforms");
  DecodeSweepOptions options = base;
  options.backend_id.clear();  // each platform uses its default runtime
  const std::vector<PlatformGrid> grids = run_decode_grid(options, platform_ids);
  std::vector<PlatformDecodeSummary> rows;
  rows.reserve(platform_ids.size());
  for (size_t k = 0; k < grids.size(); ++k) {
    PlatformDecodeSummary row;
    row.platform_id = platform_ids[k];
    row.platform_name = platform_ids[k];
    try {
      if (const std::exception_ptr error = grids[k].error()) {
        std::rethrow_exception(error);
      }
      const DecodeSweep& sweep = grids[k].sweep;
      row.platform_name = sweep.platform_name;
      row.decode_bound_fraction = sweep.decode_bound_fraction;
      row.decode_bandwidth_bound = sweep.decode_bandwidth_bound();
      for (const DecodePoint& p : sweep.points) {
        if (p.batch == sweep.options.batches.front() &&
            p.position == sweep.options.positions.back()) {
          row.decode_tokens_per_s = p.tokens_per_s;
        }
      }
      row.prefill_latency_s = sweep.prefill.front().latency_s;
    } catch (const Error& e) {
      row.error = e.what();  // e.g. NPU compiler rejecting Gelu/Silu
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string decode_platforms_text(
    const std::vector<PlatformDecodeSummary>& rows) {
  if (rows.empty()) {
    return "(no platforms)\n";
  }
  report::TextTable table({"platform", "decode tok/s", "prefill latency",
                           "bw-bound time", "decode bound"});
  size_t bandwidth_bound = 0;
  size_t ran = 0;
  for (const PlatformDecodeSummary& row : rows) {
    if (!row.error.empty()) {
      table.add_row({row.platform_name, "failed", "-", "-", "-"});
      continue;
    }
    ++ran;
    if (row.decode_bandwidth_bound) {
      ++bandwidth_bound;
    }
    table.add_row({row.platform_name, units::fixed(row.decode_tokens_per_s, 0),
                   units::ms(row.prefill_latency_s),
                   units::percent(row.decode_bound_fraction),
                   row.decode_bandwidth_bound ? "memory" : "compute"});
  }
  std::ostringstream out;
  out << table.to_string();
  out << "decode bandwidth-bound on " << bandwidth_bound << " of " << ran
      << " platforms (" << rows.size() - ran << " failed)\n";
  return out.str();
}

std::string decode_platforms_json(
    const std::vector<PlatformDecodeSummary>& rows) {
  JsonWriter w;
  w.begin_object();
  w.begin_array("platforms");
  for (const PlatformDecodeSummary& row : rows) {
    w.begin_object();
    w.field("platform", row.platform_id);
    w.field("name", row.platform_name);
    if (!row.error.empty()) {
      w.field("error", row.error);
    } else {
      w.field("decode_tokens_per_s", row.decode_tokens_per_s);
      w.field("prefill_latency_s", row.prefill_latency_s);
      w.field("decode_bound_fraction", row.decode_bound_fraction);
      w.field("decode_bandwidth_bound", row.decode_bandwidth_bound);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace proof
