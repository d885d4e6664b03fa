// cold_profile: first-time profiles, one caller, one job.
//
// Every op clears the PrepCache and then runs Profiler::run + report_to_json
// on a ModelPool graph, so each op pays the whole structure phase (fusion
// plan, lower, AR/OAR, mapping, plan freeze).  Cells are the 28 zoo models x
// 3 configurations; a run makes whole passes over all 84 cells, each pass in
// a seeded order, so every seed measures the same work.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/prep_cache.hpp"
#include "core/profiler.hpp"
#include "core/report_json.hpp"
#include "hw/latency_model.hpp"
#include "hw/platform.hpp"
#include "models/zoo.hpp"
#include "obs/metrics.hpp"
#include "serve/model_pool.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {
namespace {

using proof::ProfileOptions;

constexpr unsigned kJobs = 1;
constexpr size_t kSetupReps = 21;
/// Cells per second of run time the op count is sized for; the op count is
/// fixed by --seconds, never by the clock, so every run measures the same
/// ops.  At 25 s this gives 8 passes, so the tail (10 samples beyond) falls
/// inside the repeated samples of the heaviest cells, not on one outlier.
constexpr double kNominalCellsPerSecond = 27.0;

struct Cell {
  std::string model;
  ProfileOptions options;
  bool golden = false;  ///< the a100 golden configuration, frozen in tests/golden
};

/// The 28 zoo models: the 20 of Table 3 plus the extended set.
std::vector<std::string> zoo_ids() {
  std::vector<std::string> ids;
  for (const auto* zoo : {&proof::models::model_zoo(), &proof::models::extended_model_zoo()}) {
    for (const proof::models::ModelSpec& spec : *zoo) {
      ids.push_back(spec.id);
    }
  }
  return ids;
}

std::vector<Cell> make_cells() {
  static const std::vector<std::string> kGoldens = {"resnet50", "bert_base",
                                                    "shufflenetv2_10", "sd_unet"};
  std::vector<Cell> cells;
  for (const std::string& id : zoo_ids()) {
    ProfileOptions golden;
    golden.platform_id = "a100";
    golden.backend_id = "trt_sim";
    golden.dtype = proof::DType::kF16;
    golden.batch = id == "sd_unet" ? 2 : 4;
    golden.mode = proof::MetricMode::kPredicted;
    const bool frozen =
        std::find(kGoldens.begin(), kGoldens.end(), id) != kGoldens.end();
    cells.push_back({id, golden, frozen});
    for (const char* backend : {"ort_sim", "ov_sim"}) {
      ProfileOptions cpu;
      cpu.platform_id = "xeon6330";
      cpu.backend_id = backend;
      cpu.dtype = proof::DType::kF32;
      cpu.batch = 1;
      cpu.mode = proof::MetricMode::kPredicted;
      cells.push_back({id, cpu, false});
    }
  }
  return cells;
}

const std::vector<Cell>& cells() {
  static const std::vector<Cell> kCells = make_cells();
  return kCells;
}

std::string cell_name(const Cell& c) {
  return c.model + "/" + c.options.platform_id + "/" + c.options.backend_id;
}

/// Replays the op's prepare through the public stage calls, each in its own
/// span, plus the latency simulation the profile runs on the built engine.
void replay_prepare(const Cell& cell, const proof::Graph& model) {
  ScopedSpan replay("replay");
  const proof::hw::PlatformDesc& platform =
      proof::hw::PlatformRegistry::instance().get(cell.options.platform_id);
  proof::backends::BuildConfig config;
  config.dtype = cell.options.dtype;
  config.batch = cell.options.batch;
  const auto entry = replay_structure(
      model, platform, proof::backends::BackendRegistry::instance().get(cell.options.backend_id),
      config);
  const proof::backends::EngineProfile profile = traced("hw.engine_profile", [&] {
    return entry->engine.profile(proof::hw::PlatformState(platform, cell.options.clocks),
                                 cell.options.iterations);
  });
  (void)profile;
}

struct Pass {
  std::vector<double> op_ms;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  uint64_t index_rebuilds = 0;
  CacheLedger cache;
};

}  // namespace

std::vector<std::string> cold_profile_ops(uint64_t seed, int seconds) {
  const size_t n = cells().size();
  const auto passes = std::max<size_t>(
      2, static_cast<size_t>(seconds * kNominalCellsPerSecond / static_cast<double>(n) + 0.5));
  Rng rng(seed * 0x100000001b3ull + 1);
  std::vector<std::string> ops;
  for (size_t p = 0; p < passes; ++p) {
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    for (const size_t i : order) {
      ops.push_back(std::to_string(i));
    }
  }
  return ops;
}

Result run_cold_profile(const Args& args) {
  Result r;
  proof::ThreadPool::set_global_jobs(kJobs);
  r.note("jobs", std::to_string(kJobs));
  proof::PrepCache& cache = proof::PrepCache::instance();

  // Set-up: load the 28 zoo graphs into the pool the ops take them from.
  // The timed pass repeats it kSetupReps - 1 times, spread over the ops,
  // releasing the previous pool first, so one pool is alive at a time.
  const std::vector<std::string> ids = zoo_ids();
  std::vector<double> setup_s;
  std::unique_ptr<proof::serve::ModelPool> pool;
  std::vector<std::shared_ptr<const proof::Graph>> graphs;  // per cell
  const auto set_up = [&] {
    graphs.clear();
    pool.reset();
    pool = timed_preload(ids, setup_s);
    for (const Cell& c : cells()) {
      graphs.push_back(pool->get(c.model));
    }
  };
  set_up();

  std::vector<size_t> ops;
  for (const std::string& op : cold_profile_ops(args.seed, args.seconds)) {
    ops.push_back(std::stoul(op));
  }

  // Oracle, outside the timed window: every cell with the PrepCache
  // disabled; the golden cells must also equal tests/golden.
  std::vector<size_t> oracle(cells().size());
  cache.set_enabled(false);
  for (size_t i = 0; i < cells().size(); ++i) {
    const Cell& c = cells()[i];
    const std::string json = normalize_report(
        proof::report_to_json(proof::Profiler(c.options).run(*graphs[i])));
    oracle[i] = std::hash<std::string>{}(json);
    if (c.golden && json != read_file("tests/golden/" + c.model + ".json")) {
      r.fail("golden mismatch: " + cell_name(c) + " vs tests/golden/" + c.model + ".json");
    }
  }
  cache.set_enabled(true);

  proof::obs::Counter& rebuilds =
      proof::obs::MetricsRegistry::instance().counter("graph.index.rebuilds");
  Tally tally;
  std::vector<std::string> mismatched;
  Tracer& tracer = Tracer::instance();

  const size_t setup_every = std::max<size_t>(1, ops.size() / (kSetupReps - 1));
  const auto run_pass = [&](bool traced_pass) {
    Pass pass;
    tracer.set_enabled(false);
    const uint64_t rebuilds0 = rebuilds.value();
    const proof::PrepCacheStats stats0 = cache.stats();
    uint64_t untimed_rebuilds = 0;  // replays and set-up repeats
    for (size_t k = 0; k < ops.size(); ++k) {
      const Cell& cell = cells()[ops[k]];
      cache.clear();
      tracer.set_op(static_cast<uint32_t>(k));
      tracer.set_enabled(traced_pass);
      bool ok = false;
      try {
        const int64_t cpu_start = process_cpu_ns();
        const int64_t t0 = now_ns();
        proof::ProfileReport report;
        std::string json;
        {
          ScopedSpan op("op");
          report = traced("core.profiler_run",
                          [&] { return proof::Profiler(cell.options).run(*graphs[ops[k]]); });
          json = traced("core.report_json", [&] { return proof::report_to_json(report); });
        }
        const int64_t t1 = now_ns();
        pass.op_ms.push_back(ns_to_ms(t1 - t0));
        pass.wall_s += ns_to_s(t1 - t0);
        pass.cpu_s += ns_to_s(process_cpu_ns() - cpu_start);
        ok = std::hash<std::string>{}(normalize_report(json)) == oracle[ops[k]];
        if (!ok) {
          mismatched.push_back(cell_name(cell));
        }
        if (traced_pass) {
          const uint64_t before = rebuilds.value();
          replay_prepare(cell, *graphs[ops[k]]);
          untimed_rebuilds += rebuilds.value() - before;
        }
      } catch (const std::exception& e) {
        mismatched.push_back(cell_name(cell) + ": " + e.what());
      }
      tracer.set_enabled(false);
      if (!traced_pass) {
        tally.record(ok);
        if ((k + 1) % setup_every == 0 && setup_s.size() < kSetupReps) {
          const uint64_t before = rebuilds.value();
          set_up();
          untimed_rebuilds += rebuilds.value() - before;
        }
      }
    }
    pass.index_rebuilds = rebuilds.value() - rebuilds0 - untimed_rebuilds;
    pass.cache.add(stats0, cache.stats());
    return pass;
  };

  const Pass timed = run_pass(false);
  r.attempted = tally.attempted;
  r.failed = tally.failed;
  for (size_t i = 0; i < mismatched.size() && i < 5; ++i) {
    r.fail("cell output differs from the uncached oracle: " + mismatched[i]);
  }
  const Tail tail = tail_with_beyond(timed.op_ms);
  if (!tail.valid) {
    r.fail("too few ops for a tail percentile");
  }
  const double sum_ms = std::accumulate(timed.op_ms.begin(), timed.op_ms.end(), 0.0);
  // Each cell's median op time over the run's passes.  The slowest set the
  // tail, and their sum is the time of a typical pass.
  std::vector<std::pair<double, size_t>> by_cell;
  for (size_t c = 0; c < cells().size(); ++c) {
    std::vector<double> samples;
    for (size_t k = 0; k < ops.size(); ++k) {
      if (ops[k] == c && k < timed.op_ms.size()) {
        samples.push_back(timed.op_ms[k]);
      }
    }
    by_cell.push_back({median(samples), c});
  }
  std::sort(by_cell.rbegin(), by_cell.rend());
  std::string slowest = "{";
  for (size_t i = 0; i < 5 && i < by_cell.size(); ++i) {
    slowest += (i == 0 ? "" : ",") + quote(cell_name(cells()[by_cell[i].second])) + ":" +
               num(by_cell[i].first);
  }
  r.note("slowest_cells_median_ms", slowest + "}");
  r.note("ops", std::to_string(timed.op_ms.size()));
  r.note("cells", std::to_string(cells().size()));
  r.note("latency_tail", tail_json(tail));
  r.note("timed_op_wall_s", num(timed.wall_s));

  if (!args.trace) {
    r.metric("setup_s", median(setup_s), "s");
    // One op profiles one cell, so cells and ops per second coincide here.
    // The rate is that of a typical pass over the 84 cells, each cell timed
    // at its median: the host's speed swings from second to second (whole
    // passes of one run ranged over 26-53 cells/s on the reference host),
    // and per-cell medians average those swings over every cell instead of
    // over the run's few passes.
    double pass_ms = 0.0;
    for (const auto& [cell_ms, c] : by_cell) {
      pass_ms += cell_ms;
    }
    const double rate = static_cast<double>(cells().size()) / (pass_ms / 1e3);
    r.metric("cells_per_s", rate, "1/s");
    r.metric("capacity_rps", rate, "1/s");
    r.metric("latency_p50_ms", median(timed.op_ms), "ms");
    r.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    return r;
  }

  // Traced run: replay the same ops with spans, then reconcile.
  const size_t mismatched_untraced = mismatched.size();
  const Pass traced_pass = run_pass(true);
  if (mismatched.size() > mismatched_untraced) {
    r.fail("traced replay output differs from the uncached oracle: " +
           mismatched[mismatched_untraced]);
  }
  const double n = static_cast<double>(ops.size());
  const std::map<std::string, int64_t> self = tracer.self_ns_by_name();
  const auto per_op = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : ns_to_ms(it->second) / n;
  };
  // The op is Profiler::run + report_to_json.  The replayed stages
  // decompose Profiler::run: they must redo most of its work (a replay that
  // hit a cache would read near 0) and cannot take longer than it.
  const char* kStages[] = {"backends.prepare_model", "backends.plan",      "backends.lower",
                           "analysis.represent",     "mapping.map_layers", "hw.engine_profile"};
  Reconciliation rec;
  rec.op_ms = ns_to_ms(tracer.total_ns_by_name().at("op")) / n;
  rec.residual_name = "core.prepare_residual_ms";
  double stages_ms = 0.0;
  for (const char* stage : kStages) {
    r.metric(std::string(stage) + "_ms", per_op(stage), "ms");
    rec.layer(std::string(stage) + "_ms", per_op(stage));
    stages_ms += per_op(stage);
  }
  const double run_ms = per_op("core.profiler_run");
  const double json_ms = per_op("core.report_json");
  rec.layer("core.report_json_ms", json_ms);
  rec.bound("replayed stages / core.profiler_run_ms", stages_ms / run_ms, 0.5, 1.05);
  rec.report(r);
  const double op_ms = std::accumulate(traced_pass.op_ms.begin(), traced_pass.op_ms.end(), 0.0) / n;

  r.metric("models.preload_ms", median(setup_s) * 1e3 / static_cast<double>(ids.size()), "ms");
  r.metric("graph.index_rebuilds_per_op", static_cast<double>(timed.index_rebuilds) / n, "count");
  r.metric("core.profiler_run_ms", run_ms, "ms");
  r.metric("core.prepare_residual_ms", run_ms - stages_ms, "ms");
  r.metric("core.report_json_ms", json_ms, "ms");
  r.metric("core.plan_build_ms", ns_to_ms(static_cast<int64_t>(timed.cache.plan_build_ns)) / n,
           "ms");
  r.metric("core.plan_hit_ratio", timed.cache.plan_hit_ratio(), "ratio");
  r.metric("core.engine_hit_ratio", timed.cache.engine_hit_ratio(), "ratio");
  r.metric("support.pool_busy_ratio", timed.cpu_s / (timed.wall_s * kJobs), "ratio");
  r.metric("bench.traced_op_ms", rec.op_ms, "ms");
  r.metric("bench.residual_ms", rec.residual_ms(), "ms");
  r.metric("bench.trace_overhead_ms", op_ms - sum_ms / n, "ms");
  return r;
}

}  // namespace perfbench
