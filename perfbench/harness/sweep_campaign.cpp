// sweep_campaign: sweep and optimize campaigns, one caller, a pool of 2 jobs.
//
// Every op is one campaign on an empty PrepCache: the gpt2 decode sweep on
// all 8 registry platforms over a seeded 4 x 4 batch x position grid, a
// 12-point bert_base batch sweep on a100, an efficientnetv2_t clock sweep on
// orin_nx16 at batch 16, and the guarded optimizer on shufflenetv2_10 in the
// golden configuration.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/decode_sweep.hpp"
#include "core/prep_cache.hpp"
#include "core/profiler.hpp"
#include "core/report_json.hpp"
#include "core/sweep.hpp"
#include "hw/latency_model.hpp"
#include "hw/platform.hpp"
#include "models/zoo.hpp"
#include "obs/metrics.hpp"
#include "opt/optimizer.hpp"
#include "serve/model_pool.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {
namespace {

using proof::ProfileOptions;

constexpr unsigned kJobs = 2;
/// Campaigns per second of run time the op count is sized for (see
/// cold_profile.cpp: the count is fixed by --seconds, not by the clock).
constexpr double kNominalCampaignsPerSecond = 2.0;
constexpr int64_t kPrefillLen = 512;  // the sweep-decode default
/// A batch no campaign sweeps: its lookup instantiates bert_base's frozen plan.
constexpr int64_t kUnseenBatch = 3;

const std::vector<int64_t> kBertBatches = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048};

struct Spec {
  std::vector<int64_t> batches;
  std::vector<int64_t> positions;
};

std::string join(const std::vector<int64_t>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i == 0 ? "" : ",") + std::to_string(v[i]);
  }
  return out;
}

std::vector<Spec> make_specs(uint64_t seed, int seconds) {
  const auto n = std::max<size_t>(
      11, static_cast<size_t>(seconds * kNominalCampaignsPerSecond + 0.5));
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 2);
  std::vector<Spec> specs;
  for (size_t i = 0; i < n; ++i) {
    Spec s;
    s.batches = draw_sorted(rng, {1, 2, 4, 8, 16, 32}, 4);
    s.positions = draw_sorted(rng, {64, 128, 256, 512, 1024, 2048}, 4);
    specs.push_back(s);
  }
  return specs;
}

ProfileOptions options(const char* platform, proof::DType dtype, int64_t batch) {
  ProfileOptions o;
  o.platform_id = platform;
  o.dtype = dtype;
  o.batch = batch;
  o.mode = proof::MetricMode::kPredicted;
  return o;
}

/// The four calls' raw outputs.
struct Raw {
  std::vector<proof::PlatformDecodeSummary> rows;
  proof::BatchSweep batches;
  proof::ClockSweep clocks;
  proof::opt::OptimizeResult optimized;
  /// PrepCache plan-build time spent inside the two sweeps (their 15
  /// structures), in ns.
  uint64_t sweeps_plan_build_ns = 0;
};

Raw run_calls(const Spec& spec, const proof::Graph& bert, const proof::Graph& effnet) {
  Raw raw;
  proof::DecodeSweepOptions decode;
  decode.config_id = "gpt2";
  decode.prefill_len = kPrefillLen;
  decode.batches = spec.batches;
  decode.positions = spec.positions;
  proof::PrepCache& cache = proof::PrepCache::instance();
  const uint64_t build0 = cache.stats().plan_cache_build_ns;
  raw.rows = traced("core.sweep_decode", [&] { return proof::sweep_decode_platforms(decode); });
  raw.batches = traced("core.sweep_batches", [&] {
    return proof::sweep_batches(options("a100", proof::DType::kF16, 1), bert, kBertBatches);
  });
  raw.sweeps_plan_build_ns = cache.stats().plan_cache_build_ns - build0;
  raw.clocks = traced("core.sweep_clocks", [&] {
    return proof::sweep_clocks(options("orin_nx16", proof::DType::kF16, 16), effnet);
  });
  proof::opt::OptimizeOptions optimize;
  optimize.base = options("a100", proof::DType::kF16, 256);
  optimize.base.backend_id = "trt_sim";
  raw.optimized = traced(
      "opt.optimize", [&] { return proof::opt::optimize("shufflenetv2_10", optimize); });
  return raw;
}

struct Outcome {
  std::string digest;         ///< every output of the campaign, serialized
  std::string optimize_json;  ///< normalized, comparable to the golden
  size_t cells = 0;
  std::vector<std::string> runnable_platforms;
  std::vector<std::string> problems;
};

/// Serializes and checks a campaign's outputs (outside the timed op).
Outcome summarize(const Spec& spec, const Raw& raw) {
  Outcome out;
  out.optimize_json = normalize_report(proof::report_to_json(
      raw.optimized.final_report, false,
      proof::opt::optimization_section_json(raw.optimized.log)));
  std::ostringstream digest;
  digest.precision(17);
  digest << proof::decode_platforms_json(raw.rows) << "\nbatches";
  for (const proof::BatchPoint& p : raw.batches.points) {
    digest << " " << p.batch << ":" << p.latency_s << ":" << p.attained_flops;
  }
  digest << " optimal " << raw.batches.optimal_batch << "\nclocks";
  for (const proof::ClockPoint& p : raw.clocks.points) {
    digest << " " << p.gpu_mhz << ":" << p.latency_s << ":" << p.power_w;
  }
  digest << "\n" << out.optimize_json;
  out.digest = digest.str();

  const size_t grid = spec.batches.size() * spec.positions.size() + spec.batches.size();
  for (const proof::PlatformDecodeSummary& row : raw.rows) {
    if (row.error.empty()) {
      out.runnable_platforms.push_back(row.platform_id);
      out.cells += grid;
    } else if (row.platform_id != "npu3720") {
      out.problems.push_back("decode sweep failed on " + row.platform_id + ": " + row.error);
    }
  }
  if (raw.rows.size() != 8 || out.runnable_platforms.size() != 7) {
    out.problems.push_back("decode sweep must run on 7 of 8 platforms (npu3720 errors)");
  }
  if (raw.batches.points.size() != kBertBatches.size() || raw.clocks.points.empty()) {
    out.problems.push_back("batch or clock sweep returned the wrong number of points");
  }
  out.cells += raw.batches.points.size() + raw.clocks.points.size() +
               raw.optimized.log.variants_evaluated;
  return out;
}

/// Replays, after the op's span: the campaign's graph builds, the structure
/// phase of its 15 structures (per runnable platform the prefill and the
/// decode step, whose positions share one plan, plus bert_base on a100),
/// warm Profiler::run + Engine::profile over its decode-grid and batch-sweep
/// cells, and one instantiation of bert_base's frozen plan at an unseen batch.
void replay(const Spec& spec, const Outcome& outcome, const proof::Graph& bert,
            size_t* lookups, size_t* lookup_hits) {
  ScopedSpan span("replay");
  proof::PrepCache& cache = proof::PrepCache::instance();
  const proof::models::LlmConfig& cfg = proof::models::llm_config("gpt2");
  std::vector<std::pair<proof::Graph, std::vector<int64_t>>> work;  // graph, batches
  traced("models.decode_graph", [&] {
    work.emplace_back(proof::models::build_llm_prefill(cfg, kPrefillLen), spec.batches);
    for (const int64_t position : spec.positions) {
      work.emplace_back(proof::models::build_llm_decode_step(cfg, position), spec.batches);
    }
  });
  const auto build_structure = [](const proof::Graph& graph, const std::string& platform_id,
                                   int64_t batch) {
    const proof::hw::PlatformDesc& platform =
        proof::hw::PlatformRegistry::instance().get(platform_id);
    proof::backends::BuildConfig config;
    config.dtype = proof::DType::kF16;
    config.batch = batch;
    (void)replay_structure(graph, platform,
                           proof::backends::BackendRegistry::instance().get(platform.runtime),
                           config);
  };
  for (const std::string& platform : outcome.runnable_platforms) {
    build_structure(work[0].first, platform, spec.batches.front());
    build_structure(work[1].first, platform, spec.batches.front());
  }
  build_structure(bert, "a100", kBertBatches.front());
  std::vector<std::pair<const proof::Graph*, ProfileOptions>> cells;
  for (const std::string& platform : outcome.runnable_platforms) {
    for (const auto& [graph, batches] : work) {
      for (const int64_t b : batches) {
        ProfileOptions o = options("a100", proof::DType::kF16, b);
        o.platform_id = platform;
        cells.push_back({&graph, o});
      }
    }
  }
  for (const int64_t b : kBertBatches) {
    cells.push_back({&bert, options("a100", proof::DType::kF16, b)});
  }
  for (const auto& [graph, o] : cells) {
    const proof::GraphKeys keys = proof::compute_graph_keys(*graph);
    const proof::ProfileReport report =
        traced("core.profiler_run", [&] { return proof::Profiler(o).run(*graph, &keys); });
    (void)report;
    const proof::hw::PlatformDesc& platform =
        proof::hw::PlatformRegistry::instance().get(o.platform_id);
    const proof::backends::Backend& backend =
        proof::backends::BackendRegistry::instance().get(platform.runtime);
    proof::backends::BuildConfig config;
    config.dtype = o.dtype;
    config.batch = o.batch;
    const proof::PrepCacheStats before = cache.stats();
    const auto prep = cache.get_or_prepare(*graph, backend, platform, config, &keys);
    ++*lookups;
    *lookup_hits += cache.stats().engine_hits - before.engine_hits;
    const proof::backends::EngineProfile profile = traced("hw.engine_profile", [&] {
      return prep->engine.profile(proof::hw::PlatformState(platform, o.clocks), o.iterations);
    });
    (void)profile;
  }
  const proof::hw::PlatformDesc& a100 = proof::hw::PlatformRegistry::instance().get("a100");
  proof::backends::BuildConfig config;
  config.dtype = proof::DType::kF16;
  config.batch = kUnseenBatch;
  const auto prep = traced("core.instantiate", [&] {
    return cache.get_or_prepare(
        bert, proof::backends::BackendRegistry::instance().get(a100.runtime), a100, config);
  });
  (void)prep;
}

}  // namespace

std::vector<std::string> sweep_campaign_ops(uint64_t seed, int seconds) {
  std::vector<std::string> ops;
  for (const Spec& s : make_specs(seed, seconds)) {
    ops.push_back("b" + join(s.batches) + ";p" + join(s.positions));
  }
  return ops;
}

Result run_sweep_campaign(const Args& args) {
  Result r;
  proof::ThreadPool::set_global_jobs(kJobs);
  r.note("jobs", std::to_string(kJobs));
  proof::PrepCache& cache = proof::PrepCache::instance();
  const KeepAwake keep_awake;

  // Set-up: preload the two graphs the sweeps take.  The timed pass repeats
  // it after every campaign, releasing the previous pool first, so one pool
  // is alive at a time.
  const std::vector<std::string> kPreload = {"bert_base", "efficientnetv2_t"};
  std::vector<double> setup_s;
  std::unique_ptr<proof::serve::ModelPool> pool;
  std::shared_ptr<const proof::Graph> bert;
  std::shared_ptr<const proof::Graph> effnet;
  const auto set_up = [&] {
    bert.reset();
    effnet.reset();
    pool.reset();
    pool = timed_preload(kPreload, setup_s);
    bert = pool->get("bert_base");
    effnet = pool->get("efficientnetv2_t");
  };
  set_up();
  const std::string golden = read_file("tests/golden/optimize_shufflenetv2_10.json");
  const std::vector<Spec> specs = make_specs(args.seed, args.seconds);

  proof::obs::Counter& rebuilds =
      proof::obs::MetricsRegistry::instance().counter("graph.index.rebuilds");
  Tracer& tracer = Tracer::instance();
  Tally tally;
  std::vector<std::string> digests(specs.size());
  std::vector<double> cells(specs.size(), 0.0);

  struct Pass {
    std::vector<double> op_ms;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    uint64_t index_rebuilds = 0;
    CacheLedger cache;
    uint64_t sweeps_plan_build_ns = 0;
    size_t lookups = 0;
    size_t lookup_hits = 0;
  };
  const auto run_pass = [&](bool traced_pass) {
    Pass pass;
    for (size_t k = 0; k < specs.size(); ++k) {
      cache.clear();
      tracer.set_op(static_cast<uint32_t>(k));
      tracer.set_enabled(traced_pass);
      const uint64_t rebuilds0 = rebuilds.value();
      const proof::PrepCacheStats stats0 = cache.stats();
      bool ok = false;
      try {
        const int64_t cpu_start = process_cpu_ns() - keep_awake.cpu_ns();
        const int64_t t0 = now_ns();
        Raw raw;
        {
          ScopedSpan op("op");
          raw = run_calls(specs[k], *bert, *effnet);
        }
        const int64_t t1 = now_ns();
        pass.op_ms.push_back(ns_to_ms(t1 - t0));
        pass.wall_s += ns_to_s(t1 - t0);
        pass.cpu_s += ns_to_s(process_cpu_ns() - keep_awake.cpu_ns() - cpu_start);
        const Outcome out = summarize(specs[k], raw);
        pass.index_rebuilds += rebuilds.value() - rebuilds0;
        pass.cache.add(stats0, cache.stats());
        pass.sweeps_plan_build_ns += raw.sweeps_plan_build_ns;
        ok = out.problems.empty() && out.optimize_json == golden;
        for (const std::string& p : out.problems) {
          r.fail("campaign " + std::to_string(k) + ": " + p);
        }
        if (out.optimize_json != golden) {
          r.fail("campaign " + std::to_string(k) +
                 ": optimize differs from tests/golden/optimize_shufflenetv2_10.json");
        }
        if (!traced_pass) {
          digests[k] = out.digest;
          cells[k] = static_cast<double>(out.cells);
        } else {
          replay(specs[k], out, *bert, &pass.lookups, &pass.lookup_hits);
        }
      } catch (const std::exception& e) {
        r.fail("campaign " + std::to_string(k) + " threw: " + e.what());
      }
      tracer.set_enabled(false);
      if (!traced_pass) {
        tally.record(ok);
        set_up();
      }
    }
    return pass;
  };

  const Pass timed = run_pass(false);
  r.attempted = tally.attempted;
  r.failed = tally.failed;

  // Oracle, outside the timed window: a campaign the seed picks, rerun at
  // 1 job with the PrepCache disabled, must reproduce the same outputs (each
  // uncached rerun costs ~4 s, so a run checks one; seeds check others).
  const size_t sample = static_cast<size_t>(Rng(args.seed + 7).below(specs.size()));
  proof::ThreadPool::set_global_jobs(1);
  cache.set_enabled(false);
  const Outcome oracle = summarize(specs[sample], run_calls(specs[sample], *bert, *effnet));
  if (oracle.digest != digests[sample]) {
    r.fail("campaign " + std::to_string(sample) + " differs from its 1-job uncached rerun");
    ++r.failed;
  }
  cache.set_enabled(true);
  proof::ThreadPool::set_global_jobs(kJobs);
  r.note("oracle_campaign", std::to_string(sample));

  const Tail tail = tail_with_beyond(timed.op_ms);
  if (!tail.valid) {
    r.fail("too few ops for a tail percentile");
  }
  const double n = static_cast<double>(specs.size());
  const double sum_ms = std::accumulate(timed.op_ms.begin(), timed.op_ms.end(), 0.0);
  r.note("ops", std::to_string(specs.size()));
  r.note("cells", num(std::accumulate(cells.begin(), cells.end(), 0.0)));
  r.note("latency_tail", tail_json(tail));
  r.note("timed_op_wall_s", num(timed.wall_s));

  if (!args.trace) {
    r.metric("setup_s", median(setup_s), "s");
    r.metric("cells_per_s", median_slice_rate(cells, timed.op_ms), "1/s");
    r.metric("capacity_rps", median_slice_rate(std::vector<double>(specs.size(), 1.0), timed.op_ms),
             "1/s");
    r.metric("latency_p50_ms", median(timed.op_ms), "ms");
    r.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    return r;
  }

  const Pass traced_pass = run_pass(true);
  const std::map<std::string, int64_t> self = tracer.self_ns_by_name();
  const auto per_op = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : ns_to_ms(it->second) / n;
  };
  // The op is the four calls.  The replay redoes, on one thread, work the
  // two sweeps did on kJobs: it cannot take longer than kJobs times their
  // span, and its structure builds must cost about what the PrepCache timed
  // for the same builds inside the sweeps.
  Reconciliation rec;
  rec.op_ms = ns_to_ms(tracer.total_ns_by_name().at("op")) / n;
  rec.residual_name = "bench.residual_ms";
  for (const char* call : {"core.sweep_decode", "core.sweep_batches", "core.sweep_clocks",
                           "opt.optimize"}) {
    r.metric(std::string(call) + "_ms", per_op(call), "ms");
    rec.layer(std::string(call) + "_ms", per_op(call));
  }
  double structure_ms = 0.0;
  for (const char* stage : {"backends.prepare_model", "backends.plan", "backends.lower",
                            "analysis.represent", "mapping.map_layers"}) {
    r.metric(std::string(stage) + "_ms", per_op(stage), "ms");
    structure_ms += per_op(stage);
  }
  const double replayed_ms = per_op("models.decode_graph") + structure_ms +
                             per_op("core.profiler_run") + per_op("core.instantiate");
  rec.bound("replayed work / (jobs x (core.sweep_decode_ms + core.sweep_batches_ms))",
            replayed_ms / (kJobs * (per_op("core.sweep_decode") + per_op("core.sweep_batches"))),
            0.0, 1.05);
  rec.bound("replayed structure stages / plan builds inside the two sweeps",
            structure_ms /
                (ns_to_ms(static_cast<int64_t>(traced_pass.sweeps_plan_build_ns)) / n),
            0.5, 1.5);
  const double plan_build_ms = ns_to_ms(static_cast<int64_t>(timed.cache.plan_build_ns)) / n;
  // The replayed Profiler::run times the warm path only if every cell it
  // re-runs hits the engine the op built.
  rec.bound("replayed cells that hit the engine cache / replayed cells",
            static_cast<double>(traced_pass.lookup_hits) /
                static_cast<double>(std::max<size_t>(1, traced_pass.lookups)),
            1.0, 1.0);
  rec.report(r);
  const double traced_op_ms =
      std::accumulate(traced_pass.op_ms.begin(), traced_pass.op_ms.end(), 0.0) / n;

  r.metric("models.preload_ms", median(setup_s) * 1e3 / static_cast<double>(kPreload.size()),
           "ms");
  r.metric("models.decode_graph_ms", per_op("models.decode_graph"), "ms");
  r.metric("core.profiler_run_ms", per_op("core.profiler_run"), "ms");
  r.metric("hw.engine_profile_ms", per_op("hw.engine_profile"), "ms");
  r.metric("core.instantiate_ms", per_op("core.instantiate"), "ms");
  r.metric("graph.index_rebuilds_per_op", static_cast<double>(timed.index_rebuilds) / n, "count");
  r.metric("core.plan_build_ms", plan_build_ms, "ms");
  r.metric("core.plan_hit_ratio", timed.cache.plan_hit_ratio(), "ratio");
  r.metric("core.engine_hit_ratio", timed.cache.engine_hit_ratio(), "ratio");
  r.metric("support.pool_busy_ratio", timed.cpu_s / (timed.wall_s * kJobs), "ratio");
  r.metric("bench.traced_op_ms", rec.op_ms, "ms");
  r.metric("bench.residual_ms", rec.residual_ms(), "ms");
  r.metric("bench.trace_overhead_ms", traced_op_ms - sum_ms / n, "ms");
  return r;
}

}  // namespace perfbench
