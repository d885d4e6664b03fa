// Parallel profiling engine scaling: the full-zoo sweep at every A100 GPU
// clock step, timed three ways —
//   1. legacy serial (jobs=1, preparation cache disabled): rebuild + remap
//      every (model, clock) combination, exactly the pre-parallel pipeline;
//   2. memoized serial (jobs=1, cache enabled): each model's engine is built
//      once and reused across clock settings;
//   3. memoized parallel (jobs=4, cache enabled): the same with the sweep
//      fanned out over the thread pool.
// Verifies all three produce byte-identical sweep output and writes
// BENCH_parallel_scaling.json with times, speedups and cache hit rates.
#include "bench_util.hpp"

#include <chrono>
#include <fstream>

using namespace proof;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The workload: every Table-3 model at two batch sizes and every A100 GPU
/// clock step — the model x batch x clock matrix a real campaign runs.  With
/// the cache on, repeated clocks hit the engine level and the second batch
/// hits the plan level (fusion + mapping reused, only lowering redone).
std::string run_full_zoo_clock_matrix() {
  const auto& a100 = hw::PlatformRegistry::instance().get("a100");
  std::string fingerprint;
  for (const int64_t batch : {1, 8}) {
    for (const double mhz : a100.gpu_clock.available_mhz) {
      ProfileOptions opt;
      opt.platform_id = "a100";
      opt.dtype = DType::kF16;
      opt.batch = batch;
      opt.mode = MetricMode::kPredicted;
      opt.clocks.gpu_mhz = mhz;
      fingerprint += "== batch " + std::to_string(batch) + ", GPU " +
                     units::fixed(mhz, 0) + " MHz ==\n";
      fingerprint += zoo_sweep_text(sweep_zoo(opt));
    }
  }
  return fingerprint;
}

struct Timed {
  double seconds = 0.0;
  std::string output;
  PrepCacheStats cache;
};

Timed run_mode(unsigned jobs, bool cache_enabled) {
  ThreadPool::set_global_jobs(jobs);
  PrepCache::instance().set_enabled(cache_enabled);
  PrepCache::instance().clear();
  PrepCache::instance().reset_stats();
  Timed t;
  const double t0 = now_s();
  t.output = run_full_zoo_clock_matrix();
  t.seconds = now_s() - t0;
  t.cache = PrepCache::instance().stats();
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Parallel scaling: full zoo x A100 GPU clock steps");

  bool single_core = false;
  if (!bench::require_multicore("bench_parallel_scaling", argc, argv,
                                &single_core)) {
    return 1;
  }

  const Timed serial = run_mode(1, false);
  const Timed cached = run_mode(1, true);
  const Timed parallel4 = run_mode(4, true);
  ThreadPool::set_global_jobs(0);
  PrepCache::instance().set_enabled(true);
  PrepCache::instance().clear();

  const bool identical =
      serial.output == cached.output && serial.output == parallel4.output;
  const double speedup_cached = serial.seconds / cached.seconds;
  const double speedup_parallel = serial.seconds / parallel4.seconds;
  // The multicore claim is parallel-beyond-memoization: 4 jobs must beat the
  // cached serial run.  A 1-hardware-thread host cannot demonstrate it.
  const double parallel_over_cached = cached.seconds / parallel4.seconds;
  const bool multicore_met = !single_core && parallel_over_cached > 1.0;

  report::TextTable table({"mode", "time", "speedup", "engine hits", "plan hits"});
  table.add_row({"serial, no cache", units::ms(serial.seconds), "1.00x", "-", "-"});
  table.add_row({"serial, cached", units::ms(cached.seconds),
                 units::fixed(speedup_cached, 2) + "x",
                 std::to_string(cached.cache.engine_hits),
                 std::to_string(cached.cache.plan_cache_hits)});
  table.add_row({"4 jobs, cached", units::ms(parallel4.seconds),
                 units::fixed(speedup_parallel, 2) + "x",
                 std::to_string(parallel4.cache.engine_hits),
                 std::to_string(parallel4.cache.plan_cache_hits)});
  std::cout << table.to_string();
  std::cout << "outputs byte-identical across modes: "
            << (identical ? "yes" : "NO — DETERMINISM VIOLATION") << "\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"workload\": \"full Table-3 zoo x 2 batches x 3 A100 GPU clock "
          "steps, fp16\",\n"
       << "  \"serial_no_cache_s\": " << serial.seconds << ",\n"
       << "  \"serial_cached_s\": " << cached.seconds << ",\n"
       << "  \"parallel4_cached_s\": " << parallel4.seconds << ",\n"
       << "  \"speedup_serial_cached\": " << speedup_cached << ",\n"
       << "  \"speedup_parallel4_cached\": " << speedup_parallel << ",\n"
       << "  \"outputs_identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"cache\": {\n"
       << "    \"engine_hits\": " << parallel4.cache.engine_hits << ",\n"
       << "    \"engine_misses\": " << parallel4.cache.engine_misses << ",\n"
       << "    \"engine_hit_rate\": " << parallel4.cache.engine_hit_rate() << ",\n"
       << "    \"plan_cache_hits\": " << parallel4.cache.plan_cache_hits << ",\n"
       << "    \"plan_cache_misses\": " << parallel4.cache.plan_cache_misses << ",\n"
       << "    \"plan_hit_rate\": " << parallel4.cache.plan_hit_rate() << "\n"
       << "  },\n"
       << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"single_core_host\": " << (single_core ? "true" : "false")
       << ",\n"
       << "  \"multicore_criterion_met\": " << (multicore_met ? "true" : "false")
       << "\n}\n";
  const std::string path = bench::artifact_dir() + "/BENCH_parallel_scaling.json";
  std::ofstream(path) << json.str();
  bench::note_artifact(path);
  return identical && speedup_parallel >= 1.0 ? 0 : 1;
}
