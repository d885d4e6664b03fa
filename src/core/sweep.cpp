#include "core/sweep.hpp"

#include <algorithm>
#include <sstream>

#include "core/prep_cache.hpp"
#include "core/sweep_axis.hpp"
#include "hw/platform.hpp"
#include "models/zoo.hpp"
#include "obs/span.hpp"
#include "report/table.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "support/units.hpp"

namespace proof {

std::vector<int64_t> batch_candidates(std::vector<int64_t> requested) {
  if (requested.empty()) {
    for (int64_t b = 1; b <= 2048; b *= 2) {
      requested.push_back(b);
    }
  }
  sweep_axis::AxisSpec spec;
  spec.context = "sweep_batches";
  spec.what = "batch candidates";
  spec.empty_hint = "need at least one positive batch size";
  return sweep_axis::clean_axis(requested, spec);
}

BatchSweep sweep_batches(const ProfileOptions& base, const Graph& model,
                         std::vector<int64_t> candidates, double knee_tolerance) {
  PROOF_CHECK(knee_tolerance >= 0.0 && knee_tolerance < 1.0,
              "knee_tolerance must be in [0, 1)");
  const std::vector<int64_t> valid = batch_candidates(std::move(candidates));

  // Warm indices make the cells' concurrent const lookups pure reads.
  model.warm_indices();
  // Every cell profiles the same graph; hash it once instead of per cell.
  const GraphKeys keys = compute_graph_keys(model);
  PROOF_SPAN("sweep.batches");
  PROOF_COUNT("sweep.points", valid.size());
  BatchSweep sweep;
  sweep.points = ThreadPool::global().parallel_map(
      valid.size(), [&](size_t i) {
        ProfileOptions opt = base;
        opt.batch = valid[i];
        const ProfileReport r = Profiler(opt).run(model, &keys);
        BatchPoint point;
        point.batch = valid[i];
        point.latency_s = r.total_latency_s;
        point.throughput_per_s = r.throughput_per_s();
        point.attained_flops = r.roofline.end_to_end.attained_flops();
        return point;
      });

  sweep.optimal_batch = select_optimal_batch(sweep.points, knee_tolerance);
  return sweep;
}

int64_t select_optimal_batch(const std::vector<BatchPoint>& points,
                             double knee_tolerance) {
  PROOF_CHECK(knee_tolerance >= 0.0 && knee_tolerance < 1.0,
              "knee_tolerance must be in [0, 1)");
  double best_throughput = 0.0;
  for (const BatchPoint& point : points) {
    best_throughput = std::max(best_throughput, point.throughput_per_s);
  }
  for (const BatchPoint& point : points) {
    if (point.throughput_per_s >= (1.0 - knee_tolerance) * best_throughput) {
      return point.batch;
    }
  }
  return 0;
}

std::string sweep_text(const BatchSweep& sweep) {
  if (sweep.points.empty()) {
    return "(empty sweep: no batch points)\n";
  }
  report::TextTable table({"batch", "latency", "throughput", "attained"});
  for (const BatchPoint& p : sweep.points) {
    std::string batch = std::to_string(p.batch);
    if (p.batch == sweep.optimal_batch) {
      batch += " *";
    }
    table.add_row({batch, units::ms(p.latency_s),
                   units::fixed(p.throughput_per_s, 0) + "/s",
                   units::tflops(p.attained_flops)});
  }
  std::ostringstream out;
  out << table.to_string();
  out << "* optimal batch (throughput knee): " << sweep.optimal_batch << "\n";
  return out.str();
}

ZooSweep sweep_zoo(const ProfileOptions& base,
                   std::vector<std::string> model_ids) {
  if (model_ids.empty()) {
    for (const models::ModelSpec& spec : models::model_zoo()) {
      model_ids.push_back(spec.id);
    }
  }
  PROOF_SPAN("sweep.zoo");
  PROOF_COUNT("sweep.points", model_ids.size());
  ZooSweep sweep;
  sweep.points = ThreadPool::global().parallel_map(
      model_ids.size(), [&](size_t i) {
        ZooSweepPoint point;
        point.model_id = model_ids[i];
        point.display = model_ids[i];
        try {
          point.display = models::model_spec(model_ids[i]).display;
          const ProfileReport r = Profiler(base).run_zoo(model_ids[i]);
          point.latency_s = r.total_latency_s;
          point.throughput_per_s = r.throughput_per_s();
          point.attained_flops = r.roofline.end_to_end.attained_flops();
          point.mapping_coverage = r.mapping_coverage;
        } catch (const Error& e) {
          point.error = e.what();  // e.g. unsupported op on this platform
        }
        return point;
      });
  return sweep;
}

std::string zoo_sweep_text(const ZooSweep& sweep) {
  if (sweep.points.empty()) {
    return "(empty sweep: no models)\n";
  }
  report::TextTable table(
      {"model", "latency", "throughput", "attained", "coverage"});
  for (const ZooSweepPoint& p : sweep.points) {
    if (!p.error.empty()) {
      table.add_row({p.display, "failed", "-", "-", "-"});
      continue;
    }
    table.add_row({p.display, units::ms(p.latency_s),
                   units::fixed(p.throughput_per_s, 0) + "/s",
                   units::tflops(p.attained_flops),
                   units::fixed(p.mapping_coverage * 100.0, 1) + "%"});
  }
  return table.to_string();
}

ClockSweep sweep_clocks(const ProfileOptions& base, const Graph& model,
                        std::vector<double> gpu_mhz_steps) {
  if (gpu_mhz_steps.empty()) {
    const hw::PlatformDesc& platform =
        hw::PlatformRegistry::instance().get(base.platform_id);
    gpu_mhz_steps = platform.gpu_clock.available_mhz;
  }
  PROOF_CHECK(!gpu_mhz_steps.empty(),
              "platform exposes no GPU clock steps to sweep");
  std::sort(gpu_mhz_steps.begin(), gpu_mhz_steps.end());

  model.warm_indices();
  // Clock changes touch nothing structural (and nothing shape-dependent
  // either — every cell reuses one cached engine); hash the graph once.
  const GraphKeys keys = compute_graph_keys(model);
  PROOF_SPAN("sweep.clocks");
  PROOF_COUNT("sweep.points", gpu_mhz_steps.size());
  ClockSweep sweep;
  sweep.points = ThreadPool::global().parallel_map(
      gpu_mhz_steps.size(), [&](size_t i) {
        ProfileOptions opt = base;
        opt.clocks.gpu_mhz = gpu_mhz_steps[i];
        const ProfileReport r = Profiler(opt).run(model, &keys);
        ClockPoint point;
        point.gpu_mhz = gpu_mhz_steps[i];
        point.latency_s = r.total_latency_s;
        point.power_w = r.power_w;
        point.throughput_per_s = r.throughput_per_s();
        return point;
      });
  return sweep;
}

double search_gpu_clock_under_power(const ProfileOptions& base,
                                    const Graph& model, double power_budget_w,
                                    ClockSweep* sweep_out) {
  PROOF_CHECK(power_budget_w > 0.0, "power budget must be positive");
  const ClockSweep sweep = sweep_clocks(base, model, {});
  // Highest step under budget; every step over budget -> the lowest step
  // (the closest the hardware can get to compliance).
  double selected = sweep.points.front().gpu_mhz;
  for (const ClockPoint& p : sweep.points) {
    if (p.power_w <= power_budget_w) {
      selected = p.gpu_mhz;
    }
  }
  if (sweep_out != nullptr) {
    sweep_out->points.insert(sweep_out->points.end(), sweep.points.begin(),
                             sweep.points.end());
  }
  return selected;
}

}  // namespace proof
