#include "core/profiler.hpp"

#include "backends/stream_schedule.hpp"
#include "core/prep_cache.hpp"
#include "hw/counters.hpp"
#include "hw/platform.hpp"
#include "mapping/stack_mapping.hpp"
#include "models/zoo.hpp"
#include "obs/self_profile.hpp"
#include "obs/span.hpp"
#include "support/error.hpp"

namespace proof {

roofline::Point LayerReport::to_point() const {
  roofline::Point p;
  p.name = backend_layer;
  p.flops = flops;
  p.bytes = bytes;
  p.latency_s = latency_s;
  p.cls = cls;
  return p;
}

Profiler::Profiler(ProfileOptions options) : options_(std::move(options)) {
  PROOF_CHECK(!options_.platform_id.empty(), "platform_id is required");
  PROOF_CHECK(options_.batch > 0, "batch must be positive");
}

ProfileReport Profiler::run_zoo(const std::string& model_id) const {
  return run(models::build_model(model_id));
}

ProfileReport Profiler::run(const Graph& model, const GraphKeys* keys) const {
  PROOF_SPAN("profiler.run");
  PROOF_COUNT("profiler.runs", 1);
  obs::arm_metrics_dump_at_exit();
  const hw::PlatformDesc& platform =
      hw::PlatformRegistry::instance().get(options_.platform_id);
  const std::string backend_id =
      options_.backend_id.empty() ? platform.runtime : options_.backend_id;
  const backends::Backend& backend =
      backends::BackendRegistry::instance().get(backend_id);

  ProfileReport report;
  report.model_name = model.name();
  report.backend_name = backend.name();
  report.platform_name = platform.name;
  report.options = options_;
  report.options.backend_id = backend_id;

  // 1+2. Engine build (backend graph optimization + lowering) and analysis
  // representation + layer mapping, memoized across batches / clock settings
  // by the preparation cache (uncached when disabled — identical results).
  backends::BuildConfig config;
  config.dtype = options_.dtype;
  config.batch = options_.batch;
  std::shared_ptr<const PreparedEngine> prep;
  {
    PROOF_SPAN("profiler.prepare");
    prep = PrepCache::instance().get_or_prepare(model, backend, platform,
                                                config, keys);
  }
  const backends::Engine& engine = prep->engine;
  const mapping::LayerMapping& layer_map = prep->mapping;
  report.mapping_coverage = prep->mapping_coverage;
  report.unmapped_layers = prep->unmapped_layers;
  report.analysis_time_s = prep->analysis_time_s;

  // 3. Latency from the backend's built-in profiler.
  const hw::PlatformState state(platform, options_.clocks);
  const backends::EngineProfile profile = [&] {
    PROOF_SPAN("profiler.latency");
    return engine.profile(state, options_.iterations);
  }();
  report.total_latency_s = profile.total_latency_s;
  report.utilization = profile.utilization;
  report.power_w = hw::PowerModel(state).power_w(profile.utilization);

  // 4. FLOP / memory metrics per layer.
  const bool use_counters =
      options_.mode == MetricMode::kMeasured ||
      (options_.mode == MetricMode::kAuto && platform.has_counter_profiler);
  if (use_counters && !platform.has_counter_profiler) {
    throw ConfigError("platform '" + platform.id + "' has no counter profiler");
  }

  std::vector<double> measured_flops(engine.layers().size(), 0.0);
  std::vector<double> measured_bytes(engine.layers().size(), 0.0);
  if (use_counters) {
    PROOF_SPAN("profiler.counters");
    const hw::CounterProfiler counters(platform);
    const hw::CounterReport counter_report =
        counters.profile(engine.all_kernels(), hw::LatencyModel(state));
    report.counter_profiling_time_s = counter_report.profiling_time_s;
    const mapping::StackMapping stack(engine, layer_map);
    for (const hw::CounterSample& sample : counter_report.samples) {
      const int layer = stack.backend_layer_of_kernel(sample.kernel_name);
      if (layer >= 0) {
        measured_flops[static_cast<size_t>(layer)] += sample.corrected_flops;
        measured_bytes[static_cast<size_t>(layer)] += sample.dram_bytes;
      }
    }
  }

  PROOF_SPAN("profiler.metrics_and_roofline");
  report.layers.reserve(engine.layers().size());
  for (size_t i = 0; i < engine.layers().size(); ++i) {
    const backends::BackendLayer& bl = engine.layers()[i];
    const mapping::LayerMapEntry& entry = layer_map.entries[i];
    LayerReport layer;
    layer.backend_layer = bl.name;
    layer.model_nodes = entry.model_nodes;
    layer.method = entry.method;
    layer.cls = bl.cls;
    layer.is_reorder = bl.is_reorder;
    layer.latency_s = profile.layer_latency_s[i];
    for (const hw::KernelWork& kernel : bl.kernels) {
      layer.kernels.push_back(kernel.name);
    }
    if (use_counters) {
      layer.flops = measured_flops[i];
      layer.bytes = measured_bytes[i];
    } else {
      // Analytical model, computed once per cached entry (fusion-aware
      // Equation 1 over the mapped node set; kernel traffic for conversions).
      layer.flops = prep->predicted[i].flops;
      layer.bytes = prep->predicted[i].bytes;
    }
    report.layers.push_back(std::move(layer));
  }

  // 5. Roofline assembly (theoretical ceilings at the active clocks).
  report.roofline.ceilings.peak_flops =
      platform.matrix_peak(options_.dtype) * state.gpu_scale();
  report.roofline.ceilings.peak_bw = platform.dram_bw * state.mem_scale();
  report.roofline.layers.reserve(report.layers.size());
  for (const LayerReport& layer : report.layers) {
    report.roofline.layers.push_back(layer.to_point());
  }
  report.roofline.end_to_end =
      roofline::aggregate(report.roofline.layers, model.name());

  // 6. Multi-stream dispatch + critical-path analysis (options.streams != 1;
  // the serial default skips this entirely so reports match the seed
  // byte-for-byte).  Reuses the per-layer latencies already simulated above.
  if (options_.streams != 1) {
    report.timeline = backends::schedule_streams(
        engine, profile.layer_latency_s, options_.streams);
    report.critical_path = critpath::analyze(*report.timeline);
    for (const critpath::LayerStats& stats : report.critical_path->layers) {
      if (stats.layer >= 0 &&
          static_cast<size_t>(stats.layer) < report.roofline.layers.size()) {
        report.roofline.layers[static_cast<size_t>(stats.layer)].criticality =
            stats.criticality;
      }
    }
  }
  return report;
}

}  // namespace proof
