#include "core/report_json.hpp"

#include <fstream>

#include "core/json_writer.hpp"
#include "obs/self_profile.hpp"
#include "support/error.hpp"

namespace proof {

std::string report_to_json(const ProfileReport& report,
                           bool include_self_profile,
                           const std::string& optimization_section) {
  JsonWriter w;
  w.begin_object();
  w.field("model", report.model_name);
  w.field("backend", report.backend_name);
  w.field("platform", report.platform_name);
  w.field("dtype", dtype_name(report.options.dtype));
  w.field("batch", static_cast<int64_t>(report.options.batch));
  w.field("metrics", report.counter_profiling_time_s > 0.0 ? "measured"
                                                           : "predicted");
  w.field("latency_s", report.total_latency_s);
  w.field("throughput_per_s", report.throughput_per_s());
  w.field("power_w", report.power_w);
  w.field("mapping_coverage", report.mapping_coverage);
  w.field("analysis_time_s", report.analysis_time_s);
  w.field("counter_profiling_time_s", report.counter_profiling_time_s);

  const roofline::Point& e2e = report.roofline.end_to_end;
  w.field("flops", e2e.flops);
  w.field("bytes", e2e.bytes);
  w.field("arithmetic_intensity", e2e.arithmetic_intensity());
  w.field("attained_flops", e2e.attained_flops());
  w.field("attained_bandwidth", e2e.attained_bandwidth());
  w.field("peak_flops", report.roofline.ceilings.peak_flops);
  w.field("peak_bandwidth", report.roofline.ceilings.peak_bw);
  w.field("memory_bound", report.roofline.ceilings.memory_bound(e2e));

  w.begin_array("layers");
  for (size_t i = 0; i < report.layers.size(); ++i) {
    const LayerReport& layer = report.layers[i];
    const roofline::Point& pt = report.roofline.layers[i];
    w.begin_object();
    w.field("name", layer.backend_layer);
    w.field("class", op_class_name(layer.cls));
    w.field("mapped_via", mapping::map_method_name(layer.method));
    w.field("is_reorder", layer.is_reorder);
    w.field("latency_s", layer.latency_s);
    w.field("latency_share", pt.latency_share);
    w.field("flops", layer.flops);
    w.field("bytes", layer.bytes);
    w.field("arithmetic_intensity", pt.arithmetic_intensity());
    w.field("attained_flops", pt.attained_flops());
    w.begin_array("model_nodes");
    for (const std::string& node : layer.model_nodes) {
      w.string_element(node);
    }
    w.end_array();
    w.begin_array("kernels");
    for (const std::string& kernel : layer.kernels) {
      w.string_element(kernel);
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  // Multi-stream runs: the critical-path analysis over the emitted execution
  // timeline.  Serial-mode reports omit the section entirely, keeping them
  // byte-identical to the pre-timeline goldens.
  if (report.critical_path) {
    const critpath::Report& cp = *report.critical_path;
    w.begin_object("critical_path");
    w.field("num_streams", static_cast<int64_t>(cp.num_streams));
    w.field("critical_path_ns", cp.critical_path_ns);
    w.field("makespan_ns", cp.makespan_ns);
    w.field("serial_sum_ns", cp.serial_sum_ns);
    w.field("parallel_speedup", cp.parallel_speedup);
    w.field("sync_count", static_cast<int64_t>(cp.sync_count));
    w.field("dag_edges", static_cast<int64_t>(cp.edge_count));
    w.begin_array("critical_layers");
    for (const int layer : cp.critical_layers) {
      if (layer >= 0 && static_cast<size_t>(layer) < report.layers.size()) {
        w.string_element(report.layers[static_cast<size_t>(layer)].backend_layer);
      }
    }
    w.end_array();
    w.begin_array("layers");
    for (const critpath::LayerStats& stats : cp.layers) {
      w.begin_object();
      const std::string name =
          stats.layer >= 0 &&
                  static_cast<size_t>(stats.layer) < report.layers.size()
              ? report.layers[static_cast<size_t>(stats.layer)].backend_layer
              : std::string();
      w.field("name", name);
      w.field("stream", static_cast<int64_t>(stats.stream));
      w.field("start_ns", stats.start_ns);
      w.field("dur_ns", stats.dur_ns);
      w.field("slack_ns", stats.slack_ns);
      w.field("criticality", stats.criticality);
      w.field("on_critical_path", stats.on_critical_path);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  if (!optimization_section.empty()) {
    w.raw_field("optimization", optimization_section);
  }
  if (include_self_profile) {
    w.raw_field("self_profile", obs::self_profile_json());
  }
  w.end_object();
  return w.take();
}

void save_json(const std::string& json, const std::string& path) {
  std::ofstream out(path);
  PROOF_CHECK(out.good(), "cannot open '" << path << "' for writing");
  out << json << "\n";
  out.flush();
  PROOF_CHECK(out.good(), "failed writing JSON to '" << path << "'");
}

}  // namespace proof
