#include "distributed/parallel.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "analysis/shape_inference.hpp"
#include "hw/platform.hpp"
#include "report/table.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "support/units.hpp"

namespace proof::distributed {

InterconnectDesc nvlink4() { return {"NVLink 4", 450e9, 2e-6}; }
InterconnectDesc pcie_gen4_x16() { return {"PCIe 4.0 x16", 32e9, 5e-6}; }
InterconnectDesc ethernet_100g() { return {"100G Ethernet", 12.5e9, 30e-6}; }

namespace {

/// Bytes of activations crossing a cut after the layer at `cut` (inclusive
/// prefix): external outputs of the prefix node set, on the deployed graph.
double crossing_bytes(const Graph& graph, const std::vector<LayerReport>& layers,
                      size_t cut) {
  std::vector<NodeId> prefix_nodes;
  for (size_t i = 0; i <= cut; ++i) {
    for (const std::string& name : layers[i].model_nodes) {
      const NodeId id = graph.find_node(name);
      if (id != kInvalidNode) {
        prefix_nodes.push_back(id);
      }
    }
  }
  if (prefix_nodes.empty()) {
    return 0.0;
  }
  const Graph::Boundary boundary = graph.boundary(prefix_nodes);
  double bytes = 0.0;
  for (const std::string& tensor : boundary.outputs) {
    bytes += static_cast<double>(graph.tensor(tensor).size_bytes());
  }
  return bytes;
}

/// Pipeline estimate from an already computed base profile; `deployed` is the
/// model with batch/dtype applied (for crossing-tensor sizes).  Shared by
/// profile_pipeline and the stage-count search so candidates reuse one run.
PipelineReport pipeline_from_base(const ProfileReport& base,
                                  const Graph& deployed, int num_stages,
                                  const InterconnectDesc& link,
                                  int microbatches) {
  PROOF_CHECK(num_stages >= 1, "need at least one stage");
  PROOF_CHECK(microbatches >= 1, "need at least one microbatch");
  PROOF_CHECK(!base.layers.empty(), "model produced no layers");

  // Greedy balanced contiguous partition by per-layer latency.
  const double target = base.total_latency_s / num_stages;
  PipelineReport out;
  StageReport stage;
  stage.device = 0;
  stage.first_layer = 0;
  double acc = 0.0;
  for (size_t i = 0; i < base.layers.size(); ++i) {
    acc += base.layers[i].latency_s;
    stage.compute_s += base.layers[i].latency_s;
    stage.last_layer = i;
    const bool last_stage = stage.device == num_stages - 1;
    if (!last_stage && acc >= target * (stage.device + 1) &&
        i + 1 < base.layers.size()) {
      stage.send_bytes = crossing_bytes(deployed, base.layers, i);
      stage.comm_s = link.latency_s + stage.send_bytes / link.bandwidth;
      out.stages.push_back(stage);
      stage = StageReport{};
      stage.device = out.stages.back().device + 1;
      stage.first_layer = i + 1;
    }
  }
  out.stages.push_back(stage);

  for (const StageReport& s : out.stages) {
    out.stage_time_s = std::max(out.stage_time_s, s.compute_s + s.comm_s);
    out.single_batch_latency_s += s.compute_s + s.comm_s;
  }
  // Steady-state: one batch completes per stage_time; pipeline fill adds the
  // classic (S-1)/(M+S-1) bubble.
  const double stages_d = static_cast<double>(out.stages.size());
  const double micro_d = static_cast<double>(microbatches);
  out.bubble_fraction = (stages_d - 1.0) / (micro_d + stages_d - 1.0);
  const double effective_time = out.stage_time_s / (1.0 - out.bubble_fraction);
  out.steady_throughput_per_s =
      static_cast<double>(base.options.batch) / effective_time;
  const double single_throughput = base.throughput_per_s();
  out.speedup_vs_single = out.steady_throughput_per_s / single_throughput;
  out.scaling_efficiency = out.speedup_vs_single / stages_d;
  return out;
}

/// The model with the build batch/dtype applied, matching the engine's
/// analysis graph tensor shapes.
Graph deploy_graph(const Graph& model, const ProfileOptions& options) {
  Graph deployed = model;
  specialize_graph(deployed, options.batch, options.dtype);
  return deployed;
}

/// Tensor-parallel estimate from an already computed base profile.
TensorParallelReport tensor_parallel_from_base(const ProfileReport& base,
                                               const hw::PlatformDesc& platform,
                                               int ways,
                                               const InterconnectDesc& link) {
  PROOF_CHECK(ways >= 1, "need at least one device");
  TensorParallelReport out;
  out.ways = ways;
  const double n = static_cast<double>(ways);
  for (size_t i = 0; i < base.layers.size(); ++i) {
    const LayerReport& layer = base.layers[i];
    // Megatron-style sharding: between synchronization points every layer's
    // work (attention heads, activations, transposes) splits across devices;
    // normalization layers and backend conversion layers stay replicated.
    const bool replicated = layer.cls == OpClass::kNormalization ||
                            layer.cls == OpClass::kSoftmax || layer.is_reorder;
    const bool matrix = layer.cls == OpClass::kGemm ||
                        layer.cls == OpClass::kConv ||
                        layer.cls == OpClass::kConvPointwise;
    if (!replicated && ways > 1) {
      out.compute_s +=
          std::max(layer.latency_s / n, platform.kernel_overhead_s);
    } else {
      out.compute_s += layer.latency_s;
    }
    if (matrix && ways > 1) {
      // One ring allreduce per matrix-bearing layer (its row-parallel output
      // projection): 2(N-1)/N of the output activations over the link.
      ++out.sharded_layers;
      const double output_bytes =
          base.roofline.layers[i].bytes * 0.15;  // output share of traffic
      out.allreduce_s +=
          link.latency_s + 2.0 * (n - 1.0) / n * output_bytes / link.bandwidth;
    }
  }
  out.total_latency_s = out.compute_s + out.allreduce_s;
  out.speedup_vs_single = base.total_latency_s / out.total_latency_s;
  out.scaling_efficiency = out.speedup_vs_single / n;
  return out;
}

}  // namespace

PipelineReport profile_pipeline(const Graph& model, const ProfileOptions& options,
                                int num_stages, const InterconnectDesc& link,
                                int microbatches) {
  const ProfileReport base = Profiler(options).run(model);
  return pipeline_from_base(base, deploy_graph(model, options), num_stages,
                            link, microbatches);
}

TensorParallelReport profile_tensor_parallel(const Graph& model,
                                             const ProfileOptions& options,
                                             int ways,
                                             const InterconnectDesc& link) {
  const auto& platform = hw::PlatformRegistry::instance().get(options.platform_id);
  const ProfileReport base = Profiler(options).run(model);
  return tensor_parallel_from_base(base, platform, ways, link);
}

StageSearch search_pipeline_stages(const Graph& model,
                                   const ProfileOptions& options,
                                   const InterconnectDesc& link,
                                   std::vector<int> stage_counts,
                                   int microbatches) {
  if (stage_counts.empty()) {
    stage_counts = {1, 2, 3, 4, 5, 6, 7, 8};
  }
  const ProfileReport base = Profiler(options).run(model);
  const Graph deployed = deploy_graph(model, options);
  // Candidates share `deployed` read-only; materialize its lazy indices
  // before the fan-out (crossing_bytes calls find_node/boundary).
  deployed.warm_indices();
  StageSearch search;
  search.reports = ThreadPool::global().parallel_map(
      stage_counts.size(), [&](size_t i) {
        return pipeline_from_base(base, deployed, stage_counts[i], link,
                                  microbatches);
      });
  double best = -1.0;
  for (size_t i = 0; i < search.reports.size(); ++i) {
    if (search.reports[i].steady_throughput_per_s > best) {
      best = search.reports[i].steady_throughput_per_s;
      search.best_stages = stage_counts[i];
    }
  }
  return search;
}

WaysSearch search_tensor_parallel_ways(const Graph& model,
                                       const ProfileOptions& options,
                                       const InterconnectDesc& link,
                                       std::vector<int> ways) {
  if (ways.empty()) {
    ways = {1, 2, 3, 4, 5, 6, 7, 8};
  }
  const auto& platform = hw::PlatformRegistry::instance().get(options.platform_id);
  const ProfileReport base = Profiler(options).run(model);
  WaysSearch search;
  search.reports = ThreadPool::global().parallel_map(ways.size(), [&](size_t i) {
    return tensor_parallel_from_base(base, platform, ways[i], link);
  });
  double best_latency = 0.0;
  for (size_t i = 0; i < search.reports.size(); ++i) {
    if (search.best_ways == 0 ||
        search.reports[i].total_latency_s < best_latency) {
      best_latency = search.reports[i].total_latency_s;
      search.best_ways = ways[i];
    }
  }
  return search;
}

std::string pipeline_text(const PipelineReport& report) {
  report::TextTable table({"stage", "layers", "compute", "send", "comm"});
  for (const StageReport& s : report.stages) {
    table.add_row({std::to_string(s.device),
                   std::to_string(s.first_layer) + ".." +
                       std::to_string(s.last_layer),
                   units::ms(s.compute_s), units::megabytes(s.send_bytes),
                   units::ms(s.comm_s)});
  }
  std::ostringstream out;
  out << table.to_string();
  out << "stage time: " << units::ms(report.stage_time_s)
      << "  single-batch latency: " << units::ms(report.single_batch_latency_s)
      << "\n";
  out << "steady throughput: "
      << units::fixed(report.steady_throughput_per_s, 0) << "/s  bubble: "
      << units::fixed(report.bubble_fraction * 100.0, 1) << "%  speedup: "
      << units::fixed(report.speedup_vs_single, 2) << "x  efficiency: "
      << units::fixed(report.scaling_efficiency * 100.0, 1) << "%\n";
  return out.str();
}

std::string tensor_parallel_text(const TensorParallelReport& report) {
  std::ostringstream out;
  out << report.ways << "-way tensor parallel: compute "
      << units::ms(report.compute_s) << " + allreduce "
      << units::ms(report.allreduce_s) << " = "
      << units::ms(report.total_latency_s) << "  (" << report.sharded_layers
      << " sharded layers, speedup " << units::fixed(report.speedup_vs_single, 2)
      << "x, efficiency " << units::fixed(report.scaling_efficiency * 100.0, 1)
      << "%)\n";
  return out.str();
}

}  // namespace proof::distributed
