// Distributed-inference planning (the paper's §5 future-work direction):
// estimate pipeline- and tensor-parallel deployments of a large model across
// multiple simulated A100s and different interconnects, and check the memory
// footprint per device.
#include <iostream>

#include <proof/proof.hpp>

using namespace proof;

int main(int argc, char** argv) {
  const std::string model_id = argc > 1 ? argv[1] : "sd_unet";
  const Graph model = models::build_model(model_id);

  ProfileOptions opt;
  opt.platform_id = "a100";
  opt.dtype = DType::kF16;
  opt.batch = model_id == "sd_unet" ? 4 : 32;
  opt.mode = MetricMode::kPredicted;

  // Device memory pressure motivates splitting in the first place.
  Graph deployed = model;
  specialize_graph(deployed, opt.batch, opt.dtype);
  const MemoryFootprint fp = memory_footprint(deployed);
  std::cout << "model: " << model.name() << "  weights "
            << units::megabytes(fp.weight_bytes) << ", peak activations "
            << units::megabytes(fp.peak_activation_bytes) << " (peak at "
            << fp.peak_at_node << ")\n\n";

  for (const auto& link : {distributed::nvlink4(), distributed::pcie_gen4_x16(),
                           distributed::ethernet_100g()}) {
    std::cout << "==== interconnect: " << link.name << " ("
              << units::gbps(link.bandwidth) << ") ====\n\n";
    for (const int devices : {2, 4}) {
      std::cout << "-- " << devices << "-stage pipeline --\n";
      const auto pipe =
          distributed::profile_pipeline(model, opt, devices, link, 16);
      std::cout << distributed::pipeline_text(pipe) << "\n";
      std::cout << "-- " << devices << "-way tensor parallel --\n";
      const auto tp = distributed::profile_tensor_parallel(model, opt, devices, link);
      std::cout << distributed::tensor_parallel_text(tp) << "\n";
    }
  }
  std::cout << "Reading: pipelining tolerates slow links (only stage-boundary\n"
               "activations cross devices) but pays a bubble; tensor parallelism\n"
               "cuts single-batch latency but demands NVLink-class bandwidth for\n"
               "its per-layer allreduces.\n";
  return 0;
}
