// Shared helpers for the per-table/figure reproduction benches.
#pragma once

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include <proof/proof.hpp>

namespace proof::bench {

/// Directory all bench artifacts (SVG charts, CSV dumps) are written to.
inline std::string artifact_dir() {
  static const std::string dir = [] {
    std::string d = "proof_artifacts";
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

/// Per-platform evaluation configuration for the Figure-4 sweep: the paper
/// picks "a batch size and data type that is reasonable and fully utilizes
/// the hardware" per device.
struct SweepConfig {
  std::string platform_id;
  DType dtype;
  int64_t batch;
  bool run_transformers;  ///< edge devices skip Transformer/diffusion models
  bool run_diffusion;
};

inline std::vector<SweepConfig> figure4_configs() {
  return {
      {"a100", DType::kF16, 128, true, true},
      {"a100", DType::kI8, 128, true, false},  // SD fails int8 conversion (fn.5)
      {"rtx4090", DType::kF16, 128, true, true},
      {"xeon6330", DType::kF32, 16, true, false},
      {"xavier_nx", DType::kF16, 32, false, false},
      {"orin_nx16", DType::kF16, 64, false, false},
      {"rpi4b", DType::kF32, 1, false, false},
      {"npu3720", DType::kF16, 1, false, false},
  };
}

/// Stable Diffusion runs one UNET iteration at batch 4 (paper footnote 5).
inline int64_t batch_for(const SweepConfig& cfg, const std::string& model_id) {
  return model_id == "sd_unet" ? 4 : cfg.batch;
}

inline void banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n\n";
}

inline void note_artifact(const std::string& path) {
  std::cout << "[artifact] " << path << "\n";
}

}  // namespace proof::bench
