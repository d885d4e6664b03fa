// Data types supported by the analysis and the simulated runtimes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace proof {

/// Element types.  Mirrors the ONNX tensor element types PRoof cares about.
enum class DType : uint8_t {
  kF32,
  kF16,
  kBF16,
  kI8,
  kI32,
  kI64,
  kBool,
};

/// Size of one element in bytes.
[[nodiscard]] size_t dtype_size(DType dtype);

/// Canonical lowercase name ("fp16", "int8", ...).
[[nodiscard]] std::string_view dtype_name(DType dtype);

/// Inverse of dtype_name (plus aliases such as "half"); throws ConfigError,
/// listing the accepted names, on unknown names.
[[nodiscard]] DType dtype_from_name(std::string_view name);

/// True for float-family types (fp32/fp16/bf16).
[[nodiscard]] bool dtype_is_float(DType dtype);

}  // namespace proof
