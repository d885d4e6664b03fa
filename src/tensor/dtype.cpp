#include "tensor/dtype.hpp"

#include "support/error.hpp"

namespace proof {

size_t dtype_size(DType dtype) {
  switch (dtype) {
    case DType::kF32:
    case DType::kI32:
      return 4;
    case DType::kF16:
    case DType::kBF16:
      return 2;
    case DType::kI8:
    case DType::kBool:
      return 1;
    case DType::kI64:
      return 8;
  }
  PROOF_FAIL("unknown dtype value " << static_cast<int>(dtype));
}

std::string_view dtype_name(DType dtype) {
  switch (dtype) {
    case DType::kF32:
      return "fp32";
    case DType::kF16:
      return "fp16";
    case DType::kBF16:
      return "bf16";
    case DType::kI8:
      return "int8";
    case DType::kI32:
      return "int32";
    case DType::kI64:
      return "int64";
    case DType::kBool:
      return "bool";
  }
  PROOF_FAIL("unknown dtype value " << static_cast<int>(dtype));
}

DType dtype_from_name(std::string_view name) {
  if (name == "fp32" || name == "float32" || name == "float") return DType::kF32;
  if (name == "fp16" || name == "float16" || name == "half") return DType::kF16;
  if (name == "bf16" || name == "bfloat16") return DType::kBF16;
  if (name == "int8" || name == "i8") return DType::kI8;
  if (name == "int32" || name == "i32") return DType::kI32;
  if (name == "int64" || name == "i64") return DType::kI64;
  if (name == "bool") return DType::kBool;
  throw ConfigError("unknown dtype name '" + std::string(name) +
                    "' (accepted: fp32, float32, float, fp16, float16, half, bf16, "
                    "bfloat16, int8, i8, int32, i32, int64, i64, bool)");
}

bool dtype_is_float(DType dtype) {
  return dtype == DType::kF32 || dtype == DType::kF16 || dtype == DType::kBF16;
}

}  // namespace proof
