// Shared sweep-grid axis validation, used by sweep.cpp and decode_sweep.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace proof::sweep_axis {

/// Validation policy for one sweep grid axis.
struct AxisSpec {
  std::string context;  ///< error-message prefix, e.g. "sweep_decode"
  std::string what;     ///< axis name in messages, e.g. "decode positions"
  /// Throw on a non-positive candidate (grid axes) instead of silently
  /// dropping it (user-supplied batch candidate lists).
  bool reject_nonpositive = false;
  /// Sort ascending (grid axes) instead of keeping first-seen order.
  bool sorted = false;
  /// Parenthesized hint of the empty-axis ConfigError.
  std::string empty_hint = "need at least one positive value";
};

/// Returns the validated, deduplicated axis. Throws ConfigError
/// "<context>: <what> must be positive, got N" (when reject_nonpositive) and
/// "<context>: no valid <what> (<empty_hint>)" for an empty result.
inline std::vector<int64_t> clean_axis(const std::vector<int64_t>& values,
                                       const AxisSpec& spec) {
  std::vector<int64_t> valid;
  std::set<int64_t> seen;
  for (const int64_t v : values) {
    if (v <= 0) {
      if (spec.reject_nonpositive) {
        throw ConfigError(spec.context + ": " + spec.what +
                          " must be positive, got " + std::to_string(v));
      }
      continue;
    }
    if (seen.insert(v).second) {
      valid.push_back(v);
    }
  }
  if (valid.empty()) {
    throw ConfigError(spec.context + ": no valid " + spec.what + " (" +
                      spec.empty_hint + ")");
  }
  if (spec.sorted) {
    std::sort(valid.begin(), valid.end());
  }
  return valid;
}

}  // namespace proof::sweep_axis
