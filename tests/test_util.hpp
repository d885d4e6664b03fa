// Shared helpers for the PRoof test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "graph/graph.hpp"
#include "models/builder.hpp"

namespace proof::testing {

/// Tiny conv->bn->relu->conv->add->relu graph used across suites.
inline Graph small_cnn() {
  models::GraphBuilder b("small_cnn");
  std::string x = b.input("input", Shape{1, 3, 32, 32});
  x = b.conv(x, 8, 3, 1);
  x = b.batchnorm(x);
  x = b.act(x, "Relu");
  std::string y = b.conv(x, 8, 3, 1);
  y = b.add(y, x);
  y = b.act(y, "Relu");
  y = b.global_avgpool(y);
  y = b.flatten(y);
  y = b.linear(y, 10);
  return b.finish({y});
}

/// Tiny transformer block (matmul-anchored) for fusion/mapping tests.
inline Graph small_transformer() {
  models::GraphBuilder b("small_transformer");
  std::string x = b.input("input", Shape{1, 16, 32});
  for (int i = 0; i < 2; ++i) {
    std::string h = b.layernorm(x);
    std::string q = b.linear(h, 32);
    std::string k = b.linear(h, 32);
    std::string attn = b.matmul(q, b.transpose(k, {0, 2, 1}));
    attn = b.softmax(attn);
    h = b.matmul(attn, b.linear(h, 32));
    x = b.add(x, h);
  }
  return b.finish({x});
}

/// Whole file contents; empty when the file cannot be read.
inline std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Zeroes a report JSON's wall-clock fields (`analysis_time_s`,
/// `counter_profiling_time_s`) — the only non-deterministic values in a
/// predicted-mode report — so reports compare byte for byte across runs,
/// cache states and machines.
inline std::string normalize_wall_clock(std::string json) {
  for (const char* key :
       {"\"analysis_time_s\":", "\"counter_profiling_time_s\":"}) {
    const size_t key_len = std::strlen(key);
    size_t pos = json.find(key);
    while (pos != std::string::npos) {
      const size_t start = pos + key_len;
      const size_t end = json.find_first_of(",}", start);
      if (end == std::string::npos) {
        break;  // truncated JSON; the byte comparison will fail loudly
      }
      json.replace(start, end - start, "0");
      pos = json.find(key, start);
    }
  }
  return json;
}

/// Context around the first byte where `got` and `want` differ — a readable
/// failure message for long single-line JSON.
inline std::string first_difference(const std::string& got, const std::string& want) {
  const size_t i = static_cast<size_t>(
      std::mismatch(got.begin(), got.end(), want.begin(), want.end()).first - got.begin());
  const size_t from = i < 60 ? 0 : i - 60;
  return "first difference at byte " + std::to_string(i) + ":\n  got:  " +
         got.substr(from, 120) + "\n  want: " + want.substr(from, 120);
}

/// Relative difference |a-b| / max(|b|, eps).
inline double rel_diff(double a, double b) {
  const double denom = std::max(std::abs(b), 1e-12);
  return std::abs(a - b) / denom;
}

/// Combined absolute/relative closeness check:
///   |a - b| <= abs_tol + rel_tol * max(|a|, |b|)
/// Plain EXPECT_NEAR takes an absolute epsilon only, which is vacuous for
/// FLOP-scale magnitudes (1e12) and impossibly strict near zero; shared
/// helpers must use this instead so transformer-sized models are actually
/// constrained.  Use via EXPECT_CLOSE / EXPECT_CLOSE_ABS below.
inline ::testing::AssertionResult close_abs_rel(double a, double b,
                                                double rel_tol,
                                                double abs_tol) {
  const double diff = std::abs(a - b);
  const double bound = abs_tol + rel_tol * std::max(std::abs(a), std::abs(b));
  if (diff <= bound) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " vs " << b << ": |diff| = " << diff << " exceeds "
         << bound << " (rel_tol = " << rel_tol << ", abs_tol = " << abs_tol
         << ")";
}

/// Combined-tolerance expectation with a default absolute floor of 1e-12
/// (so exact-zero comparisons still pass).
#define EXPECT_CLOSE(a, b, rel_tol) \
  EXPECT_TRUE(::proof::testing::close_abs_rel((a), (b), (rel_tol), 1e-12))
#define EXPECT_CLOSE_ABS(a, b, rel_tol, abs_tol) \
  EXPECT_TRUE(::proof::testing::close_abs_rel((a), (b), (rel_tol), (abs_tol)))

}  // namespace proof::testing
