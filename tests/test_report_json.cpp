// Unit tests: JSON report export (structure, escaping, numeric fields) and
// the JsonWriter every report and daemon document is written with.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ios>
#include <limits>
#include <random>
#include <string>

#include "core/json_writer.hpp"
#include "core/report_json.hpp"
#include "support/json.hpp"

namespace proof {
namespace {

ProfileReport sample_report() {
  ProfileOptions opt;
  opt.platform_id = "a100";
  opt.dtype = DType::kF16;
  opt.batch = 4;
  opt.mode = MetricMode::kPredicted;
  return Profiler(opt).run_zoo("mobilenetv2_05");
}

TEST(ReportJson, ContainsTopLevelFields) {
  const std::string json = report_to_json(sample_report());
  for (const char* key :
       {"\"model\":", "\"platform\":", "\"latency_s\":", "\"layers\":[",
        "\"mapping_coverage\":", "\"peak_flops\":", "\"memory_bound\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ReportJson, BalancedBracesAndQuotes) {
  const std::string json = report_to_json(sample_report());
  int braces = 0;
  int brackets = 0;
  size_t quotes = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) {
      in_string = !in_string;
      ++quotes;
    }
    if (in_string) {
      continue;
    }
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_EQ(quotes % 2, 0u);
  EXPECT_FALSE(in_string);
}

TEST(ReportJson, LayerCountMatchesReport) {
  const ProfileReport r = sample_report();
  const std::string json = report_to_json(r);
  size_t names = 0;
  size_t pos = 0;
  while ((pos = json.find("\"name\":", pos)) != std::string::npos) {
    ++names;
    pos += 7;
  }
  EXPECT_EQ(names, r.layers.size());
}

TEST(ReportJson, EscapesSpecialCharacters) {
  ProfileReport r = sample_report();
  r.model_name = "quote\" backslash\\ newline\n tab\t";
  const std::string json = report_to_json(r);
  EXPECT_NE(json.find("quote\\\""), std::string::npos);
  EXPECT_NE(json.find("backslash\\\\"), std::string::npos);
  EXPECT_NE(json.find("newline\\n"), std::string::npos);
  EXPECT_NE(json.find("tab\\t"), std::string::npos);
}

TEST(ReportJson, SaveToDisk) {
  const std::string path = ::testing::TempDir() + "/proof_report.json";
  save_json(report_to_json(sample_report()), path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  char first = 0;
  in >> first;
  EXPECT_EQ(first, '{');
}

// --- JsonWriter ----------------------------------------------------------------

/// The text JsonWriter writes for one number.
template <typename T>
std::string written(T value) {
  JsonWriter w;
  w.begin_object();
  w.field("v", value);
  w.end_object();
  const std::string doc = w.take();
  return doc.substr(5, doc.size() - 6);  // strip {"v": and }
}

std::string printf_12g(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

TEST(JsonWriter, DoublesMatchPrintf12gOnEdgeValues) {
  const double edges[] = {
      0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 1.0 / 3.0, -2.0 / 3.0, 1e-5, 1e-4,
      1e15, 1e16, 1e21, 1e22, 5e-324, -5e-324, DBL_MIN, DBL_MAX, -DBL_MAX,
      DBL_EPSILON, 123456789012.0, 1234567890123.0,
      // Values that round at the 12th significant digit.
      999999999999.5, 9.999999999995, 9.9999999999949, 0.12345678901250001,
      1.00000000000050004, 99999999999.95, 1e-5 * 0.99999999999951,
      4503599627370497.0, 9007199254740993.0};
  for (const double v : edges) {
    EXPECT_EQ(written(v), printf_12g(v)) << std::hexfloat << v;
  }
}

TEST(JsonWriter, DoublesMatchPrintf12gOnRandomBitPatterns) {
  std::mt19937_64 rng(20261018);
  size_t finite = 0;
  for (int i = 0; i < 100000; ++i) {
    const uint64_t bits = rng();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    if (!std::isfinite(v)) {
      EXPECT_EQ(written(v), "null");
      continue;
    }
    ++finite;
    ASSERT_EQ(written(v), printf_12g(v)) << "bits 0x" << std::hex << bits;
  }
  EXPECT_GT(finite, 99000u);
}

TEST(JsonWriter, NonFiniteIsNullAndIntegersAreExact) {
  EXPECT_EQ(written(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(written(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(written(-std::numeric_limits<double>::infinity()), "null");
  for (const int64_t v : {std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max(), int64_t{0},
                          int64_t{-1}, int64_t{1} << 53}) {
    EXPECT_EQ(written(v), std::to_string(v));
  }
  EXPECT_EQ(written(true), "true");
  EXPECT_EQ(written(false), "false");
}

TEST(JsonWriter, ControlBytesQuotesAndBackslashesRoundTrip) {
  std::string text;
  for (int c = 0x01; c < 0x20; ++c) {
    text.push_back(static_cast<char>(c));
  }
  text += "\"\\ plain";

  JsonWriter w;
  w.begin_object();
  w.field(text, text);
  w.begin_array("list");
  w.string_element(text);
  w.end_array();
  w.end_object();
  const std::string doc = w.take();
  const json::Value parsed = json::parse(doc);
  EXPECT_EQ(parsed.get_string(text), text);
  ASSERT_NE(parsed.find("list"), nullptr);
  EXPECT_EQ(parsed.find("list")->array.at(0).as_string(), text);
  EXPECT_EQ(json::parse(json::quote(text)).as_string(), text);

  // One escaper: the writer's strings are json::quote's bytes, with the short
  // forms for \b \f \n \r \t.
  EXPECT_EQ(doc.substr(1, json::quote(text).size()), json::quote(text));
  EXPECT_EQ(json::escape("\b\f\n\r\t\x01\x1f"),
            "\\b\\f\\n\\r\\t\\u0001\\u001f");
}

}  // namespace
}  // namespace proof
