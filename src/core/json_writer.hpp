// Minimal JSON writer: enough for flat objects/arrays of strings + numbers.
// Shared by the report serializers (report_json.cpp, decode_sweep.cpp) and
// the daemon's own responses (serve/session.cpp) so every JSON document
// formats numbers identically (printf "%.12g") — a requirement for
// byte-reproducible golden diffing.  The document is appended to one string
// the writer owns: numbers go through std::to_chars, strings through
// json::append_escaped.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>

#include "support/json.hpp"

namespace proof {

class JsonWriter {
 public:
  void begin_object() { separator(); out_ += '{'; fresh_ = true; }
  void begin_object(std::string_view key) {
    emit_key(key);
    out_ += '{';
    fresh_ = true;
  }
  void end_object() { out_ += '}'; fresh_ = false; }
  void begin_array(std::string_view key) {
    emit_key(key);
    out_ += '[';
    fresh_ = true;
  }
  void end_array() { out_ += ']'; fresh_ = false; }

  void field(std::string_view key, std::string_view value) {
    emit_key(key);
    emit_string(value);
  }
  /// Without this overload a string literal would convert to bool.
  void field(std::string_view key, const char* value) {
    field(key, std::string_view(value));
  }
  /// "%.12g"; non-finite values are written as null.
  void field(std::string_view key, double value) {
    emit_key(key);
    if (!std::isfinite(value)) {
      out_ += "null";
      return;
    }
    char buf[32];
    const auto end = std::to_chars(buf, buf + sizeof(buf), value,
                                   std::chars_format::general, 12).ptr;
    out_.append(buf, end);
  }
  void field(std::string_view key, int64_t value) {
    emit_key(key);
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  }
  void field(std::string_view key, bool value) {
    emit_key(key);
    out_ += value ? "true" : "false";
  }
  void string_element(std::string_view value) {
    separator();
    emit_string(value);
  }
  /// Splices a pre-serialized JSON value under `key` (self-profile section).
  void raw_field(std::string_view key, std::string_view json) {
    emit_key(key);
    out_ += json;
  }

  /// The finished document; call once, after the last end_object().
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  void separator() {
    if (!fresh_) {
      out_ += ',';
    }
    fresh_ = false;
  }
  void emit_key(std::string_view key) {
    separator();
    emit_string(key);
    out_ += ':';
  }
  void emit_string(std::string_view value) {
    out_ += '"';
    json::append_escaped(out_, value);
    out_ += '"';
  }

  std::string out_;
  bool fresh_ = true;
};

}  // namespace proof
