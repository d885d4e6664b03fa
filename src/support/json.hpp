// Minimal JSON document model + recursive-descent parser for the serve
// protocol (src/serve/).
//
// The framework's report serializers (core/report_json.cpp, obs/self_profile)
// only ever *write* JSON; the profiling-as-a-service daemon also has to
// *read* request payloads off the wire.  This parser covers the full JSON
// grammar with two properties the protocol layer relies on:
//  * every parsed value remembers its raw byte span [raw_begin, raw_end) in
//    the input, so a sub-document (e.g. the "report" of an analyze response)
//    can be spliced back out verbatim — byte-identical to what the producer
//    serialized, immune to number-formatting round-trip drift;
//  * malformed input always throws json::ParseError (a proof::Error) with
//    a byte offset, never crashes or reads out of bounds — the server turns
//    these into typed protocol error responses.
//
// Not a performance-critical path: requests are tiny compared to the
// profiling work they trigger.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace proof::json {

/// Thrown on malformed input; the message includes the byte offset.
class ParseError : public Error {
 public:
  using Error::Error;
};

class Value {
 public:
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<Value> array;
  /// Insertion-ordered; duplicate keys keep the last occurrence reachable
  /// via find() (it scans back to front).
  std::vector<std::pair<std::string, Value>> object;
  /// Byte span of this value in the parsed input (see raw()).
  size_t raw_begin = 0;
  size_t raw_end = 0;

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::kBool; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  // Typed accessors with defaults (loose: a missing/mistyped field yields the
  // default; use require_* in the protocol layer for mandatory fields).
  [[nodiscard]] std::string as_string(std::string default_value = "") const;
  [[nodiscard]] double as_double(double default_value = 0.0) const;
  [[nodiscard]] int64_t as_int(int64_t default_value = 0) const;
  [[nodiscard]] bool as_bool(bool default_value = false) const;

  // Convenience: member access + typed coercion in one call.
  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string default_value = "") const;
  [[nodiscard]] double get_double(std::string_view key,
                                  double default_value = 0.0) const;
  [[nodiscard]] int64_t get_int(std::string_view key,
                                int64_t default_value = 0) const;
  [[nodiscard]] bool get_bool(std::string_view key,
                              bool default_value = false) const;
};

/// Parses one JSON document; trailing non-whitespace throws.  The returned
/// tree's raw spans index into `text`, which the caller must keep alive for
/// raw() extraction.
[[nodiscard]] Value parse(std::string_view text);

/// The verbatim bytes of `value` inside the `text` it was parsed from.
[[nodiscard]] std::string_view raw(const Value& value, std::string_view text);

/// Appends `text` escaped for a JSON string literal (no surrounding quotes):
/// `"` and `\` are backslash-escaped, \b \f \n \r \t take their short
/// forms and every other byte below 0x20 becomes \u00XX.  The one escaper:
/// escape(), quote(), JsonWriter and the self-profile export all call it.
void append_escaped(std::string& out, std::string_view text);

/// append_escaped into a fresh string.
[[nodiscard]] std::string escape(std::string_view text);

/// `"escaped"` with quotes — the common case when hand-writing documents.
[[nodiscard]] std::string quote(std::string_view text);

}  // namespace proof::json
