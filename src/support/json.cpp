#include "support/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

namespace proof::json {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON document");
    }
    return v;
  }

 private:
  static constexpr size_t kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("JSON parse error at byte " + std::to_string(pos_) + ": " +
                     what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Value parse_value(size_t depth) {
    if (depth > kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
    skip_ws();
    Value v;
    v.raw_begin = pos_;
    const char c = peek();
    switch (c) {
      case '{':
        parse_object(v, depth);
        break;
      case '[':
        parse_array(v, depth);
        break;
      case '"':
        v.kind = Value::Kind::kString;
        v.string_value = parse_string();
        break;
      case 't':
        if (!consume_literal("true")) {
          fail("invalid literal");
        }
        v.kind = Value::Kind::kBool;
        v.bool_value = true;
        break;
      case 'f':
        if (!consume_literal("false")) {
          fail("invalid literal");
        }
        v.kind = Value::Kind::kBool;
        v.bool_value = false;
        break;
      case 'n':
        if (!consume_literal("null")) {
          fail("invalid literal");
        }
        v.kind = Value::Kind::kNull;
        break;
      default:
        v.kind = Value::Kind::kNumber;
        v.number_value = parse_number();
        break;
    }
    v.raw_end = pos_;
    return v;
  }

  void parse_object(Value& v, size_t depth) {
    v.kind = Value::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char sep = peek();
      if (sep == ',') {
        ++pos_;
        continue;
      }
      if (sep == '}') {
        ++pos_;
        return;
      }
      fail("expected ',' or '}' in object");
    }
  }

  void parse_array(Value& v, size_t depth) {
    v.kind = Value::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      v.array.push_back(parse_value(depth + 1));
      skip_ws();
      const char sep = peek();
      if (sep == ',') {
        ++pos_;
        continue;
      }
      if (sep == ']') {
        ++pos_;
        return;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // consume backslash
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: fail("invalid escape character");
      }
    }
  }

  uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) {
      fail("truncated \\u escape");
    }
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    return value;
  }

  void append_unicode_escape(std::string& out) {
    uint32_t cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: expect a pair
      if (pos_ + 2 <= text_.size() && text_[pos_] == '\\' &&
          text_[pos_ + 1] == 'u') {
        pos_ += 2;
        const uint32_t low = parse_hex4();
        if (low < 0xDC00 || low > 0xDFFF) {
          fail("invalid low surrogate");
        }
        cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
      } else {
        fail("unpaired high surrogate");
      }
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    // UTF-8 encode.
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  double parse_number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    auto digits = [&] {
      const size_t before = pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      return pos_ > before;
    };
    const size_t int_start = pos_;
    if (!digits()) {
      fail("invalid number");
    }
    // JSON forbids leading zeros ("01"); a lone 0 is fine.
    if (pos_ - int_start > 1 && text_[int_start] == '0') {
      fail("leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) {
        fail("digits required after decimal point");
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) {
        fail("digits required in exponent");
      }
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc() || end != text_.data() + pos_) {
      fail("number out of range");
    }
    return value;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (auto it = object.rbegin(); it != object.rend(); ++it) {
    if (it->first == key) {
      return &it->second;
    }
  }
  return nullptr;
}

std::string Value::as_string(std::string default_value) const {
  return kind == Kind::kString ? string_value : std::move(default_value);
}

double Value::as_double(double default_value) const {
  return kind == Kind::kNumber ? number_value : default_value;
}

int64_t Value::as_int(int64_t default_value) const {
  if (kind != Kind::kNumber) {
    return default_value;
  }
  return static_cast<int64_t>(std::llround(number_value));
}

bool Value::as_bool(bool default_value) const {
  return kind == Kind::kBool ? bool_value : default_value;
}

std::string Value::get_string(std::string_view key,
                              std::string default_value) const {
  const Value* v = find(key);
  return v == nullptr ? std::move(default_value)
                      : v->as_string(std::move(default_value));
}

double Value::get_double(std::string_view key, double default_value) const {
  const Value* v = find(key);
  return v == nullptr ? default_value : v->as_double(default_value);
}

int64_t Value::get_int(std::string_view key, int64_t default_value) const {
  const Value* v = find(key);
  return v == nullptr ? default_value : v->as_int(default_value);
}

bool Value::get_bool(std::string_view key, bool default_value) const {
  const Value* v = find(key);
  return v == nullptr ? default_value : v->as_bool(default_value);
}

Value parse(std::string_view text) { return Parser(text).run(); }

std::string_view raw(const Value& value, std::string_view text) {
  PROOF_CHECK(value.raw_end >= value.raw_begin && value.raw_end <= text.size(),
              "raw span [" << value.raw_begin << ", " << value.raw_end
                           << ") does not fit the given text ("
                           << text.size() << " bytes)");
  return text.substr(value.raw_begin, value.raw_end - value.raw_begin);
}

void append_escaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t plain = 0;  // start of the pending run that needs no escaping
  for (size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(text.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(u, sizeof(u));
      }
    }
  }
  out.append(text.data() + plain, text.size() - plain);
}

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_escaped(out, text);
  return out;
}

std::string quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  append_escaped(out, text);
  out += '"';
  return out;
}

}  // namespace proof::json
