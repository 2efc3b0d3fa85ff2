// Minimal JSON value model, strict recursive-descent parser, and the one
// JSON string writer.
//
// Readers: iotls-bench-track (ingesting BENCH_*.json and run reports) and
// the emitter round-trip tests. The parser is strict (complete document,
// no trailing garbage, no raw control byte in a string) and throws
// JsonError with a byte offset on malformed input.
//
// Writers: every JSON artifact (trace JSONL, run reports, the profile
// tree, metrics, lint findings, BENCH_*.json, the bench trajectory) lays
// out its own document but quotes each string with json_quote. It is
// header-only so obs and the lint tool use it without linking
// iotls_common.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace iotls::common {

/// `s` as a quoted JSON string: `"` and `\` are backslash-escaped, \n,
/// \r and \t use their short escapes, any other byte below 0x20 becomes
/// \u00xx, and every other byte (UTF-8 included) is copied unchanged.
inline std::string json_quote(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& message, std::size_t offset)
      : std::runtime_error(message + " at byte " + std::to_string(offset)),
        offset_(offset) {}
  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

class Json {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Json() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }

  /// Typed accessors throw JsonError(0) on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Json>& as_array() const;
  [[nodiscard]] const std::map<std::string, Json>& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(const std::string& key) const;
  /// Object member that must exist (throws naming the key otherwise).
  [[nodiscard]] const Json& at(const std::string& key) const;

  /// Parse a complete document (whitespace-padded OK, trailing garbage is
  /// an error).
  static Json parse(const std::string& text);

  // Construction (the parser and tests build values directly).
  static Json make_null() { return Json(); }
  static Json make_bool(bool v);
  static Json make_number(double v);
  static Json make_string(std::string v);
  static Json make_array(std::vector<Json> v);
  static Json make_object(std::map<std::string, Json> v);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::map<std::string, Json> object_;
};

}  // namespace iotls::common
