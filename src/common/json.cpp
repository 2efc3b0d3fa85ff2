#include "common/json.hpp"

#include <cctype>
#include <charconv>

namespace iotls::common {

bool Json::as_bool() const {
  if (kind_ != Kind::Bool) throw JsonError("not a bool", 0);
  return bool_;
}

double Json::as_number() const {
  if (kind_ != Kind::Number) throw JsonError("not a number", 0);
  return number_;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::String) throw JsonError("not a string", 0);
  return string_;
}

const std::vector<Json>& Json::as_array() const {
  if (kind_ != Kind::Array) throw JsonError("not an array", 0);
  return array_;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

const Json& Json::at(const std::string& key) const {
  const Json* found = find(key);
  if (found == nullptr) throw JsonError("missing key '" + key + "'", 0);
  return *found;
}

Json Json::make_bool(bool v) {
  Json j;
  j.kind_ = Kind::Bool;
  j.bool_ = v;
  return j;
}

Json Json::make_number(double v) {
  Json j;
  j.kind_ = Kind::Number;
  j.number_ = v;
  return j;
}

Json Json::make_string(std::string v) {
  Json j;
  j.kind_ = Kind::String;
  j.string_ = std::move(v);
  return j;
}

Json Json::make_array(std::vector<Json> v) {
  Json j;
  j.kind_ = Kind::Array;
  j.array_ = std::move(v);
  return j;
}

Json Json::make_object(std::map<std::string, Json> v) {
  Json j;
  j.kind_ = Kind::Object;
  j.object_ = std::move(v);
  return j;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    skip_ws();
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonError(message, pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) throw JsonError("unexpected end", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    std::size_t n = 0;
    while (literal[n] != '\0') ++n;
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json::make_null();
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    std::map<std::string, Json> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json::make_object(std::move(members));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      members.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json::make_object(std::move(members));
    }
  }

  Json parse_array() {
    expect('[');
    std::vector<Json> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json::make_array(std::move(items));
    }
    for (;;) {
      skip_ws();
      items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json::make_array(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_];
      // RFC 8259 section 7: control bytes must be escaped in a string.
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control byte");
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // Decode the BMP escape to UTF-8 (no surrogate-pair support —
          // the emitters in this tree never produce one).
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc{} || end != text_.data() + pos_ || pos_ == start) {
      pos_ = start;
      fail("bad number");
    }
    return Json::make_number(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace iotls::common
