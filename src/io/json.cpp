// Recursive-descent JSON parsing for the wire protocol and request files.

#include "io/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace ebmf::io::json {

namespace {

[[noreturn]] void type_error(const char* wanted) {
  throw std::runtime_error(std::string("json value is not a ") + wanted);
}

}  // namespace

bool Value::as_bool() const {
  if (type_ != Type::Bool) type_error("bool");
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::Number) type_error("number");
  return number_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::String) type_error("string");
  return string_;
}

std::size_t Value::size() const {
  if (type_ != Type::Array) type_error("array");
  return array_.size();
}

const Value& Value::at(std::size_t i) const {
  if (type_ != Type::Array) type_error("array");
  return array_.at(i);
}

const Value* Value::find(const std::string& key) const {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [name, value] : object_)
    if (name == key) return &value;
  return nullptr;
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  if (type_ != Type::Object) type_error("object");
  return object_;
}

/// The parser: one pass over the text with a cursor; depth-limited so a
/// hostile request line cannot blow the stack.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value run() {
    Value v = parse_value(0);
    skip_space();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  static constexpr std::size_t kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json at offset " + std::to_string(pos_) + ": " +
                             what);
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_word(const char* word) {
    std::size_t n = 0;
    while (word[n] != '\0') ++n;
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_space();
    const char c = peek();
    if (c == '{') return parse_object(depth);
    if (c == '[') return parse_array(depth);
    if (c == '"') {
      Value v;
      v.type_ = Value::Type::String;
      v.string_ = parse_string();
      return v;
    }
    if (consume_word("true")) {
      Value v;
      v.type_ = Value::Type::Bool;
      v.bool_ = true;
      return v;
    }
    if (consume_word("false")) {
      Value v;
      v.type_ = Value::Type::Bool;
      v.bool_ = false;
      return v;
    }
    if (consume_word("null")) return Value{};
    return parse_number();
  }

  Value parse_object(std::size_t depth) {
    Value v;
    v.type_ = Value::Type::Object;
    expect('{');
    skip_space();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_space();
      std::string key = parse_string();
      skip_space();
      expect(':');
      v.object_.emplace_back(std::move(key), parse_value(depth + 1));
      skip_space();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array(std::size_t depth) {
    Value v;
    v.type_ = Value::Type::Array;
    expect('[');
    skip_space();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array_.push_back(parse_value(depth + 1));
      skip_space();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  /// Advance past the run of plain string bytes (no '"', '\\' or control
  /// character), eight bytes per step while a whole word is plain.
  void skip_plain_run() {
    constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
    constexpr std::uint64_t kHighs = 0x8080808080808080ULL;
    const auto has_zero_byte = [](std::uint64_t v) {
      return ((v - kOnes) & ~v & kHighs) != 0;
    };
    while (text_.size() - pos_ >= 8) {
      std::uint64_t x;
      std::memcpy(&x, text_.data() + pos_, sizeof x);
      const bool special = ((x - kOnes * 0x20) & ~x & kHighs) != 0 ||
                           has_zero_byte(x ^ (kOnes * '"')) ||
                           has_zero_byte(x ^ (kOnes * '\\'));
      if (special) break;
      pos_ += 8;
    }
    while (pos_ < text_.size()) {
      const auto c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"' || c == '\\' || c < 0x20) break;
      ++pos_;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const std::size_t run = pos_;
      skip_plain_run();
      out.append(text_, run, pos_ - run);
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out.push_back(e);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad hex digit in \\u escape");
          }
          // BMP code point -> UTF-8 (surrogate pairs are rejected: the
          // protocol carries ASCII patterns and labels).
          if (code >= 0xd800 && code <= 0xdfff)
            fail("surrogate pairs are not supported");
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    const char* const first = text_.data() + start;
    const char* const last = text_.data() + pos_;
    double value = 0.0;
    const auto [end, ec] = std::from_chars(first, last, value);
    bool ok = ec == std::errc() && end == last;
    if (ec == std::errc::result_out_of_range && end == last) {
      // Underflow reads as (sub)normal zero, as strtod has it; overflow
      // comes back infinite and is refused below.
      value = std::strtod(std::string(first, last).c_str(), nullptr);
      ok = true;
    }
    if (!ok || !std::isfinite(value)) {
      pos_ = start;
      fail("malformed number '" + std::string(first, last) + "'");
    }
    Value v;
    v.type_ = Value::Type::Number;
    v.number_ = value;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

Value Value::parse(const std::string& text) { return Parser(text).run(); }

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  return buffer;
}

}  // namespace ebmf::io::json
