// Recursive-descent JSON parsing for the wire protocol and request files.

#include "io/json.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

namespace ebmf::io::json {

namespace {

static_assert(sizeof(Value) <= 16, "a JSON node stays compact");

/// Uninitialized storage for `n` objects of T (nullptr when n == 0).
template <typename T>
T* allocate(std::size_t n) {
  return n == 0 ? nullptr : std::allocator<T>().allocate(n);
}

template <typename T>
void release(T* block, std::size_t n) noexcept {
  if (block == nullptr) return;
  std::destroy_n(block, n);
  std::allocator<T>().deallocate(block, n);
}

/// A block holding copies of [first, first + n).
template <typename T>
T* copied(const T* first, std::size_t n) {
  T* block = allocate<T>(n);
  try {
    std::uninitialized_copy_n(first, n, block);
  } catch (...) {
    if (block != nullptr) std::allocator<T>().deallocate(block, n);
    throw;
  }
  return block;
}

}  // namespace

Value::Value(const Value& other)
    : type_(other.type_), bool_(other.bool_), count_(other.count_) {
  switch (type_) {
    case Type::String:
      u_.string = new std::string(*other.u_.string);
      break;
    case Type::Array:
      u_.array = copied(other.u_.array, count_);
      break;
    case Type::Object:
      u_.object = copied(other.u_.object, count_);
      break;
    default:
      u_ = other.u_;
  }
}

Value& Value::operator=(const Value& other) {
  if (this != &other) *this = Value(other);
  return *this;
}

Value& Value::operator=(Value&& other) noexcept {
  if (this != &other) {
    destroy();
    type_ = other.type_;
    bool_ = other.bool_;
    count_ = other.count_;
    u_ = other.u_;
    other.type_ = Type::Null;
    other.count_ = 0;
  }
  return *this;
}

void Value::destroy() noexcept {
  switch (type_) {
    case Type::String:
      delete u_.string;
      break;
    case Type::Array:
      release(u_.array, count_);
      break;
    case Type::Object:
      release(u_.object, count_);
      break;
    default:
      break;
  }
  type_ = Type::Null;
  count_ = 0;
}

void Value::kind_error(const char* wanted) {
  throw std::runtime_error(std::string("json value is not a ") + wanted);
}

void Value::index_error(std::size_t i, std::size_t size) {
  throw std::out_of_range("json array index " + std::to_string(i) +
                          " past the end (size " + std::to_string(size) + ")");
}

const Value* Value::find(std::string_view key) const {
  if (type_ != Type::Object) return nullptr;
  for (const Member& member : std::span<const Member>(u_.object, count_))
    if (member.key == key) return &member.value;
  return nullptr;
}

std::span<const Value::Member> Value::members() const {
  if (type_ != Type::Object) kind_error("object");
  return {u_.object, count_};
}

/// The parser: one pass over the text with a cursor; depth-limited so a
/// hostile request line cannot blow the stack. Finished array elements and
/// object members wait on two scratch stacks until their container closes;
/// the container then takes them in one block of its final size.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {
    values_.reserve(64);
    members_.reserve(32);
  }

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

  /// Move the top `stack.size() - base` entries into a new block and pop
  /// them; the count is the container's size.
  template <typename T>
  T* take(std::vector<T>& stack, std::size_t base, std::uint32_t& count) {
    const std::size_t n = stack.size() - base;
    if (n > UINT32_MAX) fail("container too large");
    T* block = allocate<T>(n);
    std::uninitialized_move_n(stack.begin() + static_cast<std::ptrdiff_t>(base),
                              n, block);
    stack.resize(base);
    count = static_cast<std::uint32_t>(n);
    return block;
  }

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  static bool is_number_char(char c) {
    return is_digit(c) || c == '.' || c == 'e' || c == 'E' || c == '+' ||
           c == '-';
  }

  Value parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_space();
    const char c = peek();
    if (is_digit(c) || c == '-') return parse_number();
    if (c == '{') return parse_object(depth);
    if (c == '[') return parse_array(depth);
    if (c == '"') {
      std::string text = parse_string();
      Value v;
      v.u_.string = new std::string(std::move(text));
      v.type_ = Value::Type::String;
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
    expect('{');
    const std::size_t base = members_.size();
    skip_space();
    if (peek() == '}') {
      ++pos_;
    } else {
      while (true) {
        skip_space();
        std::string key = parse_string();
        skip_space();
        expect(':');
        Value value = parse_value(depth + 1);
        members_.push_back(Value::Member{std::move(key), std::move(value)});
        skip_space();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        break;
      }
    }
    Value v;
    v.u_.object = take(members_, base, v.count_);
    v.type_ = Value::Type::Object;
    return v;
  }

  Value parse_array(std::size_t depth) {
    expect('[');
    const std::size_t base = values_.size();
    skip_space();
    if (peek() == ']') {
      ++pos_;
    } else {
      while (true) {
        Value element = parse_value(depth + 1);
        values_.push_back(std::move(element));
        skip_space();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        break;
      }
    }
    Value v;
    v.u_.array = take(values_, base, v.count_);
    v.type_ = Value::Type::Array;
    return v;
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
    Value v;
    v.type_ = Value::Type::Number;
    // Fast path: a plain run of at most 15 digits is an integer below 2^53,
    // which every double reader maps to exactly that value.
    std::uint64_t integer = 0;
    while (pos_ < text_.size() && pos_ - start < 16 && is_digit(text_[pos_]))
      integer = integer * 10 + static_cast<std::uint64_t>(text_[pos_++] - '0');
    if (pos_ > start && pos_ - start <= 15 &&
        (pos_ == text_.size() || !is_number_char(text_[pos_]))) {
      v.u_.number = static_cast<double>(integer);
      return v;
    }
    pos_ = start;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && is_number_char(text_[pos_])) ++pos_;
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
    v.u_.number = value;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::vector<Value> values_;
  std::vector<Value::Member> members_;
};

Value Value::parse(const std::string& text) { return Parser(text).run(); }

std::optional<std::uint64_t> to_count(const Value& value) {
  if (!value.is_number()) return std::nullopt;
  const double x = value.as_number();
  if (!(x >= 0.0 && x < 9007199254740992.0)) return std::nullopt;
  // In range, so the cast is defined; it truncates, which a fraction shows.
  const auto count = static_cast<std::uint64_t>(x);
  if (static_cast<double>(count) != x) return std::nullopt;
  return count;
}

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
