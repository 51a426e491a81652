#pragma once
/// \file json.h
/// \brief A minimal JSON value type and recursive-descent parser.
///
/// The service wire protocol and the CLI's `--requests` batch files are
/// line-JSON; the repo deliberately carries no third-party JSON dependency,
/// so this is the small subset the protocol needs: the six JSON value
/// kinds, object key lookup with insertion order preserved, and parse
/// errors as std::runtime_error with a byte offset. Numbers are stored as
/// double (the protocol's integers stay well inside the 53-bit exact
/// range). Strings support the standard escapes; \uXXXX accepts Basic
/// Multilingual Plane code points and encodes them as UTF-8.
///
/// Writing JSON stays with the bespoke renderers (engine::to_json,
/// io::wire_request_json): output is append-only string building and does
/// not need a tree.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace ebmf::io::json {

/// One JSON value (tree-owning). A node is 16 bytes: numbers and bools sit
/// inline; strings, arrays and objects own one out-of-line block each, built
/// at its final size when the parser closes the container. Copies are deep;
/// a moved-from value is null.
class Value {
 public:
  enum class Type : std::uint8_t { Null, Bool, Number, String, Array, Object };
  struct Member;

  Value() noexcept = default;
  Value(const Value& other);
  Value(Value&& other) noexcept
      : type_(other.type_), bool_(other.bool_), count_(other.count_),
        u_(other.u_) {
    other.type_ = Type::Null;
    other.count_ = 0;
  }
  Value& operator=(const Value& other);
  Value& operator=(Value&& other) noexcept;
  ~Value() {
    if (type_ >= Type::String) destroy();
  }

  /// Parse a complete JSON document; trailing non-space input is an error.
  /// Throws std::runtime_error("json at offset N: ...") on malformed text.
  static Value parse(const std::string& text);

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::Bool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::Number;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::String;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::Array; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::Object;
  }

  /// Typed accessors; throw std::runtime_error on a kind mismatch.
  [[nodiscard]] bool as_bool() const {
    if (type_ != Type::Bool) kind_error("bool");
    return bool_;
  }
  [[nodiscard]] double as_number() const {
    if (type_ != Type::Number) kind_error("number");
    return u_.number;
  }
  [[nodiscard]] const std::string& as_string() const {
    if (type_ != Type::String) kind_error("string");
    return *u_.string;
  }

  /// Array access. Preconditions: is_array(); at() throws std::out_of_range
  /// when i >= size().
  [[nodiscard]] std::size_t size() const {
    if (type_ != Type::Array) kind_error("array");
    return count_;
  }
  [[nodiscard]] const Value& at(std::size_t i) const {
    if (i >= size()) index_error(i, count_);
    return u_.array[i];
  }

  /// Object lookup: the value under the first member named `key`, or
  /// nullptr when absent (or when this value is not an object — absent and
  /// mistyped read the same for optional protocol fields).
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Object members in document order. Precondition: is_object().
  [[nodiscard]] std::span<const Member> members() const;

 private:
  friend class Parser;

  [[noreturn]] static void kind_error(const char* wanted);
  [[noreturn]] static void index_error(std::size_t i, std::size_t size);
  void destroy() noexcept;

  Type type_ = Type::Null;
  bool bool_ = false;
  std::uint32_t count_ = 0;  ///< Array elements or object members.
  union Payload {
    double number;
    std::string* string;
    Value* array;
    Member* object;
  } u_{0.0};
};

/// One object member: `const auto& [key, value]` binds both.
struct Value::Member {
  std::string key;
  Value value;
};

/// `value` as an unsigned integer when it is a number that is integral and
/// below 2^53 (so exact as a double); nullopt otherwise. Counts and indices
/// read from untrusted lines go through this, never through a bare cast.
std::optional<std::uint64_t> to_count(const Value& value);

/// Escape a string for embedding in a JSON document (no surrounding
/// quotes): ", \, and control characters. The one escaping routine shared
/// by every JSON renderer in the repo (engine::to_json, the wire protocol,
/// the bench emitters).
std::string escape(const std::string& s);

/// Render a finite double as a compact JSON number token (%.6g).
std::string number(double value);

}  // namespace ebmf::io::json
