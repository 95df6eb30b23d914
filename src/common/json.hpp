#ifndef PIMCOMP_COMMON_JSON_HPP
#define PIMCOMP_COMMON_JSON_HPP

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.hpp"

namespace pimcomp {

/// Raised on malformed JSON input.
class JsonError : public Error {
 public:
  explicit JsonError(const std::string& message) : Error(message) {}
};

/// Minimal JSON value used for the graph serialization format and machine-
/// readable reports. Supports null / bool / number / string / array / object.
/// Objects preserve key order for stable, diffable output.
///
/// A value is one std::variant whose index is its Type, so a node costs one
/// string's worth of storage plus a tag. Moving a Json moves its subtree;
/// copying deep-copies it, so code that hands a large document on (an
/// artifact into a wire frame) moves it.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Deepest array/object nesting parse() accepts; deeper input throws
  /// JsonError instead of exhausting the stack.
  static constexpr int kMaxDepth = 512;

  Json() = default;
  Json(bool b) : value_(std::in_place_index<1>, b) {}           // NOLINT
  Json(double d) : value_(std::in_place_index<2>, d) {}         // NOLINT
  Json(int i) : Json(static_cast<double>(i)) {}                 // NOLINT
  Json(std::int64_t i) : Json(static_cast<double>(i)) {}        // NOLINT
  Json(const char* s) : value_(std::in_place_index<3>, s) {}    // NOLINT
  Json(std::string s)                                           // NOLINT
      : value_(std::in_place_index<3>, std::move(s)) {}

  /// Creates an empty array / object.
  static Json array();
  static Json object();

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Typed accessors; throw JsonError on type mismatch.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;

  /// Array access.
  std::size_t size() const;
  const Json& at(std::size_t index) const;
  void push_back(Json value);

  /// Object access. `operator[]` on a mutable object inserts; `at` throws if
  /// the key is missing; `get` returns a fallback.
  bool contains(const std::string& key) const;
  const Json& at(const std::string& key) const;
  Json& operator[](const std::string& key);
  const std::vector<std::pair<std::string, Json>>& items() const;

  double get(const std::string& key, double fallback) const;
  std::int64_t get(const std::string& key, std::int64_t fallback) const;
  int get(const std::string& key, int fallback) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  bool get(const std::string& key, bool fallback) const;

  /// Serializes; `indent < 0` emits compact single-line output.
  std::string dump(int indent = 2) const;

  /// Parses a complete JSON document (trailing whitespace allowed). Numbers
  /// follow RFC 8259's grammar exactly; nesting deeper than kMaxDepth
  /// throws JsonError.
  static Json parse(const std::string& text);

  /// Reads only the root object's members named in `keys`: returns an
  /// object holding those members in document order (a repeated key keeps
  /// its last value in its first position, as parse() does), or null when
  /// the root is not an object. Every other member is validated exactly as
  /// parse() would (same grammar, numbers, kMaxDepth and error text) but
  /// never built, so this accepts and rejects exactly what parse() does.
  static Json parse_fields(const std::string& text,
                           std::initializer_list<std::string_view> keys);

 private:
  friend class JsonParser;
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  void dump_to(std::string& out, int indent, int depth) const;
  const Json* find(const std::string& key) const;

  std::variant<std::monostate, bool, double, std::string, Array, Object>
      value_;
};

/// Appends a number / a string exactly as dump() writes that value, for
/// writers that stream JSON text without building a DOM.
void json_append_number(std::string& out, double value);
void json_append_string(std::string& out, std::string_view value);

/// Reads a whole file into a Json value (throws Error on I/O failure).
Json json_from_file(const std::string& path);

/// Writes a Json value to a file, pretty-printed.
void json_to_file(const Json& value, const std::string& path);

}  // namespace pimcomp

#endif  // PIMCOMP_COMMON_JSON_HPP
