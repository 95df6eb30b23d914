#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <deque>
#include <fstream>
#include <iterator>
#include <sstream>

namespace pimcomp {

namespace {

[[noreturn]] void not_a(const char* what) {
  throw JsonError(std::string("json value is not ") + what);
}

}  // namespace

Json Json::array() {
  Json j;
  j.value_.emplace<Array>();
  return j;
}

Json Json::object() {
  Json j;
  j.value_.emplace<Object>();
  return j;
}

bool Json::as_bool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  not_a("a bool");
}

double Json::as_number() const {
  if (const double* d = std::get_if<double>(&value_)) return *d;
  not_a("a number");
}

std::int64_t Json::as_int() const {
  return static_cast<std::int64_t>(std::llround(as_number()));
}

const std::string& Json::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  not_a("a string");
}

std::size_t Json::size() const {
  if (const Array* array = std::get_if<Array>(&value_)) return array->size();
  if (const Object* object = std::get_if<Object>(&value_)) {
    return object->size();
  }
  throw JsonError("json value has no size");
}

const Json& Json::at(std::size_t index) const {
  const Array* array = std::get_if<Array>(&value_);
  if (array == nullptr) not_a("an array");
  if (index >= array->size()) throw JsonError("json array index out of range");
  return (*array)[index];
}

void Json::push_back(Json value) {
  Array* array = std::get_if<Array>(&value_);
  if (array == nullptr) not_a("an array");
  array->push_back(std::move(value));
}

const Json* Json::find(const std::string& key) const {
  if (const Object* object = std::get_if<Object>(&value_)) {
    for (const auto& [k, v] : *object) {
      if (k == key) return &v;
    }
  }
  return nullptr;
}

bool Json::contains(const std::string& key) const {
  return find(key) != nullptr;
}

const Json& Json::at(const std::string& key) const {
  if (!is_object()) not_a("an object");
  if (const Json* value = find(key)) return *value;
  throw JsonError("missing json key: " + key);
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_.emplace<Object>();
  Object* object = std::get_if<Object>(&value_);
  if (object == nullptr) not_a("an object");
  for (auto& [k, v] : *object) {
    if (k == key) return v;
  }
  object->emplace_back(key, Json());
  return object->back().second;
}

const std::vector<std::pair<std::string, Json>>& Json::items() const {
  if (const Object* object = std::get_if<Object>(&value_)) return *object;
  not_a("an object");
}

double Json::get(const std::string& key, double fallback) const {
  const Json* value = find(key);
  return value != nullptr ? value->as_number() : fallback;
}

std::int64_t Json::get(const std::string& key, std::int64_t fallback) const {
  const Json* value = find(key);
  return value != nullptr ? value->as_int() : fallback;
}

int Json::get(const std::string& key, int fallback) const {
  const Json* value = find(key);
  return value != nullptr ? static_cast<int>(value->as_int()) : fallback;
}

std::string Json::get(const std::string& key,
                      const std::string& fallback) const {
  const Json* value = find(key);
  return value != nullptr ? value->as_string() : fallback;
}

bool Json::get(const std::string& key, bool fallback) const {
  const Json* value = find(key);
  return value != nullptr ? value->as_bool() : fallback;
}

namespace {

void escape_string(std::string_view s, std::string& out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  std::size_t run = 0;  // start of the pending run of bytes copied verbatim
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        out += "\\u00";
        out.push_back(kHex[c >> 4]);
        out.push_back(kHex[c & 0xF]);
    }
  }
  out.append(s, run, std::string::npos);
  out.push_back('"');
}

// Integral values below 9e15 print as integers; everything else prints
// exactly as printf's "%.17g" would (std::to_chars's general format at a
// given precision is specified to match it, inf and nan included).
// The range test comes first, so the cast is defined and NaN/inf fall
// through; a value is integral when it survives the round trip through
// long long (-0 prints as 0).
void format_number(double d, std::string& out) {
  char buf[32];
  const bool integral = d > -9.0e15 && d < 9.0e15 &&
                        static_cast<double>(static_cast<long long>(d)) == d;
  const std::to_chars_result result =
      integral
          ? std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(d))
          : std::to_chars(buf, buf + sizeof(buf), d,
                          std::chars_format::general, 17);
  out.append(buf, result.ptr);
}

void newline(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void json_append_number(std::string& out, double value) {
  format_number(value, out);
}

void json_append_string(std::string& out, std::string_view value) {
  escape_string(value, out);
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type()) {
    case Type::kNull: out += "null"; break;
    case Type::kBool:
      out += *std::get_if<bool>(&value_) ? "true" : "false";
      break;
    case Type::kNumber:
      format_number(*std::get_if<double>(&value_), out);
      break;
    case Type::kString:
      escape_string(*std::get_if<std::string>(&value_), out);
      break;
    case Type::kArray: {
      const Array& array = *std::get_if<Array>(&value_);
      if (array.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline(out, indent, depth + 1);
        array[i].dump_to(out, indent, depth + 1);
      }
      newline(out, indent, depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      const Object& object = *std::get_if<Object>(&value_);
      if (object.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < object.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline(out, indent, depth + 1);
        escape_string(object[i].first, out);
        out += indent >= 0 ? ": " : ":";
        object[i].second.dump_to(out, indent, depth + 1);
      }
      newline(out, indent, depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

/// Recursive-descent parser writing each value straight into its final
/// slot. The elements of an open array or object collect in a scratch
/// buffer owned by its nesting depth (reused by every later container at
/// that depth) and move into an exactly-sized vector when it closes; the
/// buffers live in deques so growing a deeper level never moves a
/// shallower level's elements out from under the frame filling them.
///
/// Every parse_* takes its destination by pointer: null is discard mode,
/// which walks and validates the same grammar but builds nothing. That is
/// how parse_fields() skips the root members it was not asked for.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text)
      : begin_(text.data()), end_(text.data() + text.size()), p_(begin_) {}

  Json parse_document() {
    Json value;
    parse_value(&value, 0);
    finish();
    return value;
  }

  Json parse_fields(std::initializer_list<std::string_view> keys) {
    keep_ = &keys;
    skip_ws();
    Json fields;
    parse_value(peek() == '{' ? &fields : nullptr, 0);
    finish();
    return fields;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    std::size_t line = 1, col = 1;
    for (const char* c = begin_; c < p_; ++c) {
      if (*c == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    std::ostringstream oss;
    oss << "json parse error at line " << line << " col " << col << ": "
        << why;
    throw JsonError(oss.str());
  }

  void finish() {
    skip_ws();
    if (p_ != end_) fail("trailing characters after document");
  }

  // The C locale's isspace set, without the locale lookup.
  static bool is_space(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
           c == '\f';
  }

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  void skip_ws() {
    while (p_ != end_ && is_space(*p_)) ++p_;
  }

  char peek() const {
    if (p_ == end_) fail("unexpected end of input");
    return *p_;
  }

  char take() {
    const char c = peek();
    ++p_;
    return c;
  }

  void expect_char(char c) {
    if (take() != c) {
      --p_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void parse_value(Json* out, int depth) {
    skip_ws();
    switch (peek()) {
      case '{': parse_object(out, depth + 1); break;
      case '[': parse_array(out, depth + 1); break;
      case '"':
        parse_string(out != nullptr ? &out->value_.emplace<std::string>()
                                    : nullptr);
        break;
      case 't':
        expect_word("true");
        if (out != nullptr) out->value_.emplace<bool>(true);
        break;
      case 'f':
        expect_word("false");
        if (out != nullptr) out->value_.emplace<bool>(false);
        break;
      case 'n':
        expect_word("null");
        if (out != nullptr) out->value_.emplace<std::monostate>();
        break;
      default: {
        const double number = parse_number();
        if (out != nullptr) out->value_.emplace<double>(number);
      }
    }
  }

  void expect_word(const char* word) {
    for (const char* w = word; *w != '\0'; ++w) {
      if (p_ == end_ || *p_ != *w) fail("invalid literal");
      ++p_;
    }
  }

  void parse_string(std::string* out) {
    expect_char('"');
    for (;;) {
      const char* run = p_;
      while (p_ != end_ && *p_ != '"' && *p_ != '\\') ++p_;
      if (out != nullptr) out->append(run, p_);
      if (p_ == end_) fail("unterminated string");
      if (*p_++ == '"') return;
      const char esc = take();
      char decoded = 0;
      switch (esc) {
        case '"': decoded = '"'; break;
        case '\\': decoded = '\\'; break;
        case '/': decoded = '/'; break;
        case 'n': decoded = '\n'; break;
        case 't': decoded = '\t'; break;
        case 'r': decoded = '\r'; break;
        case 'b': decoded = '\b'; break;
        case 'f': decoded = '\f'; break;
        case 'u': append_unicode_escape(out); continue;
        default: fail("bad escape character");
      }
      if (out != nullptr) out->push_back(decoded);
    }
  }

  void append_unicode_escape(std::string* out) {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = take();
      code <<= 4;
      if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
      else fail("bad unicode escape");
    }
    if (out == nullptr) return;
    // Encode as UTF-8 (basic multilingual plane only).
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }
  // RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — and the
  // grammar must end the token: "1-2", "01", "1.5e" and "1e5.3" throw.
  double parse_number() {
    const char* start = p_;
    const auto digits = [this] {
      const char* first = p_;
      while (p_ != end_ && is_digit(*p_)) ++p_;
      return p_ != first;
    };
    const bool negative = p_ != end_ && *p_ == '-';
    if (negative) ++p_;
    const char* integer = p_;
    bool ok = true;
    if (p_ != end_ && *p_ == '0') {
      ++p_;
    } else {
      ok = digits();
    }
    const char* integer_end = p_;
    if (ok && p_ != end_ && *p_ == '.') {
      ++p_;
      ok = digits();
    }
    if (ok && p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      ok = digits();
    }
    if (ok && p_ != end_ &&
        (is_digit(*p_) || *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
         *p_ == '+' || *p_ == '-')) {
      ok = false;
    }
    if (ok && integer_end == p_ && p_ - integer <= 15) {
      // Plain integers (nearly every number we emit) below 10^15 are exact
      // in a double: accumulate them directly. -0 stays -0.0.
      std::int64_t magnitude = 0;
      for (const char* d = integer; d != p_; ++d) {
        magnitude = magnitude * 10 + (*d - '0');
      }
      const auto value = static_cast<double>(magnitude);
      return negative ? -value : value;
    }
    double value = 0.0;
    // Out-of-range magnitudes (1e400, or 1e-400 below the smallest
    // subnormal) throw; subnormals themselves parse.
    if (ok) ok = std::from_chars(start, p_, value).ec == std::errc();
    if (!ok) {
      p_ = start;
      fail("invalid number");
    }
    return value;
  }

  void enter(int depth) {
    if (depth > Json::kMaxDepth) {
      fail("nesting deeper than " + std::to_string(Json::kMaxDepth) +
           " levels");
    }
  }

  // The scratch buffer of nesting level `depth` (1-based).
  template <typename Buffer>
  static Buffer& level(std::deque<Buffer>& buffers, int depth) {
    while (buffers.size() < static_cast<std::size_t>(depth)) {
      buffers.emplace_back();
    }
    return buffers[static_cast<std::size_t>(depth) - 1];
  }

  void parse_array(Json* out, int depth) {
    enter(depth);
    expect_char('[');
    skip_ws();
    if (peek() == ']') {
      ++p_;
      if (out != nullptr) out->value_.emplace<Json::Array>();
      return;
    }
    Json::Array* elements =
        out != nullptr ? &level(array_scratch_, depth) : nullptr;
    for (;;) {
      parse_value(elements != nullptr ? &elements->emplace_back() : nullptr,
                  depth);
      skip_ws();
      const char c = take();
      if (c == ']') break;
      if (c != ',') {
        --p_;
        fail("expected ',' or ']'");
      }
    }
    if (elements == nullptr) return;
    out->value_.emplace<Json::Array>(
        std::make_move_iterator(elements->begin()),
        std::make_move_iterator(elements->end()));
    elements->clear();
  }

  // The root object of a parse_fields() keeps only the requested members.
  bool keeps(const std::string& key, int depth) const {
    if (keep_ == nullptr || depth != 1) return true;
    for (std::string_view wanted : *keep_) {
      if (wanted == key) return true;
    }
    return false;
  }

  void parse_object(Json* out, int depth) {
    enter(depth);
    expect_char('{');
    skip_ws();
    if (peek() == '}') {
      ++p_;
      if (out != nullptr) out->value_.emplace<Json::Object>();
      return;
    }
    Json::Object* members =
        out != nullptr ? &level(object_scratch_, depth) : nullptr;
    std::string key;
    for (;;) {
      skip_ws();
      key.clear();
      parse_string(members != nullptr ? &key : nullptr);
      skip_ws();
      expect_char(':');
      // A repeated key overwrites the earlier value in its first position,
      // as operator[] does.
      Json* slot = nullptr;
      if (members != nullptr && keeps(key, depth)) {
        for (auto& [k, v] : *members) {
          if (k == key) {
            slot = &v;
            break;
          }
        }
        if (slot == nullptr) slot = &members->emplace_back(key, Json()).second;
      }
      parse_value(slot, depth);
      skip_ws();
      const char c = take();
      if (c == '}') break;
      if (c != ',') {
        --p_;
        fail("expected ',' or '}'");
      }
    }
    if (members == nullptr) return;
    out->value_.emplace<Json::Object>(
        std::make_move_iterator(members->begin()),
        std::make_move_iterator(members->end()));
    members->clear();
  }

  const char* begin_;
  const char* end_;
  const char* p_;
  /// parse_fields(): the root members to build; null builds everything.
  const std::initializer_list<std::string_view>* keep_ = nullptr;
  std::deque<Json::Array> array_scratch_;    ///< [depth - 1]: open elements
  std::deque<Json::Object> object_scratch_;  ///< [depth - 1]: open members
};

Json Json::parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

Json Json::parse_fields(const std::string& text,
                        std::initializer_list<std::string_view> keys) {
  return JsonParser(text).parse_fields(keys);
}

Json json_from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open file for reading: " + path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return Json::parse(oss.str());
}

void json_to_file(const Json& value, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open file for writing: " + path);
  out << value.dump(2) << '\n';
}

}  // namespace pimcomp
