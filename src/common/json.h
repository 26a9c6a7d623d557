#ifndef SAMYA_COMMON_JSON_H_
#define SAMYA_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"

namespace samya {

/// \brief Minimal JSON document model for serializing fault schedules,
/// chaos-corpus cases, and bench reports without external dependencies.
///
/// Design points:
///  - Objects preserve insertion order (a `vector` of key/value pairs), so
///    dumped corpus files diff cleanly and round-trip byte-identically.
///  - Integers are kept distinct from doubles: `SimTime` values are int64
///    microseconds and must survive a round trip exactly.
///  - No exceptions: `JsonParse` returns `Result<JsonValue>`; accessors on
///    the wrong type abort (programmer error), with `is_*` / `Find` for the
///    fallible paths.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : v_(nullptr) {}  // null
  /* implicit */ JsonValue(std::nullptr_t) : v_(nullptr) {}        // NOLINT
  /* implicit */ JsonValue(bool b) : v_(b) {}                      // NOLINT
  /* implicit */ JsonValue(int i) : v_(static_cast<int64_t>(i)) {} // NOLINT
  /* implicit */ JsonValue(int64_t i) : v_(i) {}                   // NOLINT
  /* implicit */ JsonValue(uint64_t i)                             // NOLINT
      : v_(static_cast<int64_t>(i)) {}
  /* implicit */ JsonValue(double d) : v_(d) {}                    // NOLINT
  /* implicit */ JsonValue(const char* s) : v_(std::string(s)) {}  // NOLINT
  /* implicit */ JsonValue(std::string s) : v_(std::move(s)) {}    // NOLINT
  /* implicit */ JsonValue(Array a) : v_(std::move(a)) {}          // NOLINT

  static JsonValue MakeObject() {
    JsonValue v;
    v.v_ = Object{};
    return v;
  }
  static JsonValue MakeArray() {
    JsonValue v;
    v.v_ = Array{};
    return v;
  }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  bool as_bool() const { return std::get<bool>(v_); }
  int64_t as_int() const { return std::get<int64_t>(v_); }
  /// Numeric value as double; accepts both int and double storage.
  double as_double() const {
    if (is_int()) return static_cast<double>(std::get<int64_t>(v_));
    return std::get<double>(v_);
  }
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const Array& as_array() const { return std::get<Array>(v_); }
  Array& as_array() { return std::get<Array>(v_); }
  const Object& as_object() const { return std::get<Object>(v_); }
  Object& as_object() { return std::get<Object>(v_); }

  // Append and Set build the element in place from any value a JsonValue
  // converts from. Taking a JsonValue by value instead moves a temporary
  // variant, which GCC 12 flags as -Wmaybe-uninitialized wherever it
  // inlines the move.

  /// Appends to an array value.
  template <typename T>
  void Append(T&& v) {
    as_array().emplace_back(std::forward<T>(v));
  }

  /// Sets `key` in an object value (appends; does not dedupe).
  template <typename T>
  void Set(std::string key, T&& v) {
    as_object().emplace_back(std::move(key), std::forward<T>(v));
  }

  /// Finds `key` in an object value; nullptr when absent (or not an object).
  const JsonValue* Find(std::string_view key) const;

  /// Convenience typed getters with defaults, for tolerant corpus loading.
  int64_t GetInt(std::string_view key, int64_t fallback) const;
  double GetDouble(std::string_view key, double fallback) const;
  std::string GetString(std::string_view key, std::string fallback) const;
  bool GetBool(std::string_view key, bool fallback) const;

  bool operator==(const JsonValue& o) const { return v_ == o.v_; }
  bool operator!=(const JsonValue& o) const { return !(v_ == o.v_); }

 private:
  std::variant<std::nullptr_t, bool, int64_t, double, std::string, Array,
               Object>
      v_;
};

/// Parses a JSON document. Strict-ish RFC 8259: no comments, no trailing
/// commas; `\uXXXX` escapes are decoded to UTF-8 (surrogate pairs included).
Result<JsonValue> JsonParse(std::string_view text);

/// Serializes a document. `indent` 0 emits a compact single line; > 0
/// pretty-prints with that many spaces per level (corpus files use 2).
std::string JsonDump(const JsonValue& v, int indent = 0);

}  // namespace samya

#endif  // SAMYA_COMMON_JSON_H_
