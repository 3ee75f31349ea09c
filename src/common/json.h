// Minimal JSON value model: fuzzer artifacts, bench reports, metrics.
//
// Counterexample artifacts (scenario + verdict + replay digest), bench JSON
// reports and metrics snapshots must be plain JSON so humans, CI and
// `co_fuzz --replay` can all consume them. The project takes no JSON
// dependency, so this is a small, strict, self-contained reader/writer:
//   * integers round-trip exactly (seeds and digests are full uint64s);
//   * objects keep sorted key order, so dumps are byte-stable;
//   * parse errors throw std::runtime_error with an offset.
// It is not a general-purpose library: no \uXXXX surrogate pairs, no
// scientific-notation emission, inputs are trusted-ish artifact files.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace co {

class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : v_(nullptr) {}
  Json(std::nullptr_t) : v_(nullptr) {}
  Json(bool b) : v_(b) {}
  Json(std::uint64_t u) : v_(u) {}
  Json(std::int64_t i) : v_(i) {}
  Json(int i) : v_(static_cast<std::int64_t>(i)) {}
  Json(double d) : v_(d) {}
  Json(const char* s) : v_(std::string(s)) {}
  Json(std::string s) : v_(std::move(s)) {}
  Json(Array a) : v_(std::move(a)) {}
  Json(Object o) : v_(std::move(o)) {}

  /// Parse a complete JSON document (throws std::runtime_error).
  static Json parse(std::string_view text);

  /// Serialize; `indent` > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_number() const {
    return std::holds_alternative<std::uint64_t>(v_) ||
           std::holds_alternative<std::int64_t>(v_) ||
           std::holds_alternative<double>(v_);
  }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  bool as_bool() const;
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
  double as_double() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member access; throws std::runtime_error when absent.
  const Json& at(const std::string& key) const;
  /// True when this is an object containing `key`.
  bool has(const std::string& key) const;

  /// Exact textual form of a numeric value (integers verbatim, doubles at
  /// max_digits10). Used by dump(); throws when not a number.
  std::string dump_number() const;

 private:
  std::variant<std::nullptr_t, bool, std::uint64_t, std::int64_t, double,
               std::string, Array, Object>
      v_;
};

}  // namespace co
