#pragma once
/// \file json.hpp
/// Minimal JSON document model, parser and writer.
///
/// The benchmark harness (bench/harness.hpp) emits machine-readable
/// BENCH_<name>.json files and `voprofctl bench-diff` reads them back
/// to gate CI on perf regressions; both sides share this module so the
/// schema has exactly one serialization. Scope is deliberately small:
/// the full JSON value grammar, UTF-8 passed through verbatim, objects
/// preserving insertion order (so emitted documents are byte-stable),
/// and numbers printed with util::format_double (shortest round-trip,
/// locale-independent).

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "voprof/util/result.hpp"

namespace voprof::util {

/// One JSON value (null, bool, number, string, array or object).
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  /// Insertion-ordered key/value list (no duplicate keys: set() and the
  /// parser overwrite a repeated key's value in its first position).
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;  // null
  Json(std::nullptr_t) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double v) : type_(Type::kNumber), num_(v) {}
  Json(int v) : type_(Type::kNumber), num_(v) {}
  Json(long v) : type_(Type::kNumber), num_(static_cast<double>(v)) {}
  Json(unsigned long v) : type_(Type::kNumber), num_(static_cast<double>(v)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  Json(Array a) : type_(Type::kArray), arr_(std::move(a)) {}
  Json(Object o) : type_(Type::kObject), obj_(std::move(o)) {}

  [[nodiscard]] static Json array() { return Json(Array{}); }
  [[nodiscard]] static Json object() { return Json(Object{}); }

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }

  /// Typed accessors; a type mismatch is a precondition failure, so
  /// code that reads input checks with is_*() first.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object lookup: nullptr when absent (or when not an object).
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;
  /// Object lookup; a missing key is a precondition failure.
  [[nodiscard]] const Json& at(std::string_view key) const;
  /// Member `key` of an object, or `fallback` when it is absent. A
  /// present member of another type is a precondition failure, so
  /// input is read this way only after util::check_params.
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string fallback) const;

  /// Append to an array value (value must be an array).
  void push_back(Json v);
  /// Insert or overwrite a key of an object value (must be an object).
  void set(std::string key, Json v);

  /// Serialize. indent <= 0 emits the compact one-line form; indent > 0
  /// pretty-prints with that many spaces per level. Output is
  /// deterministic: object keys keep insertion order and numbers use
  /// util::format_double.
  [[nodiscard]] std::string dump(int indent = 2) const;

  /// Deeper nesting is a parse error: it bounds the parser's stack.
  static constexpr int kMaxDepth = 256;

  /// Parse a complete JSON document. Trailing non-space input, nesting
  /// deeper than kMaxDepth or any grammar violation is an Errc::kParse
  /// error whose context is the byte offset ("byte 12").
  [[nodiscard]] static Result<Json> parse_result(std::string_view text);
  /// Read and parse a file: Errc::kIo when it cannot be opened,
  /// otherwise as parse_result, with the path in the error context.
  [[nodiscard]] static Result<Json> load_result(const std::string& path) {
    return load_file_result(path, parse_result);
  }
  /// parse_result, throwing ContractViolation (see result.hpp).
  [[nodiscard]] static Json parse(std::string_view text) {
    return parse_result(text).value_or_throw();
  }

 private:
  void write(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

}  // namespace voprof::util
