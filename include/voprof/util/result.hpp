#pragma once
/// \file result.hpp
/// The single error-reporting vocabulary of the public loader APIs.
///
/// Before PR 5 the loaders reported failure three different ways:
/// bool returns (util::parse_double), exceptions (ContractViolation
/// from VOPROF_REQUIRE) and ad-hoc sentinel values. Consumers that
/// want to *handle* errors — the voprofd request handlers must turn a
/// malformed scenario into a structured `bad_request` response, not a
/// stack unwind — need the error as a value. Result<T> carries either
/// the parsed value or an Error with a machine-readable code, a
/// human-readable message and a `file:line`-style context telling the
/// caller where the problem was detected.
///
/// Convention: `*_result` functions are the loader API and never throw
/// on input errors. A caller that wants an exception unwraps with
/// `value_or_throw()`; there are no separate throwing loaders, except
/// ScenarioSpec::parse|load, which the end-to-end benchmark driver
/// (e2e/bench) calls.

#include <optional>
#include <string>
#include <utility>

#include "voprof/util/assert.hpp"

namespace voprof::util {

/// Machine-readable error category, stable across releases (the serve
/// layer maps these onto voprof-api-1 error codes).
enum class Errc {
  kParse,       ///< malformed input text (INI/CSV/JSON/model file)
  kValidation,  ///< well-formed but semantically invalid
  kIo,          ///< file missing/unreadable/unwritable
  kUnsupported, ///< version/feature not supported
  kInternal,    ///< invariant failure inside the library
};

/// Stable lower-case name of an error code ("parse", "validation"...).
[[nodiscard]] const char* errc_name(Errc code) noexcept;

/// A failed operation: what kind of failure, what happened, where.
struct Error {
  Errc code = Errc::kInternal;
  std::string message;
  /// Where the error was detected: a source position of the offending
  /// input ("scenario.conf:12", "[vm web]") or the library call site.
  std::string context;

  /// "parse error: expected 'key = value' (at scenario.conf:12)"
  [[nodiscard]] std::string to_string() const;
};

/// Either a T or an Error. Intentionally minimal: no monadic
/// combinators, just checked access and one bridge to the exception
/// world.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(*-explicit-*)
  Result(Error error) : error_(std::move(error)) {}  // NOLINT(*-explicit-*)

  [[nodiscard]] bool ok() const noexcept { return value_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }

  /// The value; calling on an error is a contract violation.
  [[nodiscard]] const T& value() const& {
    VOPROF_REQUIRE_MSG(ok(), "Result::value() on error: " + error_.to_string());
    return *value_;
  }
  [[nodiscard]] T& value() & {
    VOPROF_REQUIRE_MSG(ok(), "Result::value() on error: " + error_.to_string());
    return *value_;
  }
  [[nodiscard]] T&& take() && {
    VOPROF_REQUIRE_MSG(ok(), "Result::take() on error: " + error_.to_string());
    return std::move(*value_);
  }

  /// The error; calling on a success is a contract violation.
  [[nodiscard]] const Error& error() const {
    VOPROF_REQUIRE_MSG(!ok(), "Result::error() on success");
    return error_;
  }

  /// Bridge for throwing callers: unwrap or throw ContractViolation
  /// carrying Error::to_string() (the historical exception type, so
  /// callers that caught ContractViolation keep working).
  [[nodiscard]] T value_or_throw() && {
    if (!ok()) throw ContractViolation(error_.to_string());
    return std::move(*value_);
  }

 private:
  std::optional<T> value_;
  Error error_;
};

}  // namespace voprof::util

/// Build an Error whose context is the current library source line —
/// for failures with no better input position to point at.
#define VOPROF_ERROR_HERE(code, msg)                              \
  ::voprof::util::Error {                                         \
    (code), (msg), std::string(__FILE__) + ":" + std::to_string(__LINE__) \
  }
