#pragma once
/// \file cli.hpp
/// The one declaration of a typed key (FlagSpec) and the one check of
/// key = value input against a table of them, behind every command
/// line (CliArgs::parse), scenario INI section (CliArgs::check) and
/// voprofd request's params (check_params): an undeclared key, a value
/// of the wrong kind, outside the key's choices or below its bound, or
/// a missing required key is an Errc::kValidation error naming the key.

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "voprof/util/json.hpp"
#include "voprof/util/result.hpp"

namespace voprof::util {

/// One key an input accepts: a command's flag, a scenario section's
/// key or a request's param.
struct FlagSpec {
  enum class Kind {
    kText,     ///< any string
    kNumber,   ///< a finite number (util::parse_double, or a JSON number)
    kInteger,  ///< a number that fits util::exact_int
    kSwitch,   ///< --name, takes no value (a JSON boolean in params)
    kObject,   ///< a JSON object (a request envelope's params)
  };
  /// The least value a kNumber or kInteger key accepts.
  enum class Bound {
    kNone,
    kNonNegative,  ///< >= 0
    kPositive,     ///< > 0
  };
  std::string name;  ///< spelling (without the leading -- of a flag)
  Kind kind = Kind::kText;
  Bound bound = Bound::kNone;
  bool required = false;  ///< the check rejects input without it
  std::vector<std::string> choices{};  ///< if any, the only values accepted
};

class CliArgs {
 public:
  /// Tokenise `tokens` (every `--name` declared, a value after each
  /// non-switch flag, exactly `operands` bare tokens), then check the
  /// values against `flags`. The first violation is the error, naming
  /// the token or flag; an unknown flag's error lists the valid ones.
  [[nodiscard]] static Result<CliArgs> parse(
      const std::vector<std::string>& tokens,
      const std::vector<FlagSpec>& flags, std::size_t operands = 0);

  /// The same check over `key = value` entries (an INI section; the
  /// last of a repeated key wins); errors call a key a `noun`.
  [[nodiscard]] static Result<CliArgs> check(
      const std::vector<std::pair<std::string, std::string>>& entries,
      const std::vector<FlagSpec>& keys, const char* noun = "key");

  /// The bare tokens, in command-line order.
  [[nodiscard]] const std::vector<std::string>& operands() const noexcept {
    return operands_;
  }
  [[nodiscard]] bool has(const std::string& name) const noexcept;

  /// Value of --name; a precondition: declare the flag required.
  [[nodiscard]] const std::string& get(const std::string& name) const;
  [[nodiscard]] std::string get_or(const std::string& name,
                                   const std::string& fallback) const;
  /// Typed values, checked already: reading a kNumber or kInteger flag
  /// (get_int: kInteger) cannot fail; another kind is a precondition.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] int get_int(const std::string& name, int fallback) const;

 private:
  struct Value {
    std::string text;
    FlagSpec::Kind kind = FlagSpec::Kind::kText;
    double number = 0.0;  ///< for kNumber and kInteger
  };

  std::vector<std::string> operands_;
  std::map<std::string, Value> values_;  ///< switches too, with no text
};

/// The same check over a JSON object's members (a request's params),
/// each typed by its JSON type (number, string, boolean for a switch).
/// Allocates nothing unless it fails; afterwards Json::number_or and
/// Json::string_or read a declared key without fail.
[[nodiscard]] Result<bool> check_params(const Json& params,
                                        const std::vector<FlagSpec>& keys,
                                        const char* noun = "param");

}  // namespace voprof::util
