#pragma once
/// \file cli.hpp
/// The one command-line parser of every voprof binary. A command
/// declares its flags (FlagSpec) and how many operands it takes;
/// CliArgs::parse turns the tokens after the program (and command)
/// name into strict, typed flags or a kValidation error naming the
/// offending token. No external dependencies.

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "voprof/util/result.hpp"

namespace voprof::util {

/// One flag a command accepts.
struct FlagSpec {
  enum class Kind {
    kText,     ///< --name VALUE, any string
    kNumber,   ///< --name VALUE, parsed by util::parse_double
    kInteger,  ///< --name VALUE, a number that fits util::exact_int
    kSwitch,   ///< --name, takes no value
  };
  std::string name;  ///< spelling without the leading --
  Kind kind = Kind::kText;
  bool required = false;  ///< parse() rejects a command line without it
  std::vector<std::string> choices{};  ///< if any, the only values accepted
};

class CliArgs {
 public:
  /// Parse `tokens` against the declared `flags`: every `--name` must
  /// be declared, every non-switch flag needs a value (a token that
  /// does not start with --), numeric values must parse as their
  /// kind, exactly `operands` bare tokens must appear, then required
  /// flags must be present and values among their flag's choices. The
  /// first violation is an Errc::kValidation error naming the token or
  /// flag; an unknown flag's error lists the valid ones.
  [[nodiscard]] static Result<CliArgs> parse(
      const std::vector<std::string>& tokens,
      const std::vector<FlagSpec>& flags, std::size_t operands = 0);

  /// The bare tokens, in command-line order.
  [[nodiscard]] const std::vector<std::string>& operands() const noexcept {
    return operands_;
  }
  [[nodiscard]] bool has(const std::string& name) const noexcept;

  /// Value of --name; a precondition: declare the flag required.
  [[nodiscard]] const std::string& get(const std::string& name) const;
  [[nodiscard]] std::string get_or(const std::string& name,
                                   const std::string& fallback) const;
  /// Typed values. parse() has already checked the flags declared as
  /// kNumber/kInteger, so these throw only on a flag of another kind.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] int get_int(const std::string& name, int fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name) const noexcept;

 private:
  std::vector<std::string> operands_;
  std::map<std::string, std::string> values_;
  std::set<std::string> switches_;
};

}  // namespace voprof::util
