#include "voprof/util/cli.hpp"

#include <algorithm>

#include "voprof/util/assert.hpp"
#include "voprof/util/numeric.hpp"

namespace voprof::util {

namespace {

Error invalid(std::string message) {
  return Error{Errc::kValidation, std::move(message), {}};
}

bool is_flag(const std::string& token) { return token.rfind("--", 0) == 0; }

}  // namespace

Result<CliArgs> CliArgs::parse(const std::vector<std::string>& tokens,
                               const std::vector<FlagSpec>& flags,
                               std::size_t operands) {
  CliArgs out;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (!is_flag(token)) {
      if (out.operands_.size() == operands) {
        return invalid("unexpected argument '" + token + "'");
      }
      out.operands_.push_back(token);
      continue;
    }
    const std::string name = token.substr(2);
    const auto spec =
        std::find_if(flags.begin(), flags.end(),
                     [&name](const FlagSpec& f) { return f.name == name; });
    if (spec == flags.end()) {
      std::string valid;
      for (const FlagSpec& f : flags) {
        valid += (valid.empty() ? "--" : ", --") + f.name;
      }
      return invalid("unknown flag " + token + " (valid: " +
                     (valid.empty() ? "none" : valid) + ")");
    }
    if (spec->kind == FlagSpec::Kind::kSwitch) {
      out.switches_.insert(name);
      continue;
    }
    if (i + 1 == tokens.size() || is_flag(tokens[i + 1])) {
      return invalid("flag " + token + " needs a value");
    }
    const std::string& value = tokens[++i];
    double number = 0.0;
    int integer = 0;
    if (spec->kind == FlagSpec::Kind::kNumber &&
        !parse_double(value, number)) {
      return invalid("flag " + token + " is not a number: '" + value + "'");
    }
    if (spec->kind == FlagSpec::Kind::kInteger &&
        !(parse_double(value, number) && exact_int(number, integer))) {
      return invalid("flag " + token + " is not an integer: '" + value +
                     "'");
    }
    out.values_[name] = value;
  }
  if (out.operands_.size() < operands) {
    return invalid("expected " + std::to_string(operands) +
                   " argument(s), got " +
                   std::to_string(out.operands_.size()));
  }
  return out;
}

bool CliArgs::has(const std::string& name) const noexcept {
  return values_.count(name) > 0 || switches_.count(name) > 0;
}

const std::string& CliArgs::get(const std::string& name) const {
  const auto it = values_.find(name);
  VOPROF_REQUIRE_MSG(it != values_.end(), "missing required flag --" + name);
  return it->second;
}

std::string CliArgs::get_or(const std::string& name,
                            const std::string& fallback) const {
  const auto it = values_.find(name);
  return it != values_.end() ? it->second : fallback;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  double v = 0.0;
  VOPROF_REQUIRE_MSG(parse_double(it->second, v),
                     "flag --" + name + " is not a number: '" + it->second +
                         "'");
  return v;
}

int CliArgs::get_int(const std::string& name, int fallback) const {
  const double v = get_double(name, static_cast<double>(fallback));
  int i = 0;
  VOPROF_REQUIRE_MSG(exact_int(v, i), "flag --" + name + " must be an integer");
  return i;
}

bool CliArgs::get_bool(const std::string& name) const noexcept {
  return switches_.count(name) > 0;
}

}  // namespace voprof::util
