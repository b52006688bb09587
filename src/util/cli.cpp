#include "voprof/util/cli.hpp"

#include <algorithm>
#include <optional>
#include <string_view>

#include "voprof/util/assert.hpp"
#include "voprof/util/numeric.hpp"

namespace voprof::util {

namespace {

using Kind = FlagSpec::Kind;
using Bound = FlagSpec::Bound;

Error invalid(std::string message) {
  return Error{Errc::kValidation, std::move(message), {}};
}

bool is_flag(const std::string& token) { return token.rfind("--", 0) == 0; }

/// How the errors of one input surface name a key: "flag --jobs",
/// "key 'cpu'", "param 'vms'" (`spelled` alone: --jobs, 'cpu').
std::string spelled(std::string_view noun, std::string_view name) {
  return noun == "flag" ? "--" + std::string(name)
                        : "'" + std::string(name) + "'";
}
std::string named(const char* noun, std::string_view name) {
  return noun + (' ' + spelled(noun, name));
}

/// The declared key `name`, or the error listing the valid ones.
Result<const FlagSpec*> find_key(const std::vector<FlagSpec>& keys,
                                 std::string_view name, const char* noun) {
  for (const FlagSpec& f : keys) {
    if (f.name == name) return &f;
  }
  std::string valid;
  for (const FlagSpec& f : keys) {
    valid += (valid.empty() ? "" : ", ") + spelled(noun, f.name);
  }
  return invalid("unknown " + named(noun, name) + " (valid: " +
                 (valid.empty() ? "none" : valid) + ")");
}

/// Check one value against its declaration: `json` when the input is
/// typed (request params), else `text` (command line, INI).
std::optional<Error> check_value(const FlagSpec& spec, const Json* json,
                                 std::string_view text, const char* noun,
                                 double& number) {
  const auto bad = [&](const std::string& what) {
    return invalid(named(noun, spec.name) + ' ' + what);
  };
  if (spec.kind == Kind::kSwitch) {
    if (json != nullptr && !json->is_bool()) return bad("must be a boolean");
    return std::nullopt;
  }
  if (spec.kind == Kind::kObject) {
    if (json == nullptr || !json->is_object()) return bad("must be an object");
    return std::nullopt;
  }
  if (spec.kind == Kind::kText) {
    if (json != nullptr && !json->is_string()) return bad("must be a string");
    const std::string_view value = json != nullptr ? json->as_string() : text;
    if (!spec.choices.empty() &&
        std::count(spec.choices.begin(), spec.choices.end(), value) == 0) {
      return bad("does not accept '" + std::string(value) + "'");
    }
    return std::nullopt;
  }
  const std::string want =
      spec.kind == Kind::kInteger ? "an integer" : "a number";
  const bool parsed = json != nullptr ? json->is_number()
                                      : parse_double(text, number);
  if (json != nullptr && parsed) number = json->as_number();
  int integer = 0;
  if (!parsed || (spec.kind == Kind::kInteger && !exact_int(number, integer))) {
    return bad(json != nullptr
                   ? "must be " + want
                   : "is not " + want + ": '" + std::string(text) + "'");
  }
  if (spec.bound == Bound::kNonNegative && !(number >= 0.0)) {
    return bad("must be >= 0, got " + format_double(number));
  }
  if (spec.bound == Bound::kPositive && !(number > 0.0)) {
    return bad("must be > 0, got " + format_double(number));
  }
  return std::nullopt;
}

/// The error for the first required key that `has` does not find.
template <typename Has>
std::optional<Error> missing(const std::vector<FlagSpec>& keys,
                             const char* noun, Has has) {
  for (const FlagSpec& f : keys) {
    if (f.required && !has(f.name)) {
      return invalid("missing required " + named(noun, f.name));
    }
  }
  return std::nullopt;
}

}  // namespace

Result<CliArgs> CliArgs::parse(const std::vector<std::string>& tokens,
                               const std::vector<FlagSpec>& flags,
                               std::size_t operands) {
  std::vector<std::string> bare;
  std::vector<std::pair<std::string, std::string>> entries;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (!is_flag(token)) {
      if (bare.size() == operands) {
        return invalid("unexpected argument '" + token + "'");
      }
      bare.push_back(token);
      continue;
    }
    const std::string name = token.substr(2);
    const Result<const FlagSpec*> spec = find_key(flags, name, "flag");
    if (!spec.ok()) return spec.error();
    if (spec.value()->kind == Kind::kSwitch) {
      entries.emplace_back(name, "");
    } else if (i + 1 == tokens.size() || is_flag(tokens[i + 1])) {
      return invalid("flag " + token + " needs a value");
    } else {
      entries.emplace_back(name, tokens[++i]);
    }
  }
  if (bare.size() < operands) {
    return invalid("expected " + std::to_string(operands) +
                   " argument(s), got " + std::to_string(bare.size()));
  }
  Result<CliArgs> out = check(entries, flags, "flag");
  if (out.ok()) out.value().operands_ = std::move(bare);
  return out;
}

Result<CliArgs> CliArgs::check(
    const std::vector<std::pair<std::string, std::string>>& entries,
    const std::vector<FlagSpec>& keys, const char* noun) {
  CliArgs out;
  for (const auto& [name, text] : entries) {
    const Result<const FlagSpec*> spec = find_key(keys, name, noun);
    if (!spec.ok()) return spec.error();
    double number = 0.0;
    if (auto err = check_value(*spec.value(), nullptr, text, noun, number)) {
      return *std::move(err);
    }
    out.values_[name] = Value{text, spec.value()->kind, number};
  }
  if (auto err = missing(keys, noun,
                         [&out](const std::string& n) { return out.has(n); })) {
    return *std::move(err);
  }
  return out;
}

Result<bool> check_params(const Json& params,
                          const std::vector<FlagSpec>& keys,
                          const char* noun) {
  static const Json::Object kNoMembers;
  for (const auto& [name, value] :
       params.is_object() ? params.as_object() : kNoMembers) {
    const Result<const FlagSpec*> spec = find_key(keys, name, noun);
    if (!spec.ok()) return spec.error();
    double number = 0.0;
    if (auto err = check_value(*spec.value(), &value, {}, noun, number)) {
      return *std::move(err);
    }
  }
  if (auto err = missing(keys, noun, [&params](const std::string& n) {
        return params.find(n) != nullptr;
      })) {
    return *std::move(err);
  }
  return true;
}

bool CliArgs::has(const std::string& name) const noexcept {
  return values_.count(name) > 0;
}

const std::string& CliArgs::get(const std::string& name) const {
  const auto it = values_.find(name);
  VOPROF_REQUIRE_MSG(it != values_.end(), "missing required flag --" + name);
  return it->second.text;
}

std::string CliArgs::get_or(const std::string& name,
                            const std::string& fallback) const {
  const auto it = values_.find(name);
  return it != values_.end() ? it->second.text : fallback;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  VOPROF_REQUIRE_MSG(it->second.kind != Kind::kText,
                     "--" + name + " is not declared numeric");
  return it->second.number;
}

int CliArgs::get_int(const std::string& name, int fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  VOPROF_REQUIRE_MSG(it->second.kind == Kind::kInteger,
                     "--" + name + " is not declared an integer");
  return static_cast<int>(it->second.number);
}

}  // namespace voprof::util
