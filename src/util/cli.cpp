#include "voprof/util/cli.hpp"

#include <algorithm>

#include "voprof/util/assert.hpp"
#include "voprof/util/numeric.hpp"

namespace voprof::util {

CliArgs CliArgs::parse(int argc, const char* const* argv,
                       const std::vector<std::string>& bool_flags) {
  CliArgs out;
  int i = 1;
  if (i < argc && argv[i][0] != '-') {
    out.command_ = argv[i];
    ++i;
  }
  for (; i < argc; ++i) {
    const std::string token = argv[i];
    VOPROF_REQUIRE_MSG(token.rfind("--", 0) == 0,
                       "expected a --flag, got: " + token);
    const std::string name = token.substr(2);
    VOPROF_REQUIRE_MSG(!name.empty(), "empty flag name");
    if (std::find(bool_flags.begin(), bool_flags.end(), name) !=
        bool_flags.end()) {
      out.switches_[name] = true;
      continue;
    }
    VOPROF_REQUIRE_MSG(i + 1 < argc, "flag --" + name + " needs a value");
    out.values_[name] = argv[++i];
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
  if (!parse_double(it->second, v)) {
    throw ContractViolation("flag --" + name + " is not numeric: '" +
                            it->second + "'");
  }
  return v;
}

int CliArgs::get_int(const std::string& name, int fallback) const {
  const double v = get_double(name, static_cast<double>(fallback));
  int i = 0;
  VOPROF_REQUIRE_MSG(exact_int(v, i), "flag --" + name + " must be an integer");
  return i;
}

bool CliArgs::get_bool(const std::string& name) const noexcept {
  const auto it = switches_.find(name);
  return it != switches_.end() && it->second;
}

std::vector<std::string> CliArgs::flag_names() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : values_) out.push_back(k);
  for (const auto& [k, v] : switches_) out.push_back(k);
  return out;
}

}  // namespace voprof::util
