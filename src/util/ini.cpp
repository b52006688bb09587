#include "voprof/util/ini.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "voprof/util/assert.hpp"
#include "voprof/util/numeric.hpp"

namespace voprof::util {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return {};
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

bool IniSection::has(const std::string& key) const noexcept {
  return get(key).has_value();
}

std::optional<std::string> IniSection::get(const std::string& key) const {
  std::optional<std::string> out;
  for (const auto& [k, v] : entries) {
    if (k == key) out = v;
  }
  return out;
}

std::string IniSection::get_or(const std::string& key,
                               const std::string& fallback) const {
  return get(key).value_or(fallback);
}

double IniSection::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v.has_value()) return fallback;
  double out = 0.0;
  if (!parse_double(*v, out)) {
    throw ContractViolation("[" + kind + " " + name + "] " + key +
                            " is not numeric: '" + *v + "'");
  }
  return out;
}

int IniSection::get_int(const std::string& key, int fallback) const {
  const double v = get_double(key, static_cast<double>(fallback));
  int i = 0;
  VOPROF_REQUIRE_MSG(exact_int(v, i),
                     "[" + kind + "] " + key + " must be an integer");
  return i;
}

Result<IniDocument> IniDocument::parse_result(const std::string& text) {
  const auto fail = [](int line_no, const std::string& msg) {
    return Error{Errc::kParse, msg, "line " + std::to_string(line_no)};
  };
  IniDocument doc;
  std::istringstream is(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(is, raw)) {
    ++line_no;
    std::string line = raw;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        return fail(line_no, "unterminated section header");
      }
      const std::string header = trim(line.substr(1, line.size() - 2));
      if (header.empty()) {
        return fail(line_no, "empty section header");
      }
      IniSection section;
      const auto space = header.find_first_of(" \t");
      if (space == std::string::npos) {
        section.kind = header;
      } else {
        section.kind = header.substr(0, space);
        section.name = trim(header.substr(space + 1));
      }
      doc.sections_.push_back(std::move(section));
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      return fail(line_no, "expected 'key = value', got: '" + raw + "'");
    }
    if (doc.sections_.empty()) {
      return fail(line_no, "key before any section");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      return fail(line_no, "empty key");
    }
    doc.sections_.back().entries.emplace_back(key, value);
  }
  return doc;
}

Result<IniDocument> IniDocument::load_result(const std::string& path) {
  std::ifstream f(path);
  if (!f.good()) {
    return Error{Errc::kIo, "cannot open config", path};
  }
  std::ostringstream os;
  os << f.rdbuf();
  Result<IniDocument> parsed = parse_result(os.str());
  if (!parsed.ok()) {
    Error err = parsed.error();
    err.context = path + ":" + err.context;
    return err;
  }
  return parsed;
}

std::vector<const IniSection*> IniDocument::of_kind(
    const std::string& kind) const {
  std::vector<const IniSection*> out;
  for (const auto& s : sections_) {
    if (s.kind == kind) out.push_back(&s);
  }
  return out;
}

const IniSection& IniDocument::unique(const std::string& kind) const {
  const auto all = of_kind(kind);
  VOPROF_REQUIRE_MSG(all.size() == 1, "expected exactly one [" + kind +
                                          "] section, found " +
                                          std::to_string(all.size()));
  return *all.front();
}

bool IniDocument::has_kind(const std::string& kind) const noexcept {
  return !of_kind(kind).empty();
}

}  // namespace voprof::util
