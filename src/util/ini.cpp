#include "voprof/util/ini.hpp"

#include <sstream>

namespace voprof::util {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return {};
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

Result<std::vector<IniSection>> parse_ini(const std::string& text) {
  const auto fail = [](int line_no, const std::string& msg) {
    return Error{Errc::kParse, msg, "line " + std::to_string(line_no)};
  };
  std::vector<IniSection> sections;
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
      sections.push_back(std::move(section));
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      return fail(line_no, "expected 'key = value', got: '" + raw + "'");
    }
    if (sections.empty()) {
      return fail(line_no, "key before any section");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      return fail(line_no, "empty key");
    }
    sections.back().entries.emplace_back(key, value);
  }
  return sections;
}

}  // namespace voprof::util
