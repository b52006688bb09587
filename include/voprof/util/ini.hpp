#pragma once
/// \file ini.hpp
/// Minimal INI-style configuration parser for the scenario runner:
/// ordered sections (`[kind name]` or `[kind]`), `key = value` pairs,
/// `#` comments. Section kinds may repeat (e.g. one `[vm ...]` section
/// per guest).

#include <string>
#include <utility>
#include <vector>

#include "voprof/util/result.hpp"

namespace voprof::util {

/// One `[kind name]` section and its entries in file order. Its values
/// are read through util::CliArgs::check against the keys the section
/// kind declares.
struct IniSection {
  std::string kind;  ///< first token of the header
  std::string name;  ///< rest of the header (may be empty)
  std::vector<std::pair<std::string, std::string>> entries;
};

/// Parse INI text into its sections, in file order. Errors carry
/// Errc::kParse and a "line N" context.
[[nodiscard]] Result<std::vector<IniSection>> parse_ini(
    const std::string& text);

}  // namespace voprof::util
