#pragma once
/// \file ini.hpp
/// Minimal INI-style configuration parser for the scenario runner:
/// ordered sections (`[kind name]` or `[kind]`), `key = value` pairs,
/// `#` comments. Section kinds may repeat (e.g. one `[vm ...]` section
/// per guest).

#include <optional>
#include <string>
#include <vector>

#include "voprof/util/result.hpp"

namespace voprof::util {

struct IniSection {
  std::string kind;  ///< first token of the header
  std::string name;  ///< rest of the header (may be empty)
  std::vector<std::pair<std::string, std::string>> entries;

  [[nodiscard]] bool has(const std::string& key) const noexcept;
  /// Last value for `key`, or nullopt.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_or(const std::string& key,
                                   const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] int get_int(const std::string& key, int fallback) const;
};

class IniDocument {
 public:
  /// Primary, non-throwing API: parse from text. Errors carry
  /// Errc::kParse and a "line N" context.
  [[nodiscard]] static Result<IniDocument> parse_result(
      const std::string& text);
  /// Read + parse a file; I/O failures carry Errc::kIo and parse
  /// errors get the path prefixed to their context ("path:line N").
  [[nodiscard]] static Result<IniDocument> load_result(
      const std::string& path);

  [[nodiscard]] const std::vector<IniSection>& sections() const noexcept {
    return sections_;
  }
  /// All sections of a kind, in file order.
  [[nodiscard]] std::vector<const IniSection*> of_kind(
      const std::string& kind) const;
  /// The unique section of a kind; throws if absent or duplicated.
  [[nodiscard]] const IniSection& unique(const std::string& kind) const;
  [[nodiscard]] bool has_kind(const std::string& kind) const noexcept;

 private:
  std::vector<IniSection> sections_;
};

}  // namespace voprof::util
