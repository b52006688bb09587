#pragma once
/// \file ctl_flags.hpp
/// The one flag table of the voprof command-line surface. Every
/// voprofctl command (and voprofd, which is `voprofctl serve` in a
/// dedicated binary) declares here its flags, its operand count and
/// the usage text that documents them, so:
///  * util::CliArgs::parse rejects anything a command does not declare;
///  * the cross-cutting flags keep one spelling everywhere: `--jobs`,
///    `--seed`, `--format csv|json`, `--trace-out FILE`;
///  * tests/test_ctl_flags.cpp checks that every declared flag is in
///    its command's usage text.

#include <cstddef>
#include <string>
#include <vector>

#include "voprof/util/cli.hpp"

namespace voprof::tools {

/// One voprofctl command.
struct CommandEntry {
  std::string name;
  std::vector<util::FlagSpec> flags;
  std::string usage;  ///< this command's lines of the voprofctl usage
  std::size_t operands = 0;
};

/// Every voprofctl command, in usage order.
[[nodiscard]] const std::vector<CommandEntry>& command_table();

/// The entry named `name`; nullptr when there is none.
[[nodiscard]] const CommandEntry* find_command(const std::string& name);

/// voprofctl's usage: a header, every entry's usage, a footer.
[[nodiscard]] std::string voprofctl_usage();

/// voprofd's usage; it accepts the `serve` entry's flags.
extern const char* const kVoprofdUsage;

}  // namespace voprof::tools
