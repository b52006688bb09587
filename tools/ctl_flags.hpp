#pragma once
/// \file ctl_flags.hpp
/// The one flag table of the voprof command-line surface. Every
/// voprofctl subcommand (and voprofd, which is `voprofctl serve` in a
/// dedicated binary) declares its flags here, so:
///  * unknown flags fail with the command's valid-flag list instead of
///    silently parsing;
///  * the cross-cutting flags keep one spelling everywhere: `--jobs`,
///    `--seed`, `--format csv|json`, `--trace-out FILE`.
///
/// tests/test_ctl_flags.cpp drives this table directly; the binaries
/// only wrap it.

#include <string>
#include <vector>

#include "voprof/util/cli.hpp"
#include "voprof/util/result.hpp"

namespace voprof::tools {

/// One flag a command accepts.
struct FlagSpec {
  std::string name;      ///< canonical spelling (no leading --)
  bool boolean = false;  ///< switch, takes no value
};

/// Flags accepted by `command`; empty when the command is unknown.
[[nodiscard]] const std::vector<FlagSpec>& command_flags(
    const std::string& command);

/// Commands registered in the table.
[[nodiscard]] std::vector<std::string> known_commands();

/// Parse the tokens after `<program> <command>`: reject flags the
/// command does not declare (listing the valid ones) and hand back
/// strict CliArgs. Errors are Errc::kValidation.
[[nodiscard]] util::Result<util::CliArgs> parse_flags(
    const std::string& command, const std::vector<std::string>& tokens);

/// Convenience over argv: tokens = argv[first_token..argc).
[[nodiscard]] util::Result<util::CliArgs> parse_flags_argv(
    const std::string& command, int argc, const char* const* argv,
    int first_token);

}  // namespace voprof::tools
