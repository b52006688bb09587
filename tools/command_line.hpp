#pragma once
/// \file command_line.hpp
/// The command-line contract every voprof binary keeps (voprofctl,
/// voprofd and each bench_*), so a script sees one behaviour:
///  * `--help` or `-h` anywhere prints the usage text on stdout and
///    exits 0;
///  * a command line util::CliArgs::parse rejects (unknown flag, flag
///    without a value, stray argument, malformed number, missing
///    required flag, value outside a flag's choices), or one the
///    program rejects after parsing, prints the error and the usage on
///    stderr and exits 2, before any work runs;
///  * otherwise `--trace-out FILE`, else VOPROF_TRACE, enables the
///    observability trace collector.

#include <cstddef>
#include <string>
#include <vector>

#include "voprof/util/cli.hpp"

namespace voprof::tools {

/// What one program (or one voprofctl command) accepts.
struct CommandLine {
  std::string program;  ///< prefix of error messages ("voprofctl")
  std::string usage;    ///< help text, first line "usage: ..."
  std::vector<util::FlagSpec> flags;
  std::size_t operands = 0;

  /// Parse the tokens after the program (and command) name under the
  /// contract above; returns only when the program should run.
  [[nodiscard]] util::CliArgs parse_or_exit(
      const std::vector<std::string>& tokens) const;

  /// A command line the program rejected after parsing: `message` and
  /// the usage on stderr, exit 2.
  [[noreturn]] void fail(const std::string& message) const;
};

}  // namespace voprof::tools
