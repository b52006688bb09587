/// \file voprofd.cpp
/// The voprof serving daemon: accepts voprof-api-1 requests (NDJSON
/// over a Unix-domain socket), executes them on a bounded worker pool
/// and drains gracefully on SIGTERM/SIGINT. `voprofctl serve` runs the
/// identical daemon; this binary exists so a supervisor can manage a
/// long-running instance without the whole ctl surface. Its flags are
/// the `serve` entry of tools/ctl_flags.cpp (`voprofd --help`).
///
/// Interact with it via `voprofctl request --socket ... --op ...`.

#include <string>
#include <vector>

#include "command_line.hpp"
#include "ctl_flags.hpp"
#include "voprof/serve/daemon.hpp"

int main(int argc, char** argv) {
  using namespace voprof;
  const tools::CommandEntry& serve = *tools::find_command("serve");
  const tools::CommandLine cl{"voprofd", tools::kVoprofdUsage, serve.flags,
                              serve.operands};
  const util::CliArgs args =
      cl.parse_or_exit(std::vector<std::string>(argv + 1, argv + argc));
  const util::Result<serve::DaemonConfig> config =
      serve::daemon_config_from_args(args);
  if (!config.ok()) cl.fail(config.error().message);
  return serve::daemon_main(config.value());
}
