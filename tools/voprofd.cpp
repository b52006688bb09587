/// \file voprofd.cpp
/// The voprof serving daemon: accepts voprof-api-1 requests (NDJSON
/// over a Unix-domain socket), executes them on a bounded worker pool
/// and drains gracefully on SIGTERM/SIGINT. `voprofctl serve` runs the
/// identical daemon; this binary exists so a supervisor can manage a
/// long-running instance without the whole ctl surface.
///
///   voprofd --socket /run/voprofd.sock [--jobs N]
///           [--queue-capacity N] [--default-deadline-ms MS]
///           [--max-deadline-ms MS] [--train-duration SEC] [--seed N]
///           [--inner-jobs N] [--metrics-out FILE] [--trace-out FILE]
///           [--enable-test-ops]
///
/// Interact with it via `voprofctl request --socket ... --op ...`.

#include <iostream>
#include <string>

#include "ctl_flags.hpp"
#include "voprof/obs/trace.hpp"
#include "voprof/serve/daemon.hpp"

int main(int argc, char** argv) {
  using namespace voprof;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << "usage: voprofd --socket PATH [--jobs N]\n"
                   "  [--queue-capacity N] [--default-deadline-ms MS]\n"
                   "  [--max-deadline-ms MS] [--train-duration SEC]\n"
                   "  [--seed N] [--inner-jobs N] [--metrics-out FILE]\n"
                   "  [--trace-out FILE] [--enable-test-ops]\n";
      return 0;
    }
  }
  const util::Result<util::CliArgs> parsed =
      tools::parse_flags_argv("serve", argc, argv, 1);
  if (!parsed.ok()) {
    std::cerr << "voprofd: " << parsed.error().to_string() << '\n';
    return 2;
  }
  const util::CliArgs& args = parsed.value();

  auto& collector = obs::TraceCollector::global();
  if (args.has("trace-out")) {
    collector.enable(args.get("trace-out"));
  } else {
    collector.init_from_env();
  }

  const util::Result<serve::DaemonConfig> config =
      serve::daemon_config_from_args(args);
  if (!config.ok()) {
    std::cerr << "voprofd: " << config.error().to_string() << '\n';
    return 2;
  }
  return serve::daemon_main(config.value());
}
