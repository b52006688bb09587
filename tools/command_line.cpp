#include "command_line.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "voprof/obs/trace.hpp"

namespace voprof::tools {

util::CliArgs CommandLine::parse_or_exit(
    const std::vector<std::string>& tokens) const {
  if (std::any_of(tokens.begin(), tokens.end(), [](const std::string& t) {
        return t == "--help" || t == "-h";
      })) {
    std::cout << usage;
    std::exit(0);
  }
  util::Result<util::CliArgs> args =
      util::CliArgs::parse(tokens, flags, operands);
  if (!args.ok()) fail(args.error().message);
  const char* env = std::getenv("VOPROF_TRACE");
  const std::string trace =
      args.value().get_or("trace-out", env != nullptr ? env : "");
  if (!trace.empty()) {
    const util::Result<bool> writable = util::check_writable(trace);
    if (!writable.ok()) {
      std::cerr << program << ": " << writable.error().to_string() << '\n';
      std::exit(1);
    }
    obs::TraceCollector::global().enable(trace);
  }
  return std::move(args).take();
}

void CommandLine::fail(const std::string& message) const {
  std::cerr << program << ": " << message << '\n' << usage;
  std::exit(2);
}

}  // namespace voprof::tools
