#include "ctl_flags.hpp"

#include <algorithm>

#include "voprof/util/assert.hpp"

namespace voprof::tools {

namespace {

struct CommandEntry {
  std::string command;
  std::vector<FlagSpec> flags;
};

/// The whole CLI surface. Cross-cutting flags keep one spelling:
/// --jobs (parallelism), --seed, --format csv|json, --trace-out
/// (observability trace file, everywhere — --trace is reserved for
/// observation-CSV *inputs*, now spelled --observations).
const std::vector<CommandEntry>& command_table() {
  static const std::vector<CommandEntry> table = {
      {"train",
       {{"out"}, {"method"}, {"duration"}, {"seed"}, {"jobs"},
        {"trace-out"}}},
      {"export-trace",
       {{"out"}, {"duration"}, {"seed"}, {"jobs"}, {"trace-out"}}},
      {"fit", {{"observations"}, {"out"}, {"method"}, {"trace-out"}}},
      {"predict",
       {{"models"}, {"cpu"}, {"mem"}, {"io"}, {"bw"}, {"vms"}, {"format"},
        {"trace-out"}}},
      {"profile",
       {{"kind"}, {"value"}, {"vms"}, {"duration"}, {"seed"}, {"format"},
        {"trace-out"}}},
      {"rubis",
       {{"models"}, {"clients"}, {"duration"}, {"seed"}, {"trace-out"}}},
      {"inspect",
       {{"observations"}, {"method"}, {"resamples"}, {"seed"},
        {"trace-out"}}},
      {"simulate",
       {{"scenario"}, {"replications"}, {"jobs"}, {"seed"}, {"format"},
        {"series-out"}, {"trace-out"}}},
      {"bench-diff",
       {{"baseline"}, {"current"}, {"threshold"},
        {"report-improvement", true}}},
      {"serve",
       {{"socket"}, {"jobs"}, {"queue-capacity"}, {"default-deadline-ms"},
        {"max-deadline-ms"}, {"train-duration"}, {"seed"}, {"inner-jobs"},
        {"enable-test-ops", true}, {"metrics-out"}, {"trace-out"}}},
      {"request",
       {{"socket"}, {"op"}, {"params"}, {"id"}, {"deadline-ms"},
        {"timeout-ms"}}},
  };
  return table;
}

const CommandEntry* find_command(const std::string& command) {
  for (const CommandEntry& e : command_table()) {
    if (e.command == command) return &e;
  }
  return nullptr;
}

std::string valid_flag_list(const CommandEntry& entry) {
  std::string out;
  for (const FlagSpec& f : entry.flags) {
    if (!out.empty()) out += ", ";
    out += "--" + f.name;
  }
  return out;
}

}  // namespace

const std::vector<FlagSpec>& command_flags(const std::string& command) {
  static const std::vector<FlagSpec> empty;
  const CommandEntry* entry = find_command(command);
  return entry != nullptr ? entry->flags : empty;
}

std::vector<std::string> known_commands() {
  std::vector<std::string> out;
  for (const CommandEntry& e : command_table()) out.push_back(e.command);
  return out;
}

util::Result<util::CliArgs> parse_flags(const std::string& command,
                                      const std::vector<std::string>& tokens) {
  const CommandEntry* entry = find_command(command);
  if (entry == nullptr) {
    std::string cmds;
    for (const std::string& c : known_commands()) {
      if (!cmds.empty()) cmds += ", ";
      cmds += c;
    }
    return util::Error{util::Errc::kValidation,
                       "unknown command '" + command + "' (commands: " +
                           cmds + ")",
                       "cli"};
  }

  std::vector<const char*> argv;
  argv.reserve(tokens.size() + 1);
  argv.push_back("voprofctl");  // argv[0] slot CliArgs skips
  for (const std::string& t : tokens) argv.push_back(t.c_str());
  std::vector<std::string> bool_flags;
  for (const FlagSpec& f : entry->flags) {
    if (f.boolean) bool_flags.push_back(f.name);
  }

  util::CliArgs args;
  try {
    args = util::CliArgs::parse(static_cast<int>(argv.size()), argv.data(),
                                bool_flags);
  } catch (const util::ContractViolation& e) {
    return util::Error{util::Errc::kValidation, e.what(), command};
  }
  if (!args.command().empty()) {
    return util::Error{util::Errc::kValidation,
                       "unexpected positional argument '" + args.command() +
                           "'",
                       command};
  }
  for (const std::string& name : args.flag_names()) {
    const bool known =
        std::any_of(entry->flags.begin(), entry->flags.end(),
                    [&name](const FlagSpec& f) { return f.name == name; });
    if (!known) {
      return util::Error{util::Errc::kValidation,
                         "unknown flag --" + name + " (valid: " +
                             valid_flag_list(*entry) + ")",
                         command};
    }
  }
  return args;
}

util::Result<util::CliArgs> parse_flags_argv(const std::string& command,
                                           int argc,
                                           const char* const* argv,
                                           int first_token) {
  std::vector<std::string> tokens;
  for (int i = first_token; i < argc; ++i) tokens.emplace_back(argv[i]);
  return parse_flags(command, tokens);
}

}  // namespace voprof::tools
