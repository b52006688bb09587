/// The shared voprofctl/voprofd flag table: uniform spellings, strict
/// rejection of unknown flags (retired spellings included) and stray
/// operands, and usage text that documents every declared flag.

#include "ctl_flags.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <utility>
#include <vector>

namespace voprof::tools {
namespace {

/// Parse `tokens` as the arguments of voprofctl `command`.
util::Result<util::CliArgs> parse_flags(const std::string& command,
                                        const std::vector<std::string>& tokens) {
  const CommandEntry* entry = find_command(command);
  EXPECT_NE(entry, nullptr) << command;
  if (entry == nullptr) return util::Error{util::Errc::kValidation, command, {}};
  return util::CliArgs::parse(tokens, entry->flags, entry->operands);
}

bool declares(const CommandEntry& entry, const std::string& name) {
  for (const util::FlagSpec& f : entry.flags) {
    if (f.name == name) return true;
  }
  return false;
}

/// Where `--name` appears in `text` as a whole flag, not as the tail
/// of a longer one (`--out` inside `--trace-out`) or the head of one;
/// npos when it does not.
std::size_t flag_position(const std::string& text, const std::string& name) {
  const std::string flag = "--" + name;
  for (std::size_t at = text.find(flag); at != std::string::npos;
       at = text.find(flag, at + 1)) {
    const std::size_t end = at + flag.size();
    const bool head = at == 0 || text[at - 1] != '-';
    const bool tail = end == text.size() ||
                      !(std::isalnum(static_cast<unsigned char>(text[end])) ||
                        text[end] == '-');
    if (head && tail) return at;
  }
  return std::string::npos;
}

/// `usage` documents `f` as the table declares it: shown, without
/// brackets exactly when it is required, followed by its choices.
void expect_documented(const std::string& usage, const util::FlagSpec& f,
                       const std::string& where) {
  const std::size_t at = flag_position(usage, f.name);
  ASSERT_NE(at, std::string::npos) << where << " --" << f.name;
  const bool bracketed = at > 0 && usage[at - 1] == '[';
  EXPECT_EQ(bracketed, !f.required) << where << " --" << f.name;
  std::string choices;
  for (const std::string& c : f.choices) {
    choices += (choices.empty() ? "" : "|") + c;
  }
  if (!choices.empty()) {
    EXPECT_EQ(usage.compare(at, f.name.size() + 3 + choices.size(),
                            "--" + f.name + " " + choices),
              0)
        << where << " --" << f.name << " must list " << choices;
  }
}

TEST(CtlFlags, EveryCommandAcceptsItsCanonicalFlags) {
  // The cross-cutting flags keep one spelling wherever they appear.
  for (const std::string cmd : {"train", "export-trace", "simulate"}) {
    const CommandEntry* entry = find_command(cmd);
    ASSERT_NE(entry, nullptr) << cmd;
    EXPECT_TRUE(declares(*entry, "jobs")) << cmd;
    EXPECT_TRUE(declares(*entry, "seed")) << cmd;
    EXPECT_TRUE(declares(*entry, "trace-out")) << cmd;
  }
  EXPECT_EQ(find_command("unknown-command"), nullptr);
}

TEST(CtlFlags, EveryDeclaredFlagIsInItsUsage) {
  for (const CommandEntry& entry : command_table()) {
    EXPECT_EQ(entry.usage.rfind("  " + entry.name + " ", 0), 0u)
        << entry.usage;
    for (const util::FlagSpec& f : entry.flags) {
      expect_documented(entry.usage, f, entry.name);
    }
    EXPECT_NE(voprofctl_usage().find(entry.usage), std::string::npos)
        << entry.name;
  }
  for (const util::FlagSpec& f : find_command("serve")->flags) {
    expect_documented(kVoprofdUsage, f, "voprofd");
  }
  EXPECT_EQ(flag_position("[--trace-out FILE]", "out"), std::string::npos);
}

TEST(CtlFlags, ParsesKnownFlagsIntoCliArgs) {
  const auto parsed =
      parse_flags("simulate", {"--scenario", "s.conf", "--replications", "5",
                               "--jobs", "3", "--format", "json"});
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().get("scenario"), "s.conf");
  EXPECT_EQ(parsed.value().get_int("replications", 0), 5);
  EXPECT_EQ(parsed.value().get_int("jobs", 0), 3);
  EXPECT_EQ(parsed.value().get_or("format", "table"), "json");
  // Numeric kinds are checked when parsing, before any command runs.
  EXPECT_FALSE(parse_flags("train", {"--jobs", "abc"}).ok());
  EXPECT_FALSE(parse_flags("serve", {"--queue-capacity", "1e20"}).ok());
  EXPECT_FALSE(parse_flags("predict", {"--cpu", "lots"}).ok());
}

TEST(CtlFlags, AliasesAreScopedToTheirCommand) {
  // Retired spellings (`simulate --csv`, `fit`/`inspect --trace`) and
  // flags a command never read (`rubis`/`inspect --seed`) are unknown
  // flags like any other.
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases =
      {{"simulate", {"--trace", "x", "--scenario", "s.conf"}},
       {"simulate", {"--csv", "out.csv", "--scenario", "s.conf"}},
       {"fit", {"--trace", "data.csv", "--out", "m.txt"}},
       {"inspect", {"--trace", "data.csv"}},
       {"rubis", {"--seed", "7", "--models", "m.txt"}},
       {"inspect", {"--seed", "7", "--observations", "data.csv"}}};
  for (const auto& [command, tokens] : cases) {
    const auto parsed = parse_flags(command, tokens);
    ASSERT_FALSE(parsed.ok()) << command << ' ' << tokens[0];
    EXPECT_EQ(parsed.error().code, util::Errc::kValidation);
    EXPECT_NE(parsed.error().message.find("unknown flag " + tokens[0] +
                                          " (valid: "),
              std::string::npos)
        << parsed.error().message;
  }
}

TEST(CtlFlags, UnknownFlagsAreRejectedWithTheValidList) {
  const auto parsed = parse_flags("predict", {"--models", "m.txt", "--vcpus",
                                              "4"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("--vcpus"), std::string::npos);
  EXPECT_NE(parsed.error().message.find("--models"), std::string::npos);
}

TEST(CtlFlags, UnknownCommandsListTheKnownOnes) {
  // voprofctl answers an unknown command with its usage, which lists
  // every command of the table.
  EXPECT_EQ(find_command("trainx"), nullptr);
  for (const std::string cmd :
       {"train", "serve", "request", "trace", "version", "help"}) {
    ASSERT_NE(find_command(cmd), nullptr) << cmd;
    EXPECT_NE(voprofctl_usage().find("\n  " + cmd + " "), std::string::npos)
        << cmd;
  }
}

TEST(CtlFlags, PositionalArgumentsAreRejected) {
  const auto parsed = parse_flags("train", {"extra", "--out", "m.txt"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("extra"), std::string::npos);
  // `trace` takes exactly a subcommand word and a file.
  EXPECT_TRUE(parse_flags("trace", {"top", "t.json", "--limit", "3"}).ok());
  EXPECT_FALSE(parse_flags("trace", {"top"}).ok());
  EXPECT_FALSE(parse_flags("trace", {"top", "t.json", "more"}).ok());
  EXPECT_FALSE(parse_flags("version", {"extra"}).ok());
}

TEST(CtlFlags, BooleanSwitchesTakeNoValue) {
  const auto parsed = parse_flags(
      "serve", {"--socket", "/tmp/s.sock", "--enable-test-ops"});
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_TRUE(parsed.value().has("enable-test-ops"));
  EXPECT_EQ(parsed.value().get("socket"), "/tmp/s.sock");
}

TEST(CtlFlags, RequiredFlagsAndChoicesAreCheckedWhenParsing) {
  // Each is rejected before any work runs, naming the flag.
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases =
      {{"train", {"--jobs", "2"}},
       {"export-trace", {}},
       {"fit", {"--observations", "o.csv", "--out", "m.txt", "--method",
                "foo"}},
       {"profile", {"--kind", "zzz"}},
       {"predict", {"--models", "m.txt", "--format", "xml"}},
       {"request", {"--socket", "s.sock"}}};
  for (const auto& [command, tokens] : cases) {
    const auto parsed = parse_flags(command, tokens);
    ASSERT_FALSE(parsed.ok()) << command;
    EXPECT_EQ(parsed.error().code, util::Errc::kValidation);
  }
  EXPECT_EQ(parse_flags("train", {}).error().message,
            "missing required flag --out");
  EXPECT_EQ(parse_flags("predict", {"--models", "m", "--format", "xml"})
                .error()
                .message,
            "flag --format does not accept 'xml'");
  // An unknown flag is still the error named, not the missing one.
  EXPECT_NE(parse_flags("train", {"--bogus", "1"}).error().message.find(
                "unknown flag --bogus"),
            std::string::npos);
  EXPECT_TRUE(parse_flags("profile", {"--kind", "io", "--format", "table"})
                  .ok());
}

TEST(CtlFlags, MissingFlagValueIsAValidationError) {
  const auto parsed = parse_flags("train", {"--out"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, util::Errc::kValidation);
  EXPECT_NE(parsed.error().message.find("--out"), std::string::npos);
}

}  // namespace
}  // namespace voprof::tools
