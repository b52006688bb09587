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

/// `--name` appears in `text` as a whole flag, not as the tail of a
/// longer one (`--out` inside `--trace-out`) or the head of one.
bool mentions_flag(const std::string& text, const std::string& name) {
  const std::string flag = "--" + name;
  for (std::size_t at = text.find(flag); at != std::string::npos;
       at = text.find(flag, at + 1)) {
    const std::size_t end = at + flag.size();
    const bool head = at == 0 || text[at - 1] != '-';
    const bool tail = end == text.size() ||
                      !(std::isalnum(static_cast<unsigned char>(text[end])) ||
                        text[end] == '-');
    if (head && tail) return true;
  }
  return false;
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
      EXPECT_TRUE(mentions_flag(entry.usage, f.name))
          << entry.name << " --" << f.name;
    }
    EXPECT_NE(voprofctl_usage().find(entry.usage), std::string::npos)
        << entry.name;
  }
  for (const util::FlagSpec& f : find_command("serve")->flags) {
    EXPECT_TRUE(mentions_flag(kVoprofdUsage, f.name)) << "voprofd --" << f.name;
  }
  EXPECT_FALSE(mentions_flag("[--trace-out FILE]", "out"));
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
  EXPECT_TRUE(parsed.value().get_bool("enable-test-ops"));
  EXPECT_EQ(parsed.value().get("socket"), "/tmp/s.sock");
}

TEST(CtlFlags, MissingFlagValueIsAValidationError) {
  const auto parsed = parse_flags("train", {"--out"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, util::Errc::kValidation);
  EXPECT_NE(parsed.error().message.find("--out"), std::string::npos);
}

}  // namespace
}  // namespace voprof::tools
