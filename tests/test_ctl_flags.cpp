/// The shared voprofctl/voprofd flag table: uniform spellings and
/// strict rejection of unknown flags (retired spellings included) and
/// stray positionals.

#include "ctl_flags.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace voprof::tools {
namespace {

TEST(CtlFlags, EveryCommandAcceptsItsCanonicalFlags) {
  // The cross-cutting flags keep one spelling wherever they appear.
  for (const std::string cmd : {"train", "export-trace", "simulate"}) {
    const auto& flags = command_flags(cmd);
    const auto has = [&flags](const std::string& name) {
      for (const FlagSpec& f : flags) {
        if (f.name == name) return true;
      }
      return false;
    };
    EXPECT_TRUE(has("jobs")) << cmd;
    EXPECT_TRUE(has("seed")) << cmd;
    EXPECT_TRUE(has("trace-out")) << cmd;
  }
  EXPECT_TRUE(command_flags("unknown-command").empty());
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
}

TEST(CtlFlags, AliasesAreScopedToTheirCommand) {
  // The retired alias spellings (`simulate --csv`, `fit`/`inspect
  // --trace`) are unknown flags like any other.
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases =
      {{"simulate", {"--trace", "x", "--scenario", "s.conf"}},
       {"simulate", {"--csv", "out.csv", "--scenario", "s.conf"}},
       {"fit", {"--trace", "data.csv", "--out", "m.txt"}},
       {"inspect", {"--trace", "data.csv"}}};
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
  const auto parsed = parse_flags("trainx", {});
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("train"), std::string::npos);
  const std::vector<std::string> commands = known_commands();
  EXPECT_NE(std::find(commands.begin(), commands.end(), "serve"),
            commands.end());
  EXPECT_NE(std::find(commands.begin(), commands.end(), "request"),
            commands.end());
}

TEST(CtlFlags, PositionalArgumentsAreRejected) {
  const auto parsed = parse_flags("train", {"extra", "--out", "m.txt"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("extra"), std::string::npos);
}

TEST(CtlFlags, BooleanSwitchesTakeNoValue) {
  const auto parsed = parse_flags(
      "serve", {"--socket", "/tmp/s.sock", "--enable-test-ops"});
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_TRUE(parsed.value().get_bool("enable-test-ops"));
  EXPECT_EQ(parsed.value().get("socket"), "/tmp/s.sock");
}

TEST(CtlFlags, ArgvEntryPointSkipsTheCommandWords) {
  const char* argv[] = {"voprofctl", "predict", "--models", "m.txt"};
  const auto parsed = parse_flags_argv("predict", 4, argv, 2);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().get("models"), "m.txt");
}

TEST(CtlFlags, MissingFlagValueIsAValidationError) {
  const auto parsed = parse_flags("train", {"--out"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, util::Errc::kValidation);
}

}  // namespace
}  // namespace voprof::tools
