#include "voprof/util/cli.hpp"

#include <gtest/gtest.h>

#include "voprof/util/assert.hpp"

namespace voprof::util {
namespace {

using Kind = FlagSpec::Kind;

/// Flags of a made-up command covering every kind.
const std::vector<FlagSpec>& test_flags() {
  static const std::vector<FlagSpec> flags = {
      {"out"},          {"x"},
      {"duration", Kind::kNumber}, {"f", Kind::kNumber},
      {"n", Kind::kInteger},       {"jobs", Kind::kInteger},
      {"verbose", Kind::kSwitch}};
  return flags;
}

CliArgs parse(const std::vector<std::string>& tokens,
              std::size_t operands = 0) {
  return CliArgs::parse(tokens, test_flags(), operands).value();
}

/// The error message parse() reports; fails the test on success.
std::string rejection(const std::vector<std::string>& tokens,
                      std::size_t operands = 0) {
  const Result<CliArgs> r = CliArgs::parse(tokens, test_flags(), operands);
  EXPECT_FALSE(r.ok());
  if (r.ok()) return "";
  EXPECT_EQ(r.error().code, Errc::kValidation);
  return r.error().message;
}

TEST(Cli, CommandAndFlags) {
  // A leading command word is an operand like any other.
  const CliArgs a = parse({"train", "--out", "m.txt", "--duration", "30"}, 1);
  ASSERT_EQ(a.operands().size(), 1u);
  EXPECT_EQ(a.operands()[0], "train");
  EXPECT_EQ(a.get("out"), "m.txt");
  EXPECT_DOUBLE_EQ(a.get_double("duration", 0.0), 30.0);
  EXPECT_TRUE(a.has("out"));
  EXPECT_FALSE(a.has("nope"));
  // Operands may sit between flags, in command-line order.
  const CliArgs b = parse({"top", "--n", "3", "t.json"}, 2);
  EXPECT_EQ(b.operands(), (std::vector<std::string>{"top", "t.json"}));
}

TEST(Cli, EmptyArgvIsEmptyCommand) {
  const CliArgs a = parse({});
  EXPECT_TRUE(a.operands().empty());
  EXPECT_FALSE(a.has("out"));
}

TEST(Cli, FlagsWithoutCommand) {
  const CliArgs a = parse({"--x", "1"});
  EXPECT_TRUE(a.operands().empty());
  EXPECT_EQ(a.get("x"), "1");
  // A value may look like a negative number; only "--" starts a flag.
  EXPECT_EQ(parse({"--x", "-1"}).get("x"), "-1");
}

TEST(Cli, BooleanSwitches) {
  const CliArgs a = parse({"--verbose", "--n", "3"});
  EXPECT_TRUE(a.get_bool("verbose"));
  EXPECT_FALSE(a.get_bool("quiet"));
  EXPECT_EQ(a.get_int("n", 0), 3);
  // A switch takes no value, so a following word is a stray operand.
  EXPECT_NE(rejection({"--verbose", "yes"}).find("'yes'"), std::string::npos);
}

TEST(Cli, Defaults) {
  const CliArgs a = parse({});
  EXPECT_EQ(a.get_or("missing", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(a.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(a.get_int("missing", 7), 7);
}

TEST(Cli, MissingRequiredThrows) {
  const CliArgs a = parse({});
  EXPECT_THROW((void)a.get("required"), ContractViolation);
}

TEST(Cli, RequiredFlagsAndChoices) {
  const std::vector<FlagSpec> flags = {
      {"out", Kind::kText, true},
      {"format", Kind::kText, false, {"table", "csv", "json"}}};
  const auto message = [&flags](const std::vector<std::string>& tokens) {
    const Result<CliArgs> r = CliArgs::parse(tokens, flags);
    EXPECT_FALSE(r.ok());
    return r.ok() ? std::string() : r.error().message;
  };
  EXPECT_EQ(message({}), "missing required flag --out");
  EXPECT_EQ(message({"--out", "o", "--format", "xml"}),
            "flag --format does not accept 'xml'");
  // Checked after the tokens: a bad token is the error reported.
  EXPECT_NE(message({"--format", "xml", "--nope"}).find("unknown flag --nope"),
            std::string::npos);
  EXPECT_NE(message({"stray"}).find("'stray'"), std::string::npos);
  const Result<CliArgs> ok =
      CliArgs::parse({"--out", "o", "--format", "csv"}, flags);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().get("format"), "csv");
  // An optional flag with choices may be left out.
  EXPECT_TRUE(CliArgs::parse({"--out", "o"}, flags).ok());
}

TEST(Cli, MalformedInputRejected) {
  // Every error names the token at fault.
  EXPECT_NE(rejection({"stray-positional"}).find("'stray-positional'"),
            std::string::npos);
  EXPECT_NE(rejection({"a", "b"}, 1).find("'b'"), std::string::npos);
  EXPECT_NE(rejection({}, 2).find("expected 2"), std::string::npos);
  EXPECT_NE(rejection({"--out"}).find("--out needs a value"),
            std::string::npos);
  // The next flag is not a value.
  EXPECT_NE(rejection({"--out", "--verbose"}).find("--out needs a value"),
            std::string::npos);
  EXPECT_NE(rejection({"--"}).find("unknown flag --"), std::string::npos);
  EXPECT_NE(rejection({"--bogus", "1"}).find("unknown flag --bogus"),
            std::string::npos);
}

TEST(Cli, NumericValidation) {
  EXPECT_NE(rejection({"--duration", "12abc"}).find("--duration"),
            std::string::npos);
  EXPECT_NE(rejection({"--n", "1.5"}).find("--n"), std::string::npos);
  EXPECT_DOUBLE_EQ(parse({"--f", "1.5"}).get_double("f", 0.0), 1.5);
  EXPECT_EQ(parse({"--n", "1e3"}).get_int("n", 0), 1000);
  // Numeric but no int: rejected before any (undefined) cast.
  for (const char* bad : {"1e20", "-1e20", "2147483648", "nan", "inf",
                          "-inf", "abc", ""}) {
    EXPECT_NE(rejection({"--jobs", bad}).find("--jobs"), std::string::npos)
        << bad;
  }
  EXPECT_EQ(parse({"--n", "-2147483648"}).get_int("n", 0), -2147483647 - 1);
  // A text flag is not checked by parse; its typed getter still is.
  const CliArgs text = parse({"--x", "12abc"});
  EXPECT_THROW((void)text.get_double("x", 0.0), ContractViolation);
  EXPECT_THROW((void)parse({"--x", "1.5"}).get_int("x", 0), ContractViolation);
}

TEST(Cli, FlagNamesEnumerated) {
  // An unknown flag's error lists every declared flag.
  const std::string msg = rejection({"--nope", "1"});
  for (const FlagSpec& f : test_flags()) {
    EXPECT_NE(msg.find("--" + f.name), std::string::npos) << f.name;
  }
  const Result<CliArgs> none = CliArgs::parse({"--nope"}, {});
  ASSERT_FALSE(none.ok());
  EXPECT_NE(none.error().message.find("(valid: none)"), std::string::npos);
}

}  // namespace
}  // namespace voprof::util
