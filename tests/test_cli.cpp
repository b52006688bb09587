#include "voprof/util/cli.hpp"

#include <gtest/gtest.h>

#include "voprof/util/assert.hpp"

namespace voprof::util {
namespace {

using Kind = FlagSpec::Kind;
using Bound = FlagSpec::Bound;

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
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_FALSE(a.has("quiet"));
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
      {"out", Kind::kText, Bound::kNone, true},
      {"format", Kind::kText, Bound::kNone, false, {"table", "csv", "json"}}};
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

TEST(Cli, BoundsAreCheckedWhenParsing) {
  const std::vector<FlagSpec> flags = {
      {"vms", Kind::kInteger, Bound::kPositive},
      {"seed", Kind::kInteger, Bound::kNonNegative},
      {"duration", Kind::kNumber, Bound::kPositive},
      {"offset", Kind::kNumber}};
  const auto message = [&flags](const std::vector<std::string>& tokens) {
    const Result<CliArgs> r = CliArgs::parse(tokens, flags);
    EXPECT_FALSE(r.ok());
    return r.ok() ? std::string() : r.error().message;
  };
  EXPECT_EQ(message({"--vms", "0"}), "flag --vms must be > 0, got 0");
  EXPECT_EQ(message({"--seed", "-1"}), "flag --seed must be >= 0, got -1");
  EXPECT_EQ(message({"--duration", "-0.5"}),
            "flag --duration must be > 0, got -0.5");
  const Result<CliArgs> ok = CliArgs::parse(
      {"--vms", "1", "--seed", "0", "--duration", "0.5", "--offset", "-3"},
      flags);
  ASSERT_TRUE(ok.ok()) << ok.error().to_string();
  EXPECT_EQ(ok.value().get_int("seed", 7), 0);
  EXPECT_DOUBLE_EQ(ok.value().get_double("offset", 0.0), -3.0);
}

TEST(Cli, CheckRunsTheSameTableOverKeyValueEntries) {
  const std::vector<FlagSpec> keys = {
      {"machine", Kind::kInteger, Bound::kNonNegative},
      {"cpu", Kind::kNumber, Bound::kNonNegative},
      {"scheduler", Kind::kText, Bound::kNone, false, {"macro", "micro"}},
      {"name", Kind::kText, Bound::kNone, true}};
  const Result<CliArgs> ok = CliArgs::check(
      {{"name", "a"}, {"cpu", "40"}, {"cpu", "55.5"}, {"machine", "1"}}, keys);
  ASSERT_TRUE(ok.ok()) << ok.error().to_string();
  EXPECT_DOUBLE_EQ(ok.value().get_double("cpu", 0.0), 55.5);  // last wins
  EXPECT_EQ(ok.value().get_int("machine", 0), 1);
  EXPECT_EQ(ok.value().get_or("scheduler", "macro"), "macro");
  const auto message =
      [&keys](const std::vector<std::pair<std::string, std::string>>& e) {
        const Result<CliArgs> r = CliArgs::check(e, keys);
        EXPECT_FALSE(r.ok());
        return r.ok() ? std::string() : r.error().message;
      };
  EXPECT_EQ(message({{"name", "a"}, {"cpu_pct", "80"}}),
            "unknown key 'cpu_pct' (valid: 'machine', 'cpu', 'scheduler', "
            "'name')");
  EXPECT_EQ(message({{"name", "a"}, {"cpu", "lots"}}),
            "key 'cpu' is not a number: 'lots'");
  EXPECT_EQ(message({{"name", "a"}, {"machine", "-1"}}),
            "key 'machine' must be >= 0, got -1");
  EXPECT_EQ(message({{"name", "a"}, {"scheduler", "quantum"}}),
            "key 'scheduler' does not accept 'quantum'");
  EXPECT_EQ(message({}), "missing required key 'name'");
}

TEST(Cli, CheckParamsTypesValuesByTheirJsonType) {
  const std::vector<FlagSpec> keys = {
      {"method", Kind::kText, Bound::kNone, false, {"lms", "ols"}},
      {"cpu", Kind::kNumber, Bound::kNonNegative},
      {"vms", Kind::kInteger, Bound::kPositive},
      {"scenario", Kind::kText, Bound::kNone, true},
      {"verbose", Kind::kSwitch}};
  const auto message = [&keys](const char* text) {
    const Result<bool> r = check_params(Json::parse(text), keys);
    EXPECT_FALSE(r.ok()) << text;
    if (r.ok()) return std::string();
    EXPECT_EQ(r.error().code, Errc::kValidation);
    return r.error().message;
  };
  const Json ok = Json::parse(
      R"({"scenario":"[cluster]","cpu":40.5,"vms":2,"verbose":true})");
  EXPECT_TRUE(check_params(ok, keys).ok());
  EXPECT_DOUBLE_EQ(ok.number_or("cpu", 0.0), 40.5);
  EXPECT_DOUBLE_EQ(ok.number_or("mem", 7.0), 7.0);
  EXPECT_EQ(ok.string_or("method", "lms"), "lms");
  EXPECT_EQ(message(R"({"scenario":"s","vcpus":4})"),
            "unknown param 'vcpus' (valid: 'method', 'cpu', 'vms', "
            "'scenario', 'verbose')");
  // A number in a string is not a number: no round trip through text.
  EXPECT_EQ(message(R"({"scenario":"s","cpu":"40"})"),
            "param 'cpu' must be a number");
  EXPECT_EQ(message(R"({"scenario":"s","vms":2.5})"),
            "param 'vms' must be an integer");
  EXPECT_EQ(message(R"({"scenario":"s","vms":1e20})"),
            "param 'vms' must be an integer");
  EXPECT_EQ(message(R"({"scenario":"s","vms":0})"),
            "param 'vms' must be > 0, got 0");
  EXPECT_EQ(message(R"({"scenario":"s","cpu":-1})"),
            "param 'cpu' must be >= 0, got -1");
  EXPECT_EQ(message(R"({"scenario":"s","method":"foo"})"),
            "param 'method' does not accept 'foo'");
  EXPECT_EQ(message(R"({"scenario":7})"), "param 'scenario' must be a string");
  EXPECT_EQ(message(R"({"scenario":"s","verbose":1})"),
            "param 'verbose' must be a boolean");
  EXPECT_EQ(message(R"({})"), "missing required param 'scenario'");
}

}  // namespace
}  // namespace voprof::util
