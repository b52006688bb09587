#include "voprof/util/cli.hpp"

#include <gtest/gtest.h>

#include "voprof/util/assert.hpp"

namespace voprof::util {
namespace {

CliArgs parse(std::vector<const char*> argv,
              const std::vector<std::string>& bools = {}) {
  argv.insert(argv.begin(), "prog");
  return CliArgs::parse(static_cast<int>(argv.size()), argv.data(), bools);
}

TEST(Cli, CommandAndFlags) {
  const CliArgs a = parse({"train", "--out", "m.txt", "--duration", "30"});
  EXPECT_EQ(a.command(), "train");
  EXPECT_EQ(a.get("out"), "m.txt");
  EXPECT_DOUBLE_EQ(a.get_double("duration", 0.0), 30.0);
  EXPECT_TRUE(a.has("out"));
  EXPECT_FALSE(a.has("nope"));
}

TEST(Cli, EmptyArgvIsEmptyCommand) {
  const CliArgs a = parse({});
  EXPECT_TRUE(a.command().empty());
}

TEST(Cli, FlagsWithoutCommand) {
  const CliArgs a = parse({"--x", "1"});
  EXPECT_TRUE(a.command().empty());
  EXPECT_EQ(a.get("x"), "1");
}

TEST(Cli, BooleanSwitches) {
  const CliArgs a = parse({"run", "--verbose", "--n", "3"}, {"verbose"});
  EXPECT_TRUE(a.get_bool("verbose"));
  EXPECT_FALSE(a.get_bool("quiet"));
  EXPECT_EQ(a.get_int("n", 0), 3);
}

TEST(Cli, Defaults) {
  const CliArgs a = parse({"x"});
  EXPECT_EQ(a.get_or("missing", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(a.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(a.get_int("missing", 7), 7);
}

TEST(Cli, MissingRequiredThrows) {
  const CliArgs a = parse({"x"});
  EXPECT_THROW((void)a.get("required"), ContractViolation);
}

TEST(Cli, MalformedInputThrows) {
  EXPECT_THROW((void)parse({"cmd", "stray-positional"}), ContractViolation);
  EXPECT_THROW((void)parse({"cmd", "--dangling"}), ContractViolation);
  EXPECT_THROW((void)parse({"cmd", "--"}), ContractViolation);
}

TEST(Cli, NumericValidation) {
  const CliArgs a = parse({"x", "--v", "12abc", "--f", "1.5"});
  EXPECT_THROW((void)a.get_double("v", 0.0), ContractViolation);
  EXPECT_THROW((void)a.get_int("f", 0), ContractViolation);  // not integral
  EXPECT_DOUBLE_EQ(a.get_double("f", 0.0), 1.5);
  // Numeric but no int: rejected before the (undefined) cast.
  for (const char* bad : {"1e20", "-1e20", "2147483648", "nan", "inf",
                          "-inf"}) {
    const CliArgs b = parse({"x", "--jobs", bad});
    EXPECT_THROW((void)b.get_int("jobs", 0), ContractViolation) << bad;
  }
  EXPECT_EQ(parse({"x", "--n", "-2147483648"}).get_int("n", 0),
            -2147483647 - 1);
}

TEST(Cli, FlagNamesEnumerated) {
  const CliArgs a = parse({"x", "--a", "1", "--b", "2", "--v"}, {"v"});
  const auto names = a.flag_names();
  EXPECT_EQ(names.size(), 3u);
}

}  // namespace
}  // namespace voprof::util
