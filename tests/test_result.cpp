/// util::Result<T, Error> — the error vocabulary of the public loader
/// APIs — and the *_result / throwing-shim pairing on the real loaders.

#include "voprof/util/result.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "voprof/core/serialize.hpp"
#include "voprof/scenario/scenario.hpp"
#include "voprof/util/csv.hpp"

namespace voprof::util {
namespace {

TEST(Result, HoldsValueOrError) {
  const Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(static_cast<bool>(good));
  EXPECT_EQ(good.value(), 7);

  const Result<int> bad(Error{Errc::kParse, "bad digit", "input:3"});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Errc::kParse);
  EXPECT_EQ(bad.error().message, "bad digit");
  EXPECT_EQ(bad.error().context, "input:3");
}

TEST(Result, AccessorsEnforceTheContract) {
  const Result<int> good(1);
  EXPECT_THROW((void)good.error(), ContractViolation);
  Result<int> bad(Error{Errc::kIo, "gone", "f.txt"});
  EXPECT_THROW((void)bad.value(), ContractViolation);
  EXPECT_THROW((void)std::move(bad).take(), ContractViolation);
}

TEST(Result, WorksWithMoveOnlyTypes) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  const std::unique_ptr<int> owned = std::move(r).take();
  EXPECT_EQ(*owned, 5);
}

TEST(Result, ValueOrThrowBridgesToContractViolation) {
  EXPECT_EQ(std::move(Result<int>(3)).value_or_throw(), 3);
  try {
    (void)std::move(Result<int>(Error{Errc::kValidation, "nope", "ctx"}))
        .value_or_throw();
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    // The shim must preserve the structured message.
    EXPECT_NE(std::string(e.what()).find("nope"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("ctx"), std::string::npos);
  }
}

TEST(Result, ErrorToStringNamesCodeAndContext) {
  const Error err{Errc::kParse, "expected 'key = value'", "scn.conf:12"};
  EXPECT_EQ(err.to_string(),
            "parse error: expected 'key = value' (at scn.conf:12)");
  for (const Errc code : {Errc::kParse, Errc::kValidation, Errc::kIo,
                          Errc::kUnsupported, Errc::kInternal}) {
    EXPECT_NE(std::string(errc_name(code)), "");
  }
}

TEST(Result, ErrorHereMacroPointsAtTheCallSite) {
  const Error err = VOPROF_ERROR_HERE(Errc::kInternal, "boom");
  EXPECT_NE(err.context.find("test_result.cpp:"), std::string::npos);
}

// ----- the loader pairing: *_result never throws, shims still throw
TEST(LoaderResults, MissingFilesAreIoErrorsNotThrows) {
  const auto csv = CsvDocument::load_result("/nonexistent/x.csv");
  ASSERT_FALSE(csv.ok());
  EXPECT_EQ(csv.error().code, Errc::kIo);

  const auto scn = scenario::ScenarioSpec::load_result("/nonexistent/x.scn");
  ASSERT_FALSE(scn.ok());
  EXPECT_EQ(scn.error().code, Errc::kIo);

  const auto models = model::load_models_file_result("/nonexistent/m.txt");
  ASSERT_FALSE(models.ok());
  EXPECT_EQ(models.error().code, Errc::kIo);
}

TEST(LoaderResults, ParseAndValidationCodesAreDistinguished) {
  // Malformed INI text -> kParse, with the line in the context.
  const auto broken = scenario::ScenarioSpec::parse_result("[broken\n");
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.error().code, Errc::kParse);

  // Well-formed INI violating scenario semantics -> kValidation.
  const auto invalid =
      scenario::ScenarioSpec::parse_result("[cluster]\nmachines = 0\n");
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.error().code, Errc::kValidation);

  // The throwing shim reports the same failure as ContractViolation.
  EXPECT_THROW((void)scenario::ScenarioSpec::parse("[cluster]\nmachines = 0\n"),
               ContractViolation);
}

TEST(WriterResults, CheckWritableKeepsFilesAndCreatesNone) {
  const std::string kept = ::testing::TempDir() + "/voprof_check_kept.txt";
  ASSERT_TRUE(write_file_result(kept, "keep\n").ok());
  EXPECT_TRUE(check_writable(kept).ok());
  EXPECT_EQ(read_file_result(kept).value(), "keep\n");
  std::filesystem::remove(kept);

  const std::string fresh = ::testing::TempDir() + "/voprof_check_fresh.txt";
  std::filesystem::remove(fresh);
  EXPECT_TRUE(check_writable(fresh).ok());
  EXPECT_FALSE(std::filesystem::exists(fresh));

  const auto missing_dir = check_writable("/nonexistent/dir/m.txt");
  ASSERT_FALSE(missing_dir.ok());
  EXPECT_EQ(missing_dir.error().code, Errc::kIo);
  EXPECT_EQ(missing_dir.error().context, "/nonexistent/dir/m.txt");
  EXPECT_FALSE(write_file_result("/nonexistent/dir/m.txt", "x").ok());
}

}  // namespace
}  // namespace voprof::util
