// voprof-lint self-test: the masking scanner, every rule (positive and
// near-miss negative cases), the fixture tree under tests/lint_fixtures
// (must fail), and the repository itself (must be clean — this is the
// zero-findings baseline CI enforces).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint/lint.hpp"

#ifndef VOPROF_LINT_FIXTURE_DIR
#error "VOPROF_LINT_FIXTURE_DIR must be defined by the build"
#endif
#ifndef VOPROF_LINT_REPO_ROOT
#error "VOPROF_LINT_REPO_ROOT must be defined by the build"
#endif

namespace {

using voprof::lint::Finding;
using voprof::lint::lint_file_content;
using voprof::lint::lint_tree;
using voprof::lint::LintReport;
using voprof::lint::mask_comments_and_strings;

std::size_t count_rule(const std::vector<Finding>& findings,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&rule](const Finding& f) { return f.rule == rule; }));
}

TEST(Mask, StripsLineAndBlockComments) {
  const std::string masked =
      mask_comments_and_strings("int a; // rand()\nint /* float */ b;\n");
  EXPECT_EQ(masked.find("rand"), std::string::npos);
  EXPECT_EQ(masked.find("float"), std::string::npos);
  EXPECT_NE(masked.find("int a;"), std::string::npos);
  EXPECT_NE(masked.find("b;"), std::string::npos);
}

TEST(Mask, StripsStringAndCharLiteralsButKeepsLines) {
  const std::string masked = mask_comments_and_strings(
      "auto s = \"assert( in string\";\nchar c = '\\\"';\nint x;\n");
  EXPECT_EQ(masked.find("assert"), std::string::npos);
  EXPECT_NE(masked.find("int x;"), std::string::npos);
  EXPECT_EQ(std::count(masked.begin(), masked.end(), '\n'), 3);
}

TEST(Mask, StripsRawStrings) {
  const std::string masked = mask_comments_and_strings(
      "auto s = R\"(rand() and float)\";\nint keep;\n");
  EXPECT_EQ(masked.find("rand"), std::string::npos);
  EXPECT_EQ(masked.find("float"), std::string::npos);
  EXPECT_NE(masked.find("int keep;"), std::string::npos);
}

TEST(Rules, NakedAssertFlaggedOutsideTests) {
  const auto findings = lint_file_content(
      "src/util/x.cpp", "#include <cassert>\nvoid f() { assert(true); }\n");
  EXPECT_EQ(count_rule(findings, "naked-assert"), 2U);
}

TEST(Rules, AssertAllowedInTests) {
  const auto findings = lint_file_content(
      "tests/test_x.cpp", "#include <cassert>\nvoid f() { assert(true); }\n");
  EXPECT_EQ(count_rule(findings, "naked-assert"), 0U);
}

TEST(Rules, StaticAssertAndNamedAssertAreNotFlagged) {
  const auto findings = lint_file_content(
      "src/util/x.cpp",
      "static_assert(true);\nvoid my_assert(bool);\nvoid g() { "
      "my_assert(true); }\n");
  EXPECT_EQ(count_rule(findings, "naked-assert"), 0U);
}

TEST(Rules, FloatFlaggedOnlyInModelEngineCode) {
  const std::string body = "double f(float x) { return x; }\n";
  EXPECT_EQ(count_rule(lint_file_content("src/core/x.cpp", body),
                       "float-in-model"),
            1U);
  EXPECT_EQ(count_rule(lint_file_content("include/voprof/xensim/x.hpp",
                                         "#pragma once\n" + body),
            "float-in-model"),
            1U);
  EXPECT_EQ(count_rule(lint_file_content("src/util/x.cpp", body),
                       "float-in-model"),
            0U);
}

TEST(Rules, FloatInIdentifierNotFlagged) {
  const auto findings = lint_file_content(
      "src/core/x.cpp", "int floaty = 1; int a_float_b = 2;\n");
  EXPECT_EQ(count_rule(findings, "float-in-model"), 0U);
}

TEST(Rules, CoutFlaggedInLibraryCodeOnly) {
  const std::string body = "#include <iostream>\nvoid p() { std::cout; }\n";
  EXPECT_EQ(count_rule(lint_file_content("src/xensim/x.cpp", body),
                       "cout-in-library"),
            1U);
  EXPECT_EQ(count_rule(lint_file_content("tools/voprofctl.cpp", body),
                       "cout-in-library"),
            0U);
}

TEST(Rules, RawRandFlaggedEverywhereIncludingQualified) {
  EXPECT_EQ(count_rule(lint_file_content("bench/x.cpp",
                                         "int r = rand();\nsrand(1);\n"),
                       "raw-rand"),
            2U);
  EXPECT_EQ(count_rule(lint_file_content("src/util/x.cpp",
                                         "int r = std::rand();\n"),
                       "raw-rand"),
            1U);
}

TEST(Rules, RawThreadFlaggedOutsideTaskPool) {
  const std::string body = "#include <thread>\nstd::thread t([] {});\n";
  EXPECT_EQ(count_rule(lint_file_content("src/core/x.cpp", body),
                       "raw-thread"),
            1U);
  EXPECT_EQ(count_rule(lint_file_content("bench/x.cpp",
                                         "std::jthread t([] {});\n"),
                       "raw-thread"),
            1U);
  // The pool implementation itself is the one sanctioned home.
  EXPECT_EQ(count_rule(lint_file_content("src/util/task_pool.cpp", body),
                       "raw-thread"),
            0U);
  EXPECT_EQ(count_rule(lint_file_content(
                           "include/voprof/util/task_pool.hpp",
                           "#pragma once\nstd::vector<std::thread> w;\n"),
                       "raw-thread"),
            0U);
}

TEST(Rules, StaticThreadQueriesNotFlagged) {
  const auto findings = lint_file_content(
      "src/core/x.cpp",
      "auto n = std::thread::hardware_concurrency();\n"
      "auto id = std::this_thread::get_id();\n"
      "int threads = 3;\n");
  EXPECT_EQ(count_rule(findings, "raw-thread"), 0U);
}

TEST(Rules, SteadyClockFlaggedOutsideBenchObsTests) {
  const std::string body =
      "#include <chrono>\nauto t = std::chrono::steady_clock::now();\n";
  EXPECT_EQ(count_rule(lint_file_content("src/core/x.cpp", body),
                       "raw-steady-clock"),
            1U);
  EXPECT_EQ(count_rule(lint_file_content("tools/x.cpp", body),
                       "raw-steady-clock"),
            1U);
  // bench/, the obs implementation and tests are the sanctioned homes.
  EXPECT_EQ(count_rule(lint_file_content("bench/x.cpp", body),
                       "raw-steady-clock"),
            0U);
  EXPECT_EQ(count_rule(lint_file_content("src/obs/trace.cpp", body),
                       "raw-steady-clock"),
            0U);
  EXPECT_EQ(count_rule(lint_file_content("include/voprof/obs/trace.hpp",
                                         "#pragma once\n" + body),
                       "raw-steady-clock"),
            0U);
  EXPECT_EQ(count_rule(lint_file_content("tests/test_x.cpp", body),
                       "raw-steady-clock"),
            0U);
  // Other clocks and mere mentions of the type do not fire.
  EXPECT_EQ(count_rule(lint_file_content(
                           "src/core/x.cpp",
                           "auto t = std::chrono::system_clock::now();\n"
                           "using clock = std::chrono::steady_clock;\n"),
                       "raw-steady-clock"),
            0U);
}

TEST(Rules, RequireFlaggedInToolsAndServeOnly) {
  const std::string body =
      "VOPROF_REQUIRE(ok);\nVOPROF_REQUIRE_MSG(ok, \"m\");\n"
      "MY_VOPROF_REQUIRE(ok);\n// VOPROF_REQUIRE(ok);\n";
  EXPECT_EQ(count_rule(lint_file_content("tools/voprofctl.cpp", body),
                       "require-in-frontend"),
            2U);
  EXPECT_EQ(count_rule(lint_file_content("src/serve/service.cpp", body),
                       "require-in-frontend"),
            2U);
  EXPECT_EQ(count_rule(lint_file_content("src/core/x.cpp", body),
                       "require-in-frontend"),
            0U);
  EXPECT_EQ(count_rule(lint_file_content("bench/harness.cpp", body),
                       "require-in-frontend"),
            0U);
}

TEST(Rules, MemberRandNotFlagged) {
  const auto findings = lint_file_content(
      "src/util/x.cpp", "int r = rng.rand();\nint q = gen->rand();\n");
  EXPECT_EQ(count_rule(findings, "raw-rand"), 0U);
}

TEST(Rules, HeaderGuardAcceptsPragmaOnceAndClassicGuard) {
  EXPECT_EQ(count_rule(lint_file_content("include/voprof/util/a.hpp",
                                         "#pragma once\nint x;\n"),
                       "header-guard"),
            0U);
  EXPECT_EQ(count_rule(lint_file_content(
                           "include/voprof/util/b.hpp",
                           "#ifndef VOPROF_B_HPP\n#define VOPROF_B_HPP\nint "
                           "x;\n#endif\n"),
                       "header-guard"),
            0U);
  // Leading comment before the pragma is fine (the repo's style).
  EXPECT_EQ(count_rule(lint_file_content("include/voprof/util/c.hpp",
                                         "// (c) header\n#pragma once\nint "
                                         "x;\n"),
                       "header-guard"),
            0U);
}

TEST(Rules, HeaderGuardRejectsUnguardedAndMismatchedGuard) {
  EXPECT_EQ(count_rule(lint_file_content("include/voprof/util/a.hpp",
                                         "int x;\n"),
                       "header-guard"),
            1U);
  EXPECT_EQ(count_rule(lint_file_content(
                           "include/voprof/util/b.hpp",
                           "#ifndef GUARD_A\n#define GUARD_B\nint x;\n"),
                       "header-guard"),
            1U);
}

TEST(Fixtures, TreeFailsWithEveryExpectedRule) {
  const LintReport report = lint_tree(VOPROF_LINT_FIXTURE_DIR);
  EXPECT_FALSE(report.clean());
  // One bad file per rule, plus clean decoys that must not fire.
  EXPECT_EQ(count_rule(report.findings, "float-in-model"), 3U);
  EXPECT_EQ(count_rule(report.findings, "cout-in-library"), 1U);
  EXPECT_EQ(count_rule(report.findings, "naked-assert"), 2U);
  EXPECT_EQ(count_rule(report.findings, "header-guard"), 1U);
  EXPECT_EQ(count_rule(report.findings, "raw-rand"), 2U);
  EXPECT_EQ(count_rule(report.findings, "raw-thread"), 1U);
  EXPECT_EQ(count_rule(report.findings, "raw-steady-clock"), 1U);
  EXPECT_EQ(count_rule(report.findings, "require-in-frontend"), 2U);
  for (const Finding& f : report.findings) {
    EXPECT_EQ(f.file.find("good_"), std::string::npos) << f.format();
    EXPECT_EQ(f.file.find("clean_"), std::string::npos) << f.format();
  }
}

TEST(Fixtures, FindingsCarryLocationAndFormat) {
  const LintReport report = lint_tree(VOPROF_LINT_FIXTURE_DIR);
  ASSERT_FALSE(report.findings.empty());
  for (const Finding& f : report.findings) {
    EXPECT_FALSE(f.file.empty());
    EXPECT_GT(f.line, 0U);
    const std::string s = f.format();
    EXPECT_NE(s.find(f.rule), std::string::npos);
    EXPECT_NE(s.find(':'), std::string::npos);
  }
}

TEST(Repo, IsLintClean) {
  const LintReport report = lint_tree(VOPROF_LINT_REPO_ROOT);
  EXPECT_GT(report.files_scanned, 100U);
  for (const Finding& f : report.findings) {
    ADD_FAILURE() << f.format();
  }
}

TEST(Tree, ThrowsOnMissingDirectory) {
  EXPECT_THROW((void)lint_tree("/nonexistent/voprof-lint-root"),
               std::runtime_error);
}

}  // namespace
