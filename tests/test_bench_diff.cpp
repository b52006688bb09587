#include "bench_diff.hpp"

#include <gtest/gtest.h>

#include <string>

#include "voprof/util/json.hpp"

namespace voprof::tools {
namespace {

/// Minimal valid voprof-bench-1 record with one benchmark per
/// (name, median) pair.
util::Json record(
    const std::vector<std::pair<std::string, double>>& benches) {
  util::Json doc = util::Json::object();
  doc.set("schema", "voprof-bench-1");
  doc.set("binary", "bench_fixture");
  util::Json arr = util::Json::array();
  for (const auto& [name, median] : benches) {
    util::Json b = util::Json::object();
    b.set("name", name);
    util::Json wall = util::Json::object();
    wall.set("median", median);
    b.set("wall_s", std::move(wall));
    arr.push_back(std::move(b));
  }
  doc.set("benchmarks", std::move(arr));
  return doc;
}

TEST(BenchDiff, NeutralWithinThreshold) {
  const auto report = bench_diff(record({{"a", 1.0}, {"b", 0.010}}),
                                 record({{"a", 1.1}, {"b", 0.009}}), 0.25)
                          .value();
  ASSERT_EQ(report.compared.size(), 2u);
  EXPECT_EQ(report.compared[0].verdict, BenchVerdict::kNeutral);
  EXPECT_EQ(report.compared[1].verdict, BenchVerdict::kNeutral);
  EXPECT_FALSE(report.has_regression());
  EXPECT_FALSE(report.has_improvement());
  EXPECT_EQ(bench_diff_exit_code(report, false), kBenchDiffExitNeutral);
  EXPECT_EQ(bench_diff_exit_code(report, true), kBenchDiffExitNeutral);
}

TEST(BenchDiff, RegressionBeyondThreshold) {
  const auto report =
      bench_diff(record({{"a", 1.0}}), record({{"a", 1.3}}), 0.25).value();
  ASSERT_EQ(report.compared.size(), 1u);
  EXPECT_EQ(report.compared[0].verdict, BenchVerdict::kRegression);
  EXPECT_NEAR(report.compared[0].ratio, 1.3, 1e-12);
  EXPECT_TRUE(report.has_regression());
  // A regression wins over any improvement for the exit code.
  EXPECT_EQ(bench_diff_exit_code(report, false), kBenchDiffExitRegression);
  EXPECT_EQ(bench_diff_exit_code(report, true), kBenchDiffExitRegression);
}

TEST(BenchDiff, ImprovementBeyondThreshold) {
  const auto report =
      bench_diff(record({{"a", 1.0}}), record({{"a", 0.5}}), 0.25).value();
  ASSERT_EQ(report.compared.size(), 1u);
  EXPECT_EQ(report.compared[0].verdict, BenchVerdict::kImprovement);
  EXPECT_TRUE(report.has_improvement());
  // Improvements only fail the gate when explicitly requested.
  EXPECT_EQ(bench_diff_exit_code(report, false), kBenchDiffExitNeutral);
  EXPECT_EQ(bench_diff_exit_code(report, true), kBenchDiffExitImprovement);
}

TEST(BenchDiff, MixedVerdictsPreferRegression) {
  const auto report = bench_diff(record({{"slow", 1.0}, {"fast", 1.0}}),
                                 record({{"slow", 2.0}, {"fast", 0.5}}), 0.25)
                          .value();
  EXPECT_TRUE(report.has_regression());
  EXPECT_TRUE(report.has_improvement());
  EXPECT_EQ(bench_diff_exit_code(report, true), kBenchDiffExitRegression);
}

TEST(BenchDiff, UnpairedBenchmarksAreListedNotCompared) {
  const auto report = bench_diff(record({{"a", 1.0}, {"old", 1.0}}),
                                 record({{"a", 1.0}, {"new", 1.0}}), 0.25)
                          .value();
  ASSERT_EQ(report.compared.size(), 1u);
  EXPECT_EQ(report.compared[0].name, "a");
  ASSERT_EQ(report.only_in_baseline.size(), 1u);
  EXPECT_EQ(report.only_in_baseline[0], "old");
  ASSERT_EQ(report.only_in_current.size(), 1u);
  EXPECT_EQ(report.only_in_current[0], "new");
}

TEST(BenchDiff, ThresholdBoundaryIsInclusiveNeutral) {
  // ratio exactly 1 + threshold is NOT a regression (strictly greater).
  const auto report =
      bench_diff(record({{"a", 1.0}}), record({{"a", 1.25}}), 0.25).value();
  EXPECT_EQ(report.compared[0].verdict, BenchVerdict::kNeutral);
}

/// The error code of a comparison the test expects to fail.
util::Errc rejection(const util::Result<BenchDiffReport>& r) {
  EXPECT_FALSE(r.ok());
  return r.ok() ? util::Errc::kInternal : r.error().code;
}

TEST(BenchDiff, RejectsWrongSchema) {
  util::Json bad = record({{"a", 1.0}});
  bad.set("schema", "something-else");
  EXPECT_EQ(rejection(bench_diff(bad, record({{"a", 1.0}}), 0.25)),
            util::Errc::kValidation);
  EXPECT_EQ(rejection(bench_diff(record({{"a", 1.0}}), util::Json::array(),
                                 0.25)),
            util::Errc::kValidation);
}

TEST(BenchDiff, RejectsMalformedRecord) {
  // Missing wall_s.median.
  util::Json doc = util::Json::object();
  doc.set("schema", "voprof-bench-1");
  util::Json arr = util::Json::array();
  util::Json b = util::Json::object();
  b.set("name", "a");
  arr.push_back(std::move(b));
  doc.set("benchmarks", std::move(arr));
  EXPECT_EQ(rejection(bench_diff(doc, doc, 0.25)), util::Errc::kValidation);
  // Non-positive median.
  EXPECT_EQ(rejection(bench_diff(record({{"a", 0.0}}), record({{"a", 0.0}}),
                                 0.25)),
            util::Errc::kValidation);
}

TEST(BenchDiff, RejectsBadThresholdAndMissingFile) {
  EXPECT_EQ(rejection(bench_diff(record({}), record({}), 0.0)),
            util::Errc::kValidation);
  EXPECT_EQ(rejection(bench_diff(record({}), record({}), 10.0)),
            util::Errc::kValidation);
  EXPECT_EQ(rejection(bench_diff_files("/nonexistent/base.json",
                                       "/nonexistent/cur.json", 0.25)),
            util::Errc::kIo);
}

TEST(BenchDiff, FormatMentionsEveryBenchmark) {
  const auto report = bench_diff(record({{"a", 1.0}, {"gone", 1.0}}),
                                 record({{"a", 2.0}, {"new", 1.0}}), 0.25)
                          .value();
  const std::string text = format_bench_diff(report, 0.25);
  EXPECT_NE(text.find("REGRESSION"), std::string::npos);
  EXPECT_NE(text.find("gone"), std::string::npos);
  EXPECT_NE(text.find("new"), std::string::npos);
}

}  // namespace
}  // namespace voprof::tools
