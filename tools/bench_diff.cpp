#include "bench_diff.hpp"

#include <algorithm>
#include <cmath>

#include "voprof/util/table.hpp"

namespace voprof::tools {

namespace {

/// name -> median wall seconds for every benchmark in a record, in
/// document order. Validates the voprof-bench-1 schema on the way.
util::Result<std::vector<std::pair<std::string, double>>> medians(
    const util::Json& doc, const char* label) {
  const auto invalid = [label](const std::string& what) {
    return util::Error{util::Errc::kValidation, what,
                       std::string("bench-diff ") + label};
  };
  const util::Json* schema = doc.find("schema");
  const util::Json* benchmarks = doc.find("benchmarks");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "voprof-bench-1" || benchmarks == nullptr ||
      !benchmarks->is_array()) {
    return invalid("not a voprof-bench-1 record with a benchmarks array");
  }
  std::vector<std::pair<std::string, double>> out;
  for (const util::Json& b : benchmarks->as_array()) {
    const util::Json* name = b.find("name");
    const util::Json* wall = b.find("wall_s");
    const util::Json* median = wall != nullptr ? wall->find("median") : nullptr;
    if (name == nullptr || !name->is_string() || median == nullptr ||
        !median->is_number()) {
      return invalid("a benchmark lacks a name or a wall_s.median number");
    }
    if (!(median->as_number() > 0.0) || !std::isfinite(median->as_number())) {
      return invalid("benchmark \"" + name->as_string() +
                     "\" has a non-positive median");
    }
    out.emplace_back(name->as_string(), median->as_number());
  }
  return out;
}

}  // namespace

bool BenchDiffReport::has_regression() const noexcept {
  return std::any_of(compared.begin(), compared.end(), [](const auto& c) {
    return c.verdict == BenchVerdict::kRegression;
  });
}

bool BenchDiffReport::has_improvement() const noexcept {
  return std::any_of(compared.begin(), compared.end(), [](const auto& c) {
    return c.verdict == BenchVerdict::kImprovement;
  });
}

util::Result<BenchDiffReport> bench_diff(const util::Json& baseline,
                                         const util::Json& current,
                                         double threshold) {
  if (!(threshold > 0.0 && threshold < 10.0)) {
    return util::Error{util::Errc::kValidation,
                       "threshold must be in (0, 10)", "bench-diff"};
  }
  const auto base_medians = medians(baseline, "baseline");
  if (!base_medians.ok()) return base_medians.error();
  const auto cur_medians = medians(current, "current");
  if (!cur_medians.ok()) return cur_medians.error();
  const auto& base = base_medians.value();
  const auto& cur = cur_medians.value();

  BenchDiffReport report;
  for (const auto& [name, cur_median] : cur) {
    const auto it = std::find_if(
        base.begin(), base.end(),
        [&name = name](const auto& b) { return b.first == name; });
    if (it == base.end()) {
      report.only_in_current.push_back(name);
      continue;
    }
    BenchComparison c;
    c.name = name;
    c.baseline_median_s = it->second;
    c.current_median_s = cur_median;
    c.ratio = cur_median / it->second;
    if (c.ratio > 1.0 + threshold) {
      c.verdict = BenchVerdict::kRegression;
    } else if (c.ratio < 1.0 - threshold) {
      c.verdict = BenchVerdict::kImprovement;
    }
    report.compared.push_back(std::move(c));
  }
  for (const auto& [name, median] : base) {
    (void)median;
    const bool in_cur = std::any_of(
        cur.begin(), cur.end(),
        [&name = name](const auto& c) { return c.first == name; });
    if (!in_cur) report.only_in_baseline.push_back(name);
  }
  return report;
}

util::Result<BenchDiffReport> bench_diff_files(const std::string& baseline,
                                               const std::string& current,
                                               double threshold) {
  const util::Result<util::Json> base = util::Json::load_result(baseline);
  if (!base.ok()) return base.error();
  const util::Result<util::Json> cur = util::Json::load_result(current);
  if (!cur.ok()) return cur.error();
  return bench_diff(base.value(), cur.value(), threshold);
}

std::string format_bench_diff(const BenchDiffReport& report,
                              double threshold) {
  std::string out;
  out += "bench-diff (threshold " +
         util::fmt(threshold * 100.0, 0) + "% on median wall time)\n";
  for (const auto& c : report.compared) {
    const char* tag = c.verdict == BenchVerdict::kRegression ? "REGRESSION"
                      : c.verdict == BenchVerdict::kImprovement
                          ? "improvement"
                          : "ok";
    out += "  " + c.name + ": " + util::fmt(c.baseline_median_s * 1e3, 3) +
           " ms -> " + util::fmt(c.current_median_s * 1e3, 3) + " ms (" +
           util::fmt(c.ratio, 3) + "x)  " + tag + "\n";
  }
  for (const auto& n : report.only_in_baseline) {
    out += "  " + n + ": only in baseline (skipped)\n";
  }
  for (const auto& n : report.only_in_current) {
    out += "  " + n + ": only in current (skipped)\n";
  }
  return out;
}

int bench_diff_exit_code(const BenchDiffReport& report,
                         bool report_improvement) noexcept {
  if (report.has_regression()) return kBenchDiffExitRegression;
  if (report_improvement && report.has_improvement()) {
    return kBenchDiffExitImprovement;
  }
  return kBenchDiffExitNeutral;
}

}  // namespace voprof::tools
