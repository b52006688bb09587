#pragma once
/// \file report.hpp
/// What a workload run reports: the operation counts, the metrics of
/// the final JSON line and the human-readable table printed above it.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace voprof::e2e {

/// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs and short phases, for the self-test.
  bool smoke = false;
  std::string voprofd;
  std::string work_dir = ".";
  std::string scenarios_dir = "scenarios";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// A correctness check failed (a mismatch, not a shed request).
  bool mismatch = false;
  /// Metrics of the final JSON line, by name.
  std::map<std::string, Metric> metrics;
  /// Lines printed above the JSON line.
  std::vector<std::string> table;

  /// Add a table row: name, value, unit and a free-form note.
  void row(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  void heading(const std::string& text);
};

/// The workload-neutral end-to-end metrics every workload reports
/// (BENCHMARK.json `end_to_end`), each with what it is on the workload.
struct EndToEnd {
  double setup_s = 0.0;
  double peak_rss_mib = 0.0;
  double op_p50_ms = 0.0;
  double work_per_s = 0.0;
  std::string setup_is;
  std::string rss_of;
  std::string op_is;
  std::string work_is;
};
/// Print the end-to-end rows and fail_frac; with `result`, also make
/// them the metrics of the result line.
void put_end_to_end(Report& rep, const EndToEnd& e, bool result);

/// Per-layer metric names and units (BENCHMARK.json `per_layer`), all
/// reported on every workload; a layer that does no work reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
/// Fill every per-layer metric from `values` (absent names read 0).
void put_per_layer(Report& rep, const std::map<std::string, double>& values);

/// Print the per-category self-time table of a trace.
void self_time_rows(Report& rep, const std::string& title,
                    const std::map<std::string, double>& self_ms);

Report run_train(const RunConfig& cfg);
Report run_simulate(const RunConfig& cfg);
Report run_serve(const RunConfig& cfg);

/// Peak resident set size (VmHWM) of /proc/<pid>, MiB; "self" for this
/// process.
[[nodiscard]] double peak_rss_mib(const std::string& pid);

/// Seed of scenario `index` derived from the benchmark seed; small
/// enough for the `seed` key of a scenario INI file.
[[nodiscard]] std::uint64_t scenario_seed(std::uint64_t seed,
                                          std::uint64_t index);

/// Median of a non-empty sample (0 for an empty one).
[[nodiscard]] double median_of(const std::vector<double>& xs);

/// Run the benchmark's own unit checks; returns the number of failures.
int run_self_tests();

}  // namespace voprof::e2e
