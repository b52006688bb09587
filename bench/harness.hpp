#pragma once
/// \file harness.hpp
/// Machine-readable benchmark harness for the bench_* binaries.
///
/// Every bench binary owns a Session (usually the process-wide
/// Session::global()). Perf benches drive Session::bench — warmup
/// runs, N timed repetitions, median/p10/p90 wall-time statistics and
/// sim-seconds-per-wall-second throughput — while the figure/table
/// reproductions record their sweeps as one-shot sections via
/// bench/common.hpp. On exit the session serializes everything,
/// including a capture of the build/runtime environment, to
/// BENCH_<name>.json (util::Json, schema "voprof-bench-1") so the perf
/// trajectory can be diffed across commits with `voprofctl bench-diff`
/// and gated in CI.
///
/// Environment knobs:
///   VOPROF_BENCH_DIR     output directory (default: current directory)
///   VOPROF_BENCH_JSON=0  disable the JSON emission entirely

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "command_line.hpp"
#include "voprof/util/cli.hpp"
#include "voprof/util/json.hpp"

namespace voprof::bench::harness {

/// What one timed repetition reports back to the harness.
struct RepResult {
  /// Simulated seconds advanced during the rep; 0 when the benchmark
  /// has no simulation clock (e.g. the regression fits).
  double sim_s = 0.0;
  /// Order-independent digest of the rep's computed results. Committed
  /// to the JSON (last rep) so baseline diffs can prove two builds ran
  /// the same deterministic workload, not just at different speeds.
  double checksum = 0.0;
};

/// Repetition policy for Session::bench.
struct BenchOptions {
  int warmup = 1;  ///< untimed runs before measurement
  int reps = 5;    ///< timed repetitions (>= 1)
};

/// Order statistics over the timed repetitions.
struct Stats {
  double min = 0.0;
  double p10 = 0.0;
  double median = 0.0;
  double p90 = 0.0;
  double max = 0.0;
  double mean = 0.0;

  /// Compute from a non-empty sample (copies, then sorts).
  [[nodiscard]] static Stats of(std::vector<double> xs);
};

/// One benchmark's recorded repetitions.
struct Measurement {
  std::string name;
  int warmup = 0;
  int reps = 0;
  double sim_s = 0.0;    ///< simulated seconds per rep (0 = n/a)
  double checksum = 0.0; ///< last rep's RepResult::checksum
  std::vector<double> wall_s;      ///< per-rep wall seconds
  std::vector<double> throughput;  ///< per-rep sim_s / wall_s (may be empty)
};

/// Snapshot of the build and host environment, embedded in the JSON so
/// a baseline file is self-describing.
struct EnvInfo {
  std::string compiler;
  std::string build_type;
  std::string sanitizers;
  std::string git_describe;  ///< `git describe --always --dirty` at configure
  std::string cxx_flags;     ///< effective CMAKE_CXX_FLAGS for the build type
  std::string os;
  int hardware_threads = 0;
  std::string timestamp_utc;
};

[[nodiscard]] EnvInfo capture_env();

/// Collects measurements and writes BENCH_<name>.json.
class Session {
 public:
  /// \param binary_name  the executable's name; a leading "bench_" is
  ///        stripped for the output file name.
  explicit Session(std::string binary_name);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Run `body` warmup + reps times, timing each rep.
  void bench(const std::string& name, BenchOptions opt,
             const std::function<RepResult()>& body);

  /// Record an externally timed one-shot section (the figure benches'
  /// sweeps, timed inside bench::measure_cells).
  void record_section(const std::string& name, double wall_s,
                      double sim_s = 0.0, double checksum = 0.0);

  /// Deterministic name for an unlabeled section: "<hint>#<counter>".
  [[nodiscard]] std::string next_section_name(const std::string& hint);

  [[nodiscard]] const std::string& binary_name() const noexcept {
    return binary_name_;
  }
  [[nodiscard]] const std::vector<Measurement>& measurements() const noexcept {
    return measurements_;
  }

  [[nodiscard]] util::Json to_json() const;

  /// $VOPROF_BENCH_DIR/BENCH_<stem>.json (default directory ".").
  [[nodiscard]] std::string output_path() const;

  /// Serialize the measurements recorded since the last write, if any.
  /// Respects VOPROF_BENCH_JSON=0. One attempt per batch: returns false,
  /// after one "harness: cannot write" line on stderr, when the file
  /// cannot be written, and the destructor does not retry it.
  [[nodiscard]] bool write_file();

  /// The destructor writes the file when measurements were recorded
  /// and no explicit write happened; benches that must not touch the
  /// filesystem can turn this off.
  void set_auto_write(bool enabled) noexcept { auto_write_ = enabled; }

  /// Process-wide session named after the running executable. All of
  /// bench/common.hpp records here.
  [[nodiscard]] static Session& global();

 private:
  std::string binary_name_;
  EnvInfo env_;
  std::vector<Measurement> measurements_;
  int section_counter_ = 0;
  bool auto_write_ = true;
  bool dirty_ = false;
};

/// A bench's command line: `flags` plus the shared --trace-out FILE,
/// no operands, usage "usage: <argv0> <synopsis> [--trace-out FILE]".
[[nodiscard]] tools::CommandLine command_line(
    const char* argv0, const std::string& synopsis = "",
    std::vector<util::FlagSpec> flags = {});

/// End a bench run: write Session::global()'s BENCH record and flush
/// the trace the command line enabled (TraceCollector::write_file()).
/// Returns `rc`, or 1 when `rc` is 0 and either write failed. Every
/// bench main returns through it: a static destructor, the flush of
/// last resort, cannot change the exit code.
[[nodiscard]] int finish(int rc = 0);

/// The command line of a bench with no flags of its own: --help exits
/// 0, anything but --trace-out FILE exits 2, and --trace-out or
/// VOPROF_TRACE is enabled before the bench measures anything.
void parse_cli_or_exit(int argc, const char* const* argv);

}  // namespace voprof::bench::harness
