#pragma once
/// \file runner.hpp
/// Deterministic parallel experiment runner.
///
/// The paper's measurement study and evaluation are built from sweeps
/// — Table II's intensity x resource grid, the Fig. 2-5 VM-count
/// scenarios, the Fig. 7-10 trace-driven predictions — whose cells are
/// independent simulations. This layer fans those cells across a
/// util::TaskPool while keeping results bit-identical for ANY worker
/// count:
///
///  * every task's RNG seed is a pure function of (base_seed,
///    task_index) via util::seed_for — no shared generator state, no
///    dependence on which worker runs first;
///  * results are collected at their task index and aggregated in
///    index order (util::RunningStats::merge is order-fixed), so a
///    `--jobs 8` sweep writes byte-identical CSV to a `--jobs 1` run.
///
/// Benches declare `--jobs N` (jobs_flag) and read it with
/// options_from_cli (default: all hardware threads; `--jobs 1`
/// reproduces the historical serial path), then drive their cells
/// through SweepRunner::map.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "voprof/core/trainer.hpp"
#include "voprof/obs/metrics.hpp"
#include "voprof/obs/trace.hpp"
#include "voprof/util/cli.hpp"
#include "voprof/util/csv.hpp"
#include "voprof/util/rng.hpp"
#include "voprof/util/task_pool.hpp"
#include "voprof/workloads/levels.hpp"

namespace voprof::runner {

/// Per-task seed derivation (SplitMix64 mixing); re-exported from
/// util so scenario replications and the runner share one scheme.
using util::seed_for;

/// How a sweep executes. jobs = 0 means "all hardware threads".
struct RunOptions {
  int jobs = 0;
};

/// The runner's flag, `--jobs N` (N >= 0), for a command's declared
/// flags: CliArgs::parse rejects a negative value.
[[nodiscard]] util::FlagSpec jobs_flag();

/// RunOptions from a command line parsed with jobs_flag() declared.
[[nodiscard]] RunOptions options_from_cli(const util::CliArgs& args);

/// A TaskPool wrapped with the index-ordered mapping discipline the
/// determinism guarantee rests on.
class SweepRunner {
 public:
  explicit SweepRunner(RunOptions opts = {})
      : pool_(opts.jobs <= 0 ? 0 : static_cast<std::size_t>(opts.jobs)) {}

  [[nodiscard]] std::size_t jobs() const noexcept { return pool_.jobs(); }

  /// Evaluate fn(i) for i in [0, n); results come back ordered by i.
  template <typename Fn>
  [[nodiscard]] auto map(std::size_t n, Fn&& fn) {
    VOPROF_WALL_SPAN("runner", "SweepRunner.map");
    cells_counter().add(n);
    return pool_.parallel_map(n, std::forward<Fn>(fn));
  }

  template <typename Fn>
  void for_each(std::size_t n, Fn&& fn) {
    VOPROF_WALL_SPAN("runner", "SweepRunner.for_each");
    cells_counter().add(n);
    pool_.parallel_for_each(n, std::forward<Fn>(fn));
  }

  [[nodiscard]] util::TaskPool& pool() noexcept { return pool_; }

 private:
  static obs::Counter& cells_counter() {
    static obs::Counter& c =
        obs::Registry::global().counter("runner.cells");
    return c;
  }

  util::TaskPool pool_;
};

// --- Micro-benchmark sweep (the runner demo) --------------------------

/// The Table II sweep as a parallel workload: one task per
/// (vm_count, workload kind, intensity level) cell, each on a fresh
/// simulated testbed seeded with seed_for(base_seed, cell_index).
struct MicroSweepConfig {
  std::vector<int> vm_counts = {1};
  std::vector<wl::WorkloadKind> kinds = {
      wl::WorkloadKind::kCpu, wl::WorkloadKind::kMem, wl::WorkloadKind::kIo,
      wl::WorkloadKind::kBw};
  /// Intensity levels per kind (<= wl::kLevelCount).
  std::size_t levels = wl::kLevelCount;
  util::SimMicros duration = util::seconds(30.0);
  std::uint64_t base_seed = 42;
  sim::MachineSpec machine;
  sim::VmSpec vm;
  sim::CostModel costs;
};

/// Run the sweep and return one CSV row per cell with the mean (and
/// selected stddev) utilizations over the cell's 1 s samples, then a
/// summary row (kind = -1) merging every cell's streaming stats via
/// RunningStats::merge in cell order. The document is byte-identical
/// for every RunOptions::jobs value.
[[nodiscard]] util::CsvDocument run_micro_sweep(const MicroSweepConfig& config,
                                                const RunOptions& opts);

// --- Trained-model cache ----------------------------------------------

/// Process-wide immutable cache of Sec. VI-A trainings, so a binary
/// that reproduces several figures trains the Table II model once and
/// shares it instead of re-running the sweep per figure. Thread-safe;
/// entries are never evicted or mutated.
class ModelCache {
 public:
  /// Returns the models for (method, cell duration, seed), training
  /// them on first use. `jobs` parallelizes that first training only
  /// — the fitted models are independent of it.
  [[nodiscard]] const model::TrainedModels& get(model::RegressionMethod method,
                                                util::SimMicros duration,
                                                std::uint64_t seed, int jobs);

  /// Trainings performed so far (for tests: N gets == 1 training).
  [[nodiscard]] std::size_t trainings() const noexcept;

 private:
  struct Key {
    int method;
    util::SimMicros duration;
    std::uint64_t seed;
    [[nodiscard]] bool operator<(const Key& o) const noexcept {
      if (method != o.method) return method < o.method;
      if (duration != o.duration) return duration < o.duration;
      return seed < o.seed;
    }
  };
  mutable std::mutex mutex_;
  std::map<Key, std::unique_ptr<const model::TrainedModels>> cache_;
  std::size_t trainings_ = 0;
};

/// The shared cache instance used by the figure benches.
[[nodiscard]] ModelCache& model_cache();

}  // namespace voprof::runner
