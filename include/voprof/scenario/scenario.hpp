#pragma once
/// \file scenario.hpp
/// Declarative experiment runner: describe a testbed in a small INI
/// file and run it — machines, guests with workloads, monitors — so
/// new measurement studies need no C++. Used by `voprofctl simulate`
/// and voprofd's `simulate` op; scenarios/*.conf are worked examples.
/// The keys of each section (all optional, default shown):
///   [cluster]     exactly one
///     seed               integer >= 0, default 42
///     machines           integer > 0, default 1
///     scheduler          macro | micro, default macro
///   [vm NAME]     one per guest, at least one; names are unique
///     machine            integer >= 0, < machines, default 0
///     cpu                number >= 0, <= 100 (percent), default 0
///     mem / io / bw      number >= 0 (MiB, blocks/s, Kb/s), default 0
///     bw_target_machine  integer >= 0, < machines  } both or neither:
///     bw_target_vm       a VM on that machine      } traffic to a VM
///     trace              CSV to replay (columns vm_cpu, optional
///                        vm_mem/vm_io/vm_bw), read relative to the
///                        working directory; excludes cpu/mem/io/bw
///     trace_interval     number > 0, seconds per CSV row, default 1
///   [monitor]     any number; none monitors machine 0
///     machine            integer >= 0, < machines, default 0
///   [run]         at most one
///     duration           number > 0, seconds, default 60
///     warmup             number >= 0, seconds, default 0
/// Any other section kind or key is an Errc::kValidation error naming
/// the section and the key.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "voprof/monitor/script.hpp"
#include "voprof/util/result.hpp"
#include "voprof/util/stats.hpp"
#include "voprof/workloads/trace.hpp"
#include "voprof/xensim/cluster.hpp"

namespace voprof::scenario {

/// Parsed, validated scenario description.
struct ScenarioSpec {
  std::uint64_t seed = 42;
  int machines = 1;
  sim::SchedulerMode scheduler = sim::SchedulerMode::kMacro;
  double warmup_s = 0.0;
  double duration_s = 60.0;

  struct VmEntry {
    std::string name;
    int machine = 0;
    double cpu_pct = 0.0;
    double mem_mib = 0.0;
    double io_blocks = 0.0;
    double bw_kbps = 0.0;
    int bw_target_machine = sim::NetTarget::kExternal;
    std::string bw_target_vm;
    /// The points of the `trace` CSV, read when the scenario was
    /// loaded; empty for steady levels (mutually exclusive).
    std::vector<wl::TracePoint> trace;
  };
  std::vector<VmEntry> vms;
  std::vector<int> monitored_machines;

  /// Parse + validate INI text. Parse errors carry Errc::kParse with a
  /// line context; an unknown section kind or key, a value of the wrong
  /// kind or out of its bound, and semantic problems (duplicate VM
  /// names, out-of-range machine indices...) carry Errc::kValidation
  /// with the offending section as context. Text names no file: a
  /// `trace` key is an error here (voprofd serves scenarios from text,
  /// and a request must not make it read a file).
  [[nodiscard]] static util::Result<ScenarioSpec> parse_result(
      const std::string& text);
  /// Read and parse a scenario file; here a `trace` key is read too
  /// (path relative to the working directory), and its CSV errors come
  /// back with the [vm] section as context.
  [[nodiscard]] static util::Result<ScenarioSpec> load_result(
      const std::string& path);

  /// Throwing shims over the *_result API (throw ContractViolation).
  /// Kept only because the end-to-end benchmark driver (e2e/bench)
  /// calls them; new code uses the *_result forms.
  [[nodiscard]] static ScenarioSpec parse(const std::string& text);
  [[nodiscard]] static ScenarioSpec load(const std::string& path);
};

/// Result: one report per monitored machine, keyed by machine index.
struct ScenarioResult {
  std::map<int, mon::MeasurementReport> reports;
  /// Summary table of every monitored entity's mean utilizations.
  [[nodiscard]] std::string summary() const;
};

/// Build the testbed and run it.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec);

/// Aggregate of several independent replications of one scenario.
/// Replication r runs with seed util::seed_for(spec.seed, r); its 1 s
/// samples are folded into per-entity streaming stats which are merged
/// across replications in replication order, so the aggregate is
/// identical no matter how many workers executed the runs.
struct ReplicatedScenarioResult {
  struct EntityStats {
    util::RunningStats cpu;
    util::RunningStats mem;
    util::RunningStats io;
    util::RunningStats bw;
  };
  /// machine index -> entity key -> stats over all samples of all runs.
  std::map<int, std::map<std::string, EntityStats>> stats;
  std::size_t replications = 0;

  /// Summary table (mean and stddev of CPU) per monitored machine.
  [[nodiscard]] std::string summary() const;
};

/// Run `replications` independent copies of the scenario, fanned over
/// `jobs` workers (1 = serial, 0 = all hardware threads). Requires
/// replications >= 1.
[[nodiscard]] ReplicatedScenarioResult run_scenario_replicated(
    const ScenarioSpec& spec, std::size_t replications, int jobs = 1);

/// Cancellable variant: `keep_going` is polled before each replication
/// starts (the cooperative-cancellation checkpoint voprofd uses for
/// request deadlines). Once it returns false the remaining
/// replications are skipped; the result then aggregates only the runs
/// that completed, with `replications` reporting that smaller count.
/// A replication already running is never interrupted mid-simulation.
[[nodiscard]] ReplicatedScenarioResult run_scenario_replicated(
    const ScenarioSpec& spec, std::size_t replications, int jobs,
    const std::function<bool()>& keep_going);

}  // namespace voprof::scenario
