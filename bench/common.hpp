#pragma once
/// \file common.hpp
/// Shared helpers for the figure/table reproduction benches: run one
/// micro-benchmark cell on a fresh simulated testbed under the paper's
/// measurement protocol (1 s samples, 2 minutes, averaged) and return
/// the entity means; plus small formatting utilities for
/// paper-vs-measured tables.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "voprof/monitor/script.hpp"
#include "voprof/runner/runner.hpp"
#include "voprof/util/table.hpp"
#include "voprof/util/units.hpp"
#include "voprof/workloads/levels.hpp"
#include "voprof/xensim/cluster.hpp"

namespace voprof::bench {

/// The figure/table benches' command line: `--jobs N` (read by
/// runner::options_from_cli) plus the harness's shared flags.
inline runner::RunOptions cli_options(int argc, const char* const* argv) {
  const tools::CommandLine cl =
      harness::command_line(argv[0], "[--jobs N]", {runner::jobs_flag()});
  return runner::options_from_cli(
      cl.parse_or_exit(std::vector<std::string>(argv + 1, argv + argc)));
}

/// Mean utilizations of one measured cell.
struct CellResult {
  mon::UtilSample vm;      ///< first VM (all VMs are symmetric)
  mon::UtilSample vm_sum;  ///< sum over VMs
  mon::UtilSample dom0;
  mon::UtilSample hyp;
  mon::UtilSample pm;
};

/// Run `n_vms` co-located VMs each with workload (kind, value) for
/// `duration` under the monitoring script and return the averages.
/// When `intra_pm` is true (BW workloads only), VM1 pings VM2 on the
/// same PM (the Fig. 5 experiment); otherwise BW targets are external.
inline CellResult measure_cell(wl::WorkloadKind kind, double value,
                               int n_vms, bool intra_pm = false,
                               std::uint64_t seed = 42,
                               util::SimMicros duration =
                                   util::seconds(120.0)) {
  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, seed);
  sim::PhysicalMachine& pm = cluster.add_machine(sim::MachineSpec{});

  std::vector<std::string> names;
  for (int i = 0; i < n_vms; ++i) {
    sim::VmSpec spec;
    spec.name = "vm" + std::to_string(i + 1);
    names.push_back(spec.name);
    pm.add_vm(spec);
  }
  for (int i = 0; i < n_vms; ++i) {
    sim::DomU* vm = pm.find_vm(names[static_cast<std::size_t>(i)]);
    sim::NetTarget target;  // external by default
    if (intra_pm) {
      if (i > 0) continue;  // Fig. 5: only VM1 transmits
      target = sim::NetTarget{pm.id(), "vm2"};
    }
    vm->attach(wl::make_workload_value(kind, value, target,
                                       seed + 7 + static_cast<std::uint64_t>(i)));
  }

  mon::MonitorScript monitor(engine, pm);
  const mon::MeasurementReport& report = monitor.measure(duration);

  CellResult r;
  r.vm = report.mean(names.front());
  for (const auto& n : names) r.vm_sum += report.mean(n);
  r.dom0 = report.mean(mon::MeasurementReport::kDom0Key);
  r.hyp = report.mean(mon::MeasurementReport::kHypKey);
  r.pm = report.mean(mon::MeasurementReport::kPmKey);
  return r;
}

/// One cell of a figure sweep, for batch execution.
struct CellSpec {
  wl::WorkloadKind kind = wl::WorkloadKind::kCpu;
  double value = 0.0;
  int n_vms = 1;
  bool intra_pm = false;
  std::uint64_t seed = 42;
  util::SimMicros duration = util::seconds(120.0);
};

/// Measure every cell, fanned over opts.jobs workers. Each cell runs
/// on a fresh testbed seeded from its CellSpec alone and results come
/// back ordered by cell index, so the printed tables are byte-identical
/// for any --jobs value. Every sweep is also timed and recorded in the
/// process-wide harness session, so each bench binary leaves a
/// BENCH_<name>.json perf record behind (see harness.hpp).
inline std::vector<CellResult> measure_cells(const std::vector<CellSpec>& cells,
                                             const runner::RunOptions& opts) {
  harness::Session& session = harness::Session::global();
  const auto t0 = std::chrono::steady_clock::now();
  runner::SweepRunner sweep(opts);
  auto results = sweep.map(cells.size(), [&cells](std::size_t i) {
    const CellSpec& c = cells[i];
    return measure_cell(c.kind, c.value, c.n_vms, c.intra_pm, c.seed,
                        c.duration);
  });
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  double sim_s = 0.0;
  for (const CellSpec& c : cells) sim_s += util::to_seconds(c.duration);
  double checksum = 0.0;
  for (const CellResult& r : results) {
    checksum += r.vm.cpu_pct + r.vm_sum.cpu_pct + r.dom0.cpu_pct +
                r.hyp.cpu_pct + r.pm.cpu_pct + r.pm.io_blocks_per_s +
                r.pm.bw_kbps;
  }
  session.record_section(session.next_section_name("cells"), wall_s, sim_s,
                         checksum);
  return results;
}

/// The common figure pattern: one workload kind swept over its input
/// axis, cell i seeded `uint64(inputs[i]) + seed_offset` — the same
/// per-cell seeds the serial benches always used, so every printed
/// value stays anchored to the paper comparisons.
inline std::vector<CellResult> measure_sweep(wl::WorkloadKind kind,
                                             const std::vector<double>& inputs,
                                             std::uint64_t seed_offset,
                                             int n_vms, bool intra_pm,
                                             const runner::RunOptions& opts) {
  std::vector<CellSpec> cells;
  for (double in : inputs) {
    CellSpec c;
    c.kind = kind;
    c.value = in;
    c.n_vms = n_vms;
    c.intra_pm = intra_pm;
    c.seed = static_cast<std::uint64_t>(in) + seed_offset;
    cells.push_back(c);
  }
  return measure_cells(cells, opts);
}

/// "measured (paper)" cell, or just the measured value when no anchor
/// is printed in the paper for this point.
inline std::string vs(double measured, double paper, int decimals = 1) {
  return util::fmt_vs(measured, paper, decimals);
}
inline std::string only(double measured, int decimals = 1) {
  return util::fmt(measured, decimals);
}

/// Print a one-line shape verdict, e.g. "slope 0.0104 (paper ~0.0105)".
inline void verdict(const std::string& what, double measured, double paper,
                    double tolerance) {
  const bool ok = std::abs(measured - paper) <= tolerance;
  std::printf("  %-58s %8.4f  (paper ~%.4f)  %s\n", what.c_str(), measured,
              paper, ok ? "OK" : "DIVERGES");
}

}  // namespace voprof::bench
