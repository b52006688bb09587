#include "voprof/core/trainer.hpp"

#include <string>
#include <utility>

#include "voprof/core/invariants.hpp"
#include "voprof/monitor/script.hpp"
#include "voprof/obs/metrics.hpp"
#include "voprof/obs/trace.hpp"
#include "voprof/util/assert.hpp"
#include "voprof/util/task_pool.hpp"
#include "voprof/xensim/cluster.hpp"
#include "voprof/xensim/engine.hpp"

namespace voprof::model {

namespace {

/// Zip the per-second samples of a finished measurement into
/// (VM-sum, PM) observation rows.
TrainingSet rows_from_report(const mon::MeasurementReport& report,
                             const std::vector<std::string>& vm_names) {
  TrainingSet out;
  const bool check = invariants_enabled();
  const std::size_t n_samples = report.sample_count();
  for (std::size_t i = 0; i < n_samples; ++i) {
    TrainingRow row;
    row.n_vms = static_cast<int>(vm_names.size());
    for (const auto& name : vm_names) {
      const mon::SeriesSet& s = report.series(name);
      VOPROF_REQUIRE(s.cpu.size() == n_samples);
      row.vm_sum += UtilVec{s.cpu[i].value, s.mem[i].value, s.io[i].value,
                            s.bw[i].value};
    }
    const mon::SeriesSet& pm = report.series(mon::MeasurementReport::kPmKey);
    row.pm = UtilVec{pm.cpu[i].value, pm.mem[i].value, pm.io[i].value,
                     pm.bw[i].value};
    row.dom0_cpu =
        report.series(mon::MeasurementReport::kDom0Key).cpu[i].value;
    row.hyp_cpu = report.series(mon::MeasurementReport::kHypKey).cpu[i].value;
    if (check) check_training_row(row);
    out.add(std::move(row));
  }
  return out;
}

}  // namespace

Trainer::Trainer(TrainerConfig config) : config_(std::move(config)) {
  VOPROF_REQUIRE(!config_.vm_counts.empty());
  VOPROF_REQUIRE(!config_.kinds.empty());
  VOPROF_REQUIRE(config_.duration > 0);
}

TrainingSet Trainer::collect_run(wl::WorkloadKind kind, std::size_t level,
                                 int n_vms) const {
  VOPROF_WALL_SPAN("trainer", "collect_run");
  static obs::Counter& runs =
      obs::Registry::global().counter("trainer.collect_runs");
  runs.add();
  VOPROF_REQUIRE(n_vms >= 1);
  // A fresh testbed per cell, like the paper's repeated experiments.
  // Seeds are derived from the cell coordinates for reproducibility.
  const std::uint64_t cell_seed =
      config_.seed ^ (static_cast<std::uint64_t>(kind) << 8) ^
      (static_cast<std::uint64_t>(level) << 16) ^
      (static_cast<std::uint64_t>(n_vms) << 24);

  sim::Engine engine;
  sim::Cluster cluster(engine, config_.costs, cell_seed);
  sim::PhysicalMachine& pm = cluster.add_machine(config_.machine);

  std::vector<std::string> vm_names;
  for (int k = 0; k < n_vms; ++k) {
    sim::VmSpec spec = config_.vm;
    spec.name = "vm" + std::to_string(k + 1);
    sim::DomU& vm = pm.add_vm(spec);
    // BW workloads target VMs in other PMs (Sec. IV-B); an external
    // sink exercises the same sender-side paths.
    vm.attach(wl::make_workload(kind, level, sim::NetTarget{},
                                cell_seed + static_cast<std::uint64_t>(k)));
    vm_names.push_back(spec.name);
  }

  mon::MonitorScript monitor(engine, pm);
  const mon::MeasurementReport& report = monitor.measure(config_.duration);
  return rows_from_report(report, vm_names);
}

TrainingSet Trainer::collect() const {
  VOPROF_WALL_SPAN("trainer", "collect");
  // Cells are enumerated in the historical loop order; collect_run
  // seeds each from its coordinates alone, so cells can execute on any
  // worker while the index-ordered append below reproduces the serial
  // data set byte for byte.
  struct Cell {
    wl::WorkloadKind kind;
    std::size_t level;
    int n_vms;
  };
  std::vector<Cell> cells;
  for (int n : config_.vm_counts) {
    for (wl::WorkloadKind kind : config_.kinds) {
      for (std::size_t level = 0; level < wl::kLevelCount; ++level) {
        cells.push_back(Cell{kind, level, n});
      }
    }
  }

  util::TaskPool pool(config_.jobs <= 0
                          ? 0
                          : static_cast<std::size_t>(config_.jobs));
  std::vector<TrainingSet> parts =
      pool.parallel_map(cells.size(), [this, &cells](std::size_t i) {
        const Cell& cell = cells[i];
        return collect_run(cell.kind, cell.level, cell.n_vms);
      });

  TrainingSet all;
  for (const TrainingSet& part : parts) all.append(part);
  return all;
}

TrainedModels Trainer::train(RegressionMethod method) const {
  VOPROF_WALL_SPAN("trainer", "train");
  return fit_models(collect(), method, config_.seed, config_.jobs);
}

TrainedModels Trainer::fit_models(TrainingSet data, RegressionMethod method,
                                  std::uint64_t seed, int jobs) {
  VOPROF_WALL_SPAN("trainer", "fit_models");
  util::TaskPool pool(jobs <= 0 ? 0 : static_cast<std::size_t>(jobs));
  TrainedModels out;
  out.multi = MultiVmModel::fit(data, method, seed, pool);
  // Eq. (3)'s base is the single-VM model, fitted on the same rows with
  // the same seed: reuse it rather than fit it twice.
  out.single = out.multi.base();
  out.data = std::move(data);
  return out;
}

}  // namespace voprof::model
