#include "voprof/core/hetero_trainer.hpp"

#include <cmath>
#include <utility>

#include "voprof/core/invariants.hpp"
#include "voprof/monitor/script.hpp"
#include "voprof/util/assert.hpp"
#include "voprof/xensim/cluster.hpp"

namespace voprof::model {

HeteroTrainerConfig HeteroTrainerConfig::defaults() {
  HeteroTrainerConfig c;
  VmType small;
  small.name = "small";
  small.spec = sim::VmSpec{};  // the paper's guest: 1 VCPU, 256 MiB
  small.workload_instances = 1;
  VmType large;
  large.name = "large";
  large.spec = sim::VmSpec{};
  large.spec.vcpus = 2;
  large.spec.mem_mib = 512.0;
  large.spec.os_base_mem_mib = 110.0;
  large.spec.io_cap_blocks_per_s = 180.0;
  large.workload_instances = 2;
  c.types = {small, large};
  c.mixes = {{1, 0}, {2, 0}, {0, 1}, {0, 2}, {1, 1}, {2, 1}, {2, 2}};
  return c;
}

HeteroTrainer::HeteroTrainer(HeteroTrainerConfig config)
    : config_(std::move(config)) {
  if (config_.types.empty()) config_ = HeteroTrainerConfig::defaults();
  VOPROF_REQUIRE(!config_.types.empty());
  VOPROF_REQUIRE(!config_.mixes.empty());
  for (const auto& mix : config_.mixes) {
    VOPROF_REQUIRE_MSG(mix.size() == config_.types.size(),
                       "mix width must match type count");
  }
  VOPROF_REQUIRE(config_.duration > 0);
}

HeteroTrainingSet HeteroTrainer::collect_run(const std::vector<int>& mix,
                                             wl::WorkloadKind kind,
                                             std::size_t level) const {
  VOPROF_REQUIRE(mix.size() == config_.types.size());
  std::uint64_t cell_seed = config_.seed ^
                            (static_cast<std::uint64_t>(kind) << 8) ^
                            (static_cast<std::uint64_t>(level) << 16);
  for (int c : mix) cell_seed = cell_seed * 31 + static_cast<std::uint64_t>(c);

  sim::Engine engine;
  sim::Cluster cluster(engine, config_.costs, cell_seed);
  sim::PhysicalMachine& pm = cluster.add_machine(config_.machine);

  // vm name -> type index
  std::vector<std::pair<std::string, std::size_t>> deployed;
  for (std::size_t t = 0; t < config_.types.size(); ++t) {
    for (int k = 0; k < mix[t]; ++k) {
      sim::VmSpec spec = config_.types[t].spec;
      spec.name = config_.types[t].name + std::to_string(k + 1);
      sim::DomU& vm = pm.add_vm(spec);
      for (int w = 0; w < config_.types[t].workload_instances; ++w) {
        vm.attach(wl::make_workload(
            kind, level, sim::NetTarget{},
            cell_seed + t * 101 + static_cast<std::uint64_t>(k) * 13 +
                static_cast<std::uint64_t>(w)));
      }
      deployed.emplace_back(spec.name, t);
    }
  }
  VOPROF_REQUIRE_MSG(!deployed.empty(), "empty mix");

  mon::MonitorScript monitor(engine, pm);
  const mon::MeasurementReport& report = monitor.measure(config_.duration);

  HeteroTrainingSet out;
  const std::size_t n_samples = report.sample_count();
  const mon::SeriesSet& pm_s = report.series(mon::MeasurementReport::kPmKey);
  const mon::SeriesSet& dom0_s =
      report.series(mon::MeasurementReport::kDom0Key);
  const mon::SeriesSet& hyp_s =
      report.series(mon::MeasurementReport::kHypKey);
  for (std::size_t i = 0; i < n_samples; ++i) {
    HeteroRow row;
    for (const auto& [vm_name, t] : deployed) {
      const mon::SeriesSet& s = report.series(vm_name);
      TypeObservation& obs = row.types[config_.types[t].name];
      obs.sum += UtilVec{s.cpu[i].value, s.mem[i].value, s.io[i].value,
                         s.bw[i].value};
      obs.count += 1;
    }
    row.pm = UtilVec{pm_s.cpu[i].value, pm_s.mem[i].value, pm_s.io[i].value,
                     pm_s.bw[i].value};
    row.dom0_cpu = dom0_s.cpu[i].value;
    row.hyp_cpu = hyp_s.cpu[i].value;
    for (const auto& [type_name, obs] : row.types) {
      for (double v : obs.sum.to_array()) {
        if (!std::isfinite(v)) {  // name the type only on failure
          check_finite(v, "hetero row " + type_name + " metric");
        }
      }
    }
    for (double v : row.pm.to_array()) check_finite(v, "hetero row PM");
    check_finite(row.dom0_cpu, "hetero row dom0_cpu");
    check_finite(row.hyp_cpu, "hetero row hyp_cpu");
    out.add(std::move(row));
  }
  return out;
}

HeteroTrainingSet HeteroTrainer::collect() const {
  HeteroTrainingSet all;
  for (const auto& mix : config_.mixes) {
    for (wl::WorkloadKind kind : config_.kinds) {
      for (std::size_t level = 0; level < wl::kLevelCount; ++level) {
        const HeteroTrainingSet cell = collect_run(mix, kind, level);
        for (const auto& r : cell.rows()) all.add(r);
      }
    }
  }
  return all;
}

HeteroModel HeteroTrainer::train(RegressionMethod method) const {
  return HeteroModel::fit(collect(), method, config_.seed);
}

}  // namespace voprof::model
