#pragma once
/// \file trainer.hpp
/// Model-fitting pipeline: runs the paper's micro-benchmark suite
/// (Table II x {1,2,4} co-located VMs, 2 minutes of 1 s samples each,
/// Secs. III-IV) on fresh simulated testbeds, gathers per-sample
/// (VM-utilization, PM-utilization) observations and fits the Sec. V
/// models — the exact procedure of Sec. VI-A ("we first derived this
/// model from the trace of resource utilizations in our micro
/// benchmark study").

#include <cstdint>
#include <vector>

#include "voprof/core/overhead_model.hpp"
#include "voprof/workloads/levels.hpp"
#include "voprof/xensim/cost_model.hpp"
#include "voprof/xensim/spec.hpp"

namespace voprof::model {

/// Everything the training sweep needs to know.
struct TrainerConfig {
  /// Co-location scenarios (paper: one, two and four VMs, Sec. IV).
  std::vector<int> vm_counts = {1, 2, 4};
  /// Benchmark families to sweep (all four Table II rows by default).
  std::vector<wl::WorkloadKind> kinds = {
      wl::WorkloadKind::kCpu, wl::WorkloadKind::kMem, wl::WorkloadKind::kIo,
      wl::WorkloadKind::kBw};
  /// Measurement duration per cell (paper: 2 minutes).
  util::SimMicros duration = util::seconds(120.0);
  std::uint64_t seed = 42;
  /// Worker threads for collect() and for the fits of train(): 1 =
  /// serial (historical path, no threads), 0 = all hardware threads.
  /// Cells are independent simulations with coordinate-derived seeds
  /// and each fit has its own fixed seed, so the collected set and the
  /// fitted models are identical for every jobs value.
  int jobs = 1;
  sim::MachineSpec machine;
  sim::VmSpec vm;
  sim::CostModel costs;
};

/// Fitted models plus the data that produced them.
struct TrainedModels {
  SingleVmModel single;
  MultiVmModel multi;
  TrainingSet data;
};

class Trainer {
 public:
  explicit Trainer(TrainerConfig config);

  /// Run one cell of the sweep: `n_vms` co-located VMs each running
  /// workload (kind, level); returns one observation per 1 s sample.
  [[nodiscard]] TrainingSet collect_run(wl::WorkloadKind kind,
                                        std::size_t level, int n_vms) const;

  /// Run the full sweep (kinds x 5 levels x vm_counts).
  [[nodiscard]] TrainingSet collect() const;

  /// collect() + fit_models() at config().jobs.
  [[nodiscard]] TrainedModels train(
      RegressionMethod method = RegressionMethod::kOls) const;

  /// Fit both models from an existing data set (e.g. reloaded traces):
  /// the twelve regressions of MultiVmModel::fit, as two waves of six
  /// on one TaskPool of `jobs` workers (0 = TaskPool::default_jobs(),
  /// 1 = serial with no threads). The models are byte-identical at
  /// any `jobs`; a fit that fails on a worker rethrows here.
  [[nodiscard]] static TrainedModels fit_models(TrainingSet data,
                                                RegressionMethod method,
                                                std::uint64_t seed = 1234,
                                                int jobs = 0);

  [[nodiscard]] const TrainerConfig& config() const noexcept {
    return config_;
  }

 private:
  TrainerConfig config_;
};

}  // namespace voprof::model
