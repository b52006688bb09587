#pragma once
/// \file overhead_model.hpp
/// The paper's virtualization-overhead estimation models (Sec. V):
///
///   Single VM (Eq. 1-2):   M_hat = a * [1, Mc, Mm, Mi, Mn]^T
///     one linear map per PM metric; `a` is a 4x5 coefficient matrix
///     (intercept a_o models the guest OS's no-benchmark consumption).
///
///   Co-located VMs (Eq. 3): M_hat = a(sum M_k) + alpha(N) * o(sum M_k)
///     with alpha(N) linear in N (alpha(1)=0, alpha(2)=1 per the
///     paper's examples, i.e. alpha(N) = N-1), and `o` a second 4x5
///     coefficient matrix describing the co-location overhead.

#include <cstdint>
#include <vector>

#include "voprof/core/regression.hpp"
#include "voprof/core/utilvec.hpp"
#include "voprof/util/matrix.hpp"

namespace voprof::util {
class TaskPool;
}  // namespace voprof::util

namespace voprof::model {

/// One observation: the summed VM utilizations on a PM, how many VMs
/// produced them, and the PM / Dom0 / hypervisor utilizations measured
/// at the same instant. Dom0 and hypervisor CPU are kept separately
/// because Sec. VI-A predicts PM CPU *indirectly*: measured sum-of-VM
/// CPU plus the predicted Dom0 and hypervisor utilizations.
struct TrainingRow {
  UtilVec vm_sum;
  int n_vms = 1;
  UtilVec pm;
  double dom0_cpu = 0.0;
  double hyp_cpu = 0.0;
};

/// A labelled collection of observations.
class TrainingSet {
 public:
  void add(TrainingRow row);
  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }
  [[nodiscard]] const std::vector<TrainingRow>& rows() const noexcept {
    return rows_;
  }
  /// Subset with exactly n co-located VMs.
  [[nodiscard]] TrainingSet with_vm_count(int n) const;
  /// Subset with at least n co-located VMs.
  [[nodiscard]] TrainingSet with_vm_count_at_least(int n) const;
  void append(const TrainingSet& other);

  /// Design matrix of VM-sum predictors [Mc, Mm, Mi, Mn] (no intercept
  /// column), one row per observation.
  [[nodiscard]] util::Matrix design() const;
  /// Response vector for one PM metric.
  [[nodiscard]] std::vector<double> response(MetricIndex m) const;
  /// Response vectors for the two virtualization-overhead components.
  [[nodiscard]] std::vector<double> response_dom0_cpu() const;
  [[nodiscard]] std::vector<double> response_hyp_cpu() const;

 private:
  std::vector<TrainingRow> rows_;
};

/// Eq. (1)-(2): per-resource linear model for a PM hosting one VM.
class SingleVmModel {
 public:
  SingleVmModel() = default;

  /// Fit the 4x5 coefficient matrix from single-VM observations: six
  /// independent regressions against one shared design, one per PM
  /// metric (seed + i) plus Dom0 (seed + 8) and hypervisor CPU
  /// (seed + 9). `pool` runs the six at once; each keeps its fixed
  /// seed and lands at its own index, so the model is the same at
  /// any pool size. The overload without a pool fits them serially.
  [[nodiscard]] static SingleVmModel fit(const TrainingSet& data,
                                         RegressionMethod method,
                                         std::uint64_t seed,
                                         util::TaskPool& pool);
  [[nodiscard]] static SingleVmModel fit(const TrainingSet& data,
                                         RegressionMethod method,
                                         std::uint64_t seed = 1234);

  /// Predict PM utilization from one VM's utilization vector.
  [[nodiscard]] UtilVec predict(const UtilVec& vm) const;
  /// Predict the Dom0 / hypervisor CPU overhead components.
  [[nodiscard]] double predict_dom0_cpu(const UtilVec& vm) const;
  [[nodiscard]] double predict_hyp_cpu(const UtilVec& vm) const;

  /// Coefficient row for one PM metric: [a_o, a_c, a_m, a_i, a_n].
  [[nodiscard]] const LinearFit& fit_for(MetricIndex m) const;
  [[nodiscard]] const LinearFit& dom0_cpu_fit() const;
  [[nodiscard]] const LinearFit& hyp_cpu_fit() const;
  /// 4x5 matrix view of all coefficients (row order = MetricIndex).
  [[nodiscard]] util::Matrix coefficient_matrix() const;

  [[nodiscard]] bool trained() const noexcept { return trained_; }

  /// Rebuild from previously fitted coefficients (deserialization).
  [[nodiscard]] static SingleVmModel from_fits(
      std::array<LinearFit, kMetricCount> fits, LinearFit dom0_cpu,
      LinearFit hyp_cpu);

 private:
  std::array<LinearFit, kMetricCount> fits_;
  LinearFit dom0_cpu_fit_;
  LinearFit hyp_cpu_fit_;
  bool trained_ = false;
};

/// Eq. (3): model for N co-located VMs. alpha(N) = N - 1 (linear in N,
/// zero for a single VM — the paper's stated simplification).
class MultiVmModel {
 public:
  MultiVmModel() = default;

  /// Fit: `a` from the single-VM subset, then `o` from the multi-VM
  /// subset via the alpha(N)-scaled residual regression
  ///   pm - a(sum M) = alpha(N) * o(sum M).
  /// Two waves of six fits on `pool`: the base model's (see
  /// SingleVmModel::fit), then, since they need its residuals, the six
  /// overhead fits with seeds seed + 100 + i, seed + 108 and
  /// seed + 109. The result does not depend on the pool size; the
  /// overload without a pool fits serially.
  [[nodiscard]] static MultiVmModel fit(const TrainingSet& data,
                                        RegressionMethod method,
                                        std::uint64_t seed,
                                        util::TaskPool& pool);
  [[nodiscard]] static MultiVmModel fit(const TrainingSet& data,
                                        RegressionMethod method,
                                        std::uint64_t seed = 1234);

  /// Predict PM utilization from the summed utilizations of its N VMs.
  [[nodiscard]] UtilVec predict(const UtilVec& vm_sum, int n_vms) const;

  /// Predict the virtualization-overhead CPU components.
  [[nodiscard]] double predict_dom0_cpu(const UtilVec& vm_sum,
                                        int n_vms) const;
  [[nodiscard]] double predict_hyp_cpu(const UtilVec& vm_sum,
                                       int n_vms) const;

  /// Sec. VI-A's indirect PM-CPU prediction: measured sum-of-VM CPU
  /// plus the *predicted* Dom0 and hypervisor utilizations ("We
  /// predicted the PM CPU utilization based on the predicted Dom0 and
  /// hypervisor utilizations").
  [[nodiscard]] double predict_pm_cpu_indirect(const UtilVec& vm_sum,
                                               int n_vms) const;

  [[nodiscard]] static double alpha(int n_vms) noexcept {
    return n_vms <= 1 ? 0.0 : static_cast<double>(n_vms - 1);
  }

  [[nodiscard]] const SingleVmModel& base() const noexcept { return base_; }
  /// Co-location overhead coefficients for one PM metric:
  /// [o_o, o_c, o_m, o_i, o_n].
  [[nodiscard]] const LinearFit& overhead_for(MetricIndex m) const;
  [[nodiscard]] const LinearFit& dom0_overhead_fit() const;
  [[nodiscard]] const LinearFit& hyp_overhead_fit() const;
  [[nodiscard]] util::Matrix overhead_matrix() const;
  [[nodiscard]] bool trained() const noexcept { return trained_; }

  /// Rebuild from previously fitted parts (deserialization).
  [[nodiscard]] static MultiVmModel from_parts(
      SingleVmModel base, std::array<LinearFit, kMetricCount> overhead,
      LinearFit dom0_overhead, LinearFit hyp_overhead);

 private:
  SingleVmModel base_;
  std::array<LinearFit, kMetricCount> overhead_;
  LinearFit dom0_overhead_;
  LinearFit hyp_overhead_;
  bool trained_ = false;
};

}  // namespace voprof::model
