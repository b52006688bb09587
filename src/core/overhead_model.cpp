#include "voprof/core/overhead_model.hpp"

#include <algorithm>
#include <utility>

#include "voprof/util/assert.hpp"
#include "voprof/util/task_pool.hpp"

namespace voprof::model {

std::string metric_name(MetricIndex m) {
  switch (m) {
    case MetricIndex::kCpu:
      return "CPU";
    case MetricIndex::kMem:
      return "MEM";
    case MetricIndex::kIo:
      return "I/O";
    case MetricIndex::kBw:
      return "BW";
  }
  throw util::ContractViolation("unknown metric");
}

// ----------------------------------------------------------- TrainingSet
void TrainingSet::add(TrainingRow row) {
  VOPROF_REQUIRE(row.n_vms >= 1);
  rows_.push_back(std::move(row));
}

TrainingSet TrainingSet::with_vm_count(int n) const {
  TrainingSet out;
  for (const auto& r : rows_) {
    if (r.n_vms == n) out.rows_.push_back(r);
  }
  return out;
}

TrainingSet TrainingSet::with_vm_count_at_least(int n) const {
  TrainingSet out;
  for (const auto& r : rows_) {
    if (r.n_vms >= n) out.rows_.push_back(r);
  }
  return out;
}

void TrainingSet::append(const TrainingSet& other) {
  rows_.insert(rows_.end(), other.rows_.begin(), other.rows_.end());
}

util::Matrix TrainingSet::design() const {
  util::Matrix x(rows_.size(), kMetricCount);
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const auto a = rows_[r].vm_sum.to_array();
    for (std::size_t c = 0; c < kMetricCount; ++c) x(r, c) = a[c];
  }
  return x;
}

std::vector<double> TrainingSet::response(MetricIndex m) const {
  std::vector<double> y;
  y.reserve(rows_.size());
  for (const auto& r : rows_) y.push_back(r.pm.get(m));
  return y;
}

std::vector<double> TrainingSet::response_dom0_cpu() const {
  std::vector<double> y;
  y.reserve(rows_.size());
  for (const auto& r : rows_) y.push_back(r.dom0_cpu);
  return y;
}

std::vector<double> TrainingSet::response_hyp_cpu() const {
  std::vector<double> y;
  y.reserve(rows_.size());
  for (const auto& r : rows_) y.push_back(r.hyp_cpu);
  return y;
}

// ------------------------------------------------------------- fit waves
namespace {

/// Each model is one wave of six regressions against one shared design:
/// the four PM metrics in MetricIndex order, then Dom0 CPU, then
/// hypervisor CPU.
constexpr std::size_t kWaveFits = kMetricCount + 2;

/// A wave's responses, in the order above.
using WaveResponses = std::array<std::vector<double>, kWaveFits>;

/// Seed of each fit of a wave, relative to the wave's first seed.
constexpr std::array<std::uint64_t, kWaveFits> kWaveSeedOffset = {0, 1, 2, 3,
                                                                  8, 9};

/// Run the six fits of a wave on `pool`. Each fit draws only from its
/// own fixed seed and its result is placed by index, so the wave is the
/// same at any pool size.
std::vector<LinearFit> fit_wave(util::TaskPool& pool, RegressionMethod method,
                                const util::Matrix& x,
                                const WaveResponses& responses,
                                std::uint64_t first_seed) {
  return pool.parallel_map(kWaveFits, [&](std::size_t i) {
    return model::fit(method, x, responses[i], first_seed + kWaveSeedOffset[i],
                      model_fit_config());
  });
}

}  // namespace

// --------------------------------------------------------- SingleVmModel
SingleVmModel SingleVmModel::fit(const TrainingSet& data,
                                 RegressionMethod method,
                                 std::uint64_t seed) {
  util::TaskPool serial(1);
  return fit(data, method, seed, serial);
}

SingleVmModel SingleVmModel::fit(const TrainingSet& data,
                                 RegressionMethod method, std::uint64_t seed,
                                 util::TaskPool& pool) {
  VOPROF_REQUIRE_MSG(data.size() >= 2 * (kMetricCount + 1),
                     "too few observations to fit the single-VM model");
  const WaveResponses responses = {
      data.response(MetricIndex::kCpu), data.response(MetricIndex::kMem),
      data.response(MetricIndex::kIo),  data.response(MetricIndex::kBw),
      data.response_dom0_cpu(),         data.response_hyp_cpu()};
  std::vector<LinearFit> fits =
      fit_wave(pool, method, data.design(), responses, seed);
  SingleVmModel m;
  std::move(fits.begin(), fits.begin() + kMetricCount, m.fits_.begin());
  m.dom0_cpu_fit_ = std::move(fits[kMetricCount]);
  m.hyp_cpu_fit_ = std::move(fits[kMetricCount + 1]);
  m.trained_ = true;
  return m;
}

double SingleVmModel::predict_dom0_cpu(const UtilVec& vm) const {
  VOPROF_REQUIRE(trained_);
  return dom0_cpu_fit_.predict(vm.to_array());
}

double SingleVmModel::predict_hyp_cpu(const UtilVec& vm) const {
  VOPROF_REQUIRE(trained_);
  return hyp_cpu_fit_.predict(vm.to_array());
}

const LinearFit& SingleVmModel::dom0_cpu_fit() const {
  VOPROF_REQUIRE(trained_);
  return dom0_cpu_fit_;
}

const LinearFit& SingleVmModel::hyp_cpu_fit() const {
  VOPROF_REQUIRE(trained_);
  return hyp_cpu_fit_;
}

SingleVmModel SingleVmModel::from_fits(
    std::array<LinearFit, kMetricCount> fits, LinearFit dom0_cpu,
    LinearFit hyp_cpu) {
  SingleVmModel m;
  for (const auto& f : fits) {
    VOPROF_REQUIRE_MSG(f.coef.size() == kMetricCount + 1,
                       "coefficient count mismatch in from_fits");
  }
  VOPROF_REQUIRE(dom0_cpu.coef.size() == kMetricCount + 1);
  VOPROF_REQUIRE(hyp_cpu.coef.size() == kMetricCount + 1);
  m.fits_ = std::move(fits);
  m.dom0_cpu_fit_ = std::move(dom0_cpu);
  m.hyp_cpu_fit_ = std::move(hyp_cpu);
  m.trained_ = true;
  return m;
}

UtilVec SingleVmModel::predict(const UtilVec& vm) const {
  VOPROF_REQUIRE_MSG(trained_, "SingleVmModel used before fitting");
  const auto x = vm.to_array();
  std::array<double, kMetricCount> out{};
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    out[i] = fits_[i].predict(x);
  }
  return UtilVec::from_array(out);
}

const LinearFit& SingleVmModel::fit_for(MetricIndex m) const {
  VOPROF_REQUIRE(trained_);
  return fits_[static_cast<std::size_t>(m)];
}

util::Matrix SingleVmModel::coefficient_matrix() const {
  VOPROF_REQUIRE(trained_);
  util::Matrix a(kMetricCount, kMetricCount + 1);
  for (std::size_t r = 0; r < kMetricCount; ++r) {
    for (std::size_t c = 0; c <= kMetricCount; ++c) {
      a(r, c) = fits_[r].coef[c];
    }
  }
  return a;
}

// ---------------------------------------------------------- MultiVmModel
MultiVmModel MultiVmModel::fit(const TrainingSet& data,
                               RegressionMethod method, std::uint64_t seed) {
  util::TaskPool serial(1);
  return fit(data, method, seed, serial);
}

MultiVmModel MultiVmModel::fit(const TrainingSet& data,
                               RegressionMethod method, std::uint64_t seed,
                               util::TaskPool& pool) {
  MultiVmModel m;
  m.base_ = SingleVmModel::fit(data.with_vm_count(1), method, seed, pool);

  const TrainingSet multi = data.with_vm_count_at_least(2);
  VOPROF_REQUIRE_MSG(multi.size() >= 2 * (kMetricCount + 1),
                     "too few multi-VM observations to fit Eq. (3)");

  // Residual regression: pm - a(sum M) = alpha(N) * o(sum M). With
  // varying N this is linear in o after scaling every design row (and
  // its intercept) by alpha(N); equivalently a weighted problem with
  // features z_j = alpha * x_j. We divide through by alpha instead
  // (alpha >= 1 on the multi subset), which keeps fit() reusable:
  //   (pm - a(sum M)) / alpha = o_0 + sum_j o_j * x_j   when x is
  // unchanged -- valid because o is applied to the *same* sum M.
  const std::size_t n = multi.size();
  WaveResponses resp;
  for (auto& v : resp) v.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    const TrainingRow& row = multi.rows()[r];
    const double al = alpha(row.n_vms);
    VOPROF_ASSERT(al >= 1.0);
    const UtilVec base_pred = m.base_.predict(row.vm_sum);
    const UtilVec resid = row.pm - base_pred;
    const auto ra = resid.to_array();
    for (std::size_t c = 0; c < kMetricCount; ++c) resp[c][r] = ra[c] / al;
    resp[kMetricCount][r] =
        (row.dom0_cpu - m.base_.predict_dom0_cpu(row.vm_sum)) / al;
    resp[kMetricCount + 1][r] =
        (row.hyp_cpu - m.base_.predict_hyp_cpu(row.vm_sum)) / al;
  }
  std::vector<LinearFit> fits =
      fit_wave(pool, method, multi.design(), resp, seed + 100);
  std::move(fits.begin(), fits.begin() + kMetricCount, m.overhead_.begin());
  m.dom0_overhead_ = std::move(fits[kMetricCount]);
  m.hyp_overhead_ = std::move(fits[kMetricCount + 1]);
  m.trained_ = true;
  return m;
}

double MultiVmModel::predict_dom0_cpu(const UtilVec& vm_sum,
                                      int n_vms) const {
  VOPROF_REQUIRE_MSG(trained_, "MultiVmModel used before fitting");
  VOPROF_REQUIRE(n_vms >= 1);
  double out = base_.predict_dom0_cpu(vm_sum);
  const double al = alpha(n_vms);
  if (al > 0.0) out += dom0_overhead_.predict(vm_sum.to_array()) * al;
  return out;
}

double MultiVmModel::predict_hyp_cpu(const UtilVec& vm_sum, int n_vms) const {
  VOPROF_REQUIRE_MSG(trained_, "MultiVmModel used before fitting");
  VOPROF_REQUIRE(n_vms >= 1);
  double out = base_.predict_hyp_cpu(vm_sum);
  const double al = alpha(n_vms);
  if (al > 0.0) out += hyp_overhead_.predict(vm_sum.to_array()) * al;
  return out;
}

double MultiVmModel::predict_pm_cpu_indirect(const UtilVec& vm_sum,
                                             int n_vms) const {
  return vm_sum.cpu + predict_dom0_cpu(vm_sum, n_vms) +
         predict_hyp_cpu(vm_sum, n_vms);
}

UtilVec MultiVmModel::predict(const UtilVec& vm_sum, int n_vms) const {
  VOPROF_REQUIRE_MSG(trained_, "MultiVmModel used before fitting");
  VOPROF_REQUIRE(n_vms >= 1);
  UtilVec out = base_.predict(vm_sum);
  const double al = alpha(n_vms);
  if (al > 0.0) {
    const auto x = vm_sum.to_array();
    std::array<double, kMetricCount> extra{};
    for (std::size_t i = 0; i < kMetricCount; ++i) {
      extra[i] = overhead_[i].predict(x) * al;
    }
    out += UtilVec::from_array(extra);
  }
  return out;
}

const LinearFit& MultiVmModel::overhead_for(MetricIndex m) const {
  VOPROF_REQUIRE(trained_);
  return overhead_[static_cast<std::size_t>(m)];
}

const LinearFit& MultiVmModel::dom0_overhead_fit() const {
  VOPROF_REQUIRE(trained_);
  return dom0_overhead_;
}

const LinearFit& MultiVmModel::hyp_overhead_fit() const {
  VOPROF_REQUIRE(trained_);
  return hyp_overhead_;
}

MultiVmModel MultiVmModel::from_parts(
    SingleVmModel base, std::array<LinearFit, kMetricCount> overhead,
    LinearFit dom0_overhead, LinearFit hyp_overhead) {
  VOPROF_REQUIRE_MSG(base.trained(), "from_parts needs a trained base model");
  for (const auto& f : overhead) {
    VOPROF_REQUIRE(f.coef.size() == kMetricCount + 1);
  }
  VOPROF_REQUIRE(dom0_overhead.coef.size() == kMetricCount + 1);
  VOPROF_REQUIRE(hyp_overhead.coef.size() == kMetricCount + 1);
  MultiVmModel m;
  m.base_ = std::move(base);
  m.overhead_ = std::move(overhead);
  m.dom0_overhead_ = std::move(dom0_overhead);
  m.hyp_overhead_ = std::move(hyp_overhead);
  m.trained_ = true;
  return m;
}

util::Matrix MultiVmModel::overhead_matrix() const {
  VOPROF_REQUIRE(trained_);
  util::Matrix o(kMetricCount, kMetricCount + 1);
  for (std::size_t r = 0; r < kMetricCount; ++r) {
    for (std::size_t c = 0; c <= kMetricCount; ++c) {
      o(r, c) = overhead_[r].coef[c];
    }
  }
  return o;
}

}  // namespace voprof::model
