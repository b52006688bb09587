#include "voprof/core/diagnostics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "voprof/util/assert.hpp"
#include "voprof/util/rng.hpp"
#include "voprof/util/stats.hpp"
#include "voprof/util/table.hpp"

namespace voprof::model {

namespace {

struct Target {
  std::string name;
  /// Extract the response for one row.
  double (*response)(const TrainingRow&);
};

double resp_cpu(const TrainingRow& r) { return r.pm.cpu; }
double resp_mem(const TrainingRow& r) { return r.pm.mem; }
double resp_io(const TrainingRow& r) { return r.pm.io; }
double resp_bw(const TrainingRow& r) { return r.pm.bw; }
double resp_dom0(const TrainingRow& r) { return r.dom0_cpu; }
double resp_hyp(const TrainingRow& r) { return r.hyp_cpu; }

const std::array<Target, 6> kTargets = {{
    {"PM CPU", resp_cpu},
    {"PM MEM", resp_mem},
    {"PM I/O", resp_io},
    {"PM BW", resp_bw},
    {"Dom0 CPU", resp_dom0},
    {"Hypervisor CPU", resp_hyp},
}};

}  // namespace

std::vector<FitDiagnostics> bootstrap_single_vm(
    const TrainingSet& data, const BootstrapConfig& config) {
  VOPROF_REQUIRE(config.resamples >= kMinResamples);
  const TrainingSet single = data.with_vm_count(1);
  const std::size_t n = single.size();
  VOPROF_REQUIRE_MSG(n >= kMinBootstrapRows,
                     "too few single-VM rows to bootstrap");

  util::Rng rng(config.seed);
  std::vector<FitDiagnostics> out;
  out.reserve(kTargets.size());

  for (const Target& target : kTargets) {
    // Point estimate on the full data.
    util::Matrix x(n, kMetricCount);
    std::vector<double> y(n);
    for (std::size_t r = 0; r < n; ++r) {
      const auto a = single.rows()[r].vm_sum.to_array();
      for (std::size_t c = 0; c < kMetricCount; ++c) x(r, c) = a[c];
      y[r] = target.response(single.rows()[r]);
    }
    const LinearFit point = fit(config.method, x, y, config.seed);

    // Resamples.
    std::array<std::vector<double>, kMetricCount + 1> samples;
    for (int b = 0; b < config.resamples; ++b) {
      util::Matrix xb(n, kMetricCount);
      std::vector<double> yb(n);
      for (std::size_t r = 0; r < n; ++r) {
        const std::size_t pick =
            static_cast<std::size_t>(rng.uniform_int(n));
        const auto a = single.rows()[pick].vm_sum.to_array();
        for (std::size_t c = 0; c < kMetricCount; ++c) xb(r, c) = a[c];
        yb[r] = target.response(single.rows()[pick]);
      }
      LinearFit f;
      try {
        f = fit(config.method, xb, yb, config.seed + static_cast<std::uint64_t>(b));
      } catch (const util::ContractViolation&) {
        continue;  // degenerate resample (rank deficient): skip
      }
      for (std::size_t c = 0; c <= kMetricCount; ++c) {
        samples[c].push_back(f.coef[c]);
      }
    }

    FitDiagnostics d;
    d.target = target.name;
    d.r_squared = point.r_squared;
    d.residual_rms = point.residual_rms;
    for (std::size_t c = 0; c <= kMetricCount; ++c) {
      CoefInterval ci;
      ci.estimate = point.coef[c];
      if (!samples[c].empty()) {
        ci.lo = util::percentile(samples[c], 2.5);
        ci.hi = util::percentile(samples[c], 97.5);
        ci.stddev = util::stddev(samples[c]);
      } else {
        ci.lo = ci.hi = ci.estimate;
      }
      d.coef[c] = ci;
    }
    out.push_back(std::move(d));
  }
  return out;
}

std::string diagnostics_table(const std::vector<FitDiagnostics>& diags) {
  util::AsciiTable t("single-VM model coefficients with 95% bootstrap CIs");
  t.set_header({"target", "intercept", "per CPU%", "per MiB", "per blk/s",
                "per Kb/s", "R^2"});
  auto cell = [](const CoefInterval& ci) {
    std::ostringstream os;
    os << util::fmt(ci.estimate, 4) << " [" << util::fmt(ci.lo, 4) << ","
       << util::fmt(ci.hi, 4) << "]";
    return os.str();
  };
  for (const FitDiagnostics& d : diags) {
    t.add_row({d.target, cell(d.coef[0]), cell(d.coef[1]), cell(d.coef[2]),
               cell(d.coef[3]), cell(d.coef[4]),
               util::fmt(d.r_squared, 4)});
  }
  return t.str();
}

}  // namespace voprof::model
