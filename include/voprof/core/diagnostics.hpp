#pragma once
/// \file diagnostics.hpp
/// Model diagnostics: printable coefficient summaries and bootstrap
/// confidence intervals for the Sec. V fits. The paper reports point
/// estimates only; an operator adopting the model needs to know how
/// tight the coefficients are before trusting a placement decision to
/// them (e.g. the Dom0-per-Kbps slope drives the VOA admission test).

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "voprof/core/overhead_model.hpp"

namespace voprof::model {

/// Percentile bootstrap interval for one coefficient.
struct CoefInterval {
  double estimate = 0.0;
  double lo = 0.0;   ///< 2.5th percentile across resamples
  double hi = 0.0;   ///< 97.5th percentile
  double stddev = 0.0;

  [[nodiscard]] double width() const noexcept { return hi - lo; }
  /// Whether the interval excludes zero (coefficient is "significant").
  [[nodiscard]] bool excludes_zero() const noexcept {
    return lo > 0.0 || hi < 0.0;
  }
};

/// Bootstrap result for one regression target (intercept + 4 slopes).
struct FitDiagnostics {
  std::string target;  ///< e.g. "PM CPU", "Dom0 CPU"
  std::array<CoefInterval, kMetricCount + 1> coef;
  double r_squared = 0.0;
  double residual_rms = 0.0;
};

/// Fewest resamples, and fewest single-VM rows, bootstrap_single_vm
/// accepts.
inline constexpr int kMinResamples = 10;
inline constexpr std::size_t kMinBootstrapRows = 2 * (kMetricCount + 1);

struct BootstrapConfig {
  int resamples = 200;
  RegressionMethod method = RegressionMethod::kOls;
  std::uint64_t seed = 515;
};

/// Bootstrap the single-VM model's fits over resampled rows of `data`
/// (which must be the single-VM subset or a superset thereof; only
/// n_vms == 1 rows are used). Returns one FitDiagnostics per PM metric
/// plus Dom0 and hypervisor CPU.
[[nodiscard]] std::vector<FitDiagnostics> bootstrap_single_vm(
    const TrainingSet& data, const BootstrapConfig& config = {});

/// Render a human-readable coefficient table:
///   target | a_o [lo,hi] | a_c [lo,hi] | ... | R^2
[[nodiscard]] std::string diagnostics_table(
    const std::vector<FitDiagnostics>& diags);

}  // namespace voprof::model
