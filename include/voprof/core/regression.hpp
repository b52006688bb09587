#pragma once
/// \file regression.hpp
/// Linear regression back-ends for the overhead models of Sec. V:
/// ordinary least squares (Householder QR) and Least Median of Squares
/// (Rousseeuw 1984 — the estimator the paper cites as [24]), which is
/// robust to the "irregularities in the data used as input to the
/// model" the paper mentions in Sec. VI-A.

#include <span>
#include <vector>

#include "voprof/util/matrix.hpp"
#include "voprof/util/rng.hpp"

namespace voprof::model {

/// Which estimator to use when fitting models.
enum class RegressionMethod {
  kOls,  ///< ordinary least squares
  kLms,  ///< least median of squares (robust), with OLS refinement
};

/// A fitted linear map y ~= coef[0] + sum_j coef[j+1] * x[j].
struct LinearFit {
  /// Intercept followed by one slope per predictor.
  std::vector<double> coef;
  /// Root-mean-square residual over the fitting data.
  double residual_rms = 0.0;
  /// Coefficient of determination over the fitting data.
  double r_squared = 0.0;

  /// Evaluate on a predictor vector (without the leading 1).
  [[nodiscard]] double predict(std::span<const double> x) const;
};

/// Fit by OLS. `x` holds one row per observation (predictors only, no
/// intercept column — it is added internally); y is the response.
/// Requires x.rows() == y.size() and enough rows for the columns.
[[nodiscard]] LinearFit fit_ols(const util::Matrix& x,
                                std::span<const double> y);

/// Weighted OLS with per-row weights (used by the LMS refinement and
/// the multi-VM model's alpha(N)-scaled design). Weight w multiplies
/// both the row and the response by sqrt(w).
[[nodiscard]] LinearFit fit_wls(const util::Matrix& x,
                                std::span<const double> y,
                                std::span<const double> w);

/// Configuration for the LMS/LQS search.
struct LmsConfig {
  /// Number of random elemental subsets to try. Enough that the
  /// estimate is stable run-to-run on the ~10^4-row training sets the
  /// Trainer produces (LMS is a randomized search; too few subsets
  /// makes the fitted coefficients seed-dependent).
  int subsets = 1000;
  /// Robust-sigma multiplier selecting inliers for the OLS refinement
  /// (2.5 is Rousseeuw's recommendation).
  double inlier_sigma = 2.5;
  /// Which squared-residual quantile the subset search minimizes.
  /// 0.5 is classic Least MEDIAN of Squares; Rousseeuw's Least
  /// Quantile of Squares generalization raises it. The trainer uses
  /// 0.85: the Table II sweep leaves only ~1/4 of the rows with
  /// non-trivial guest CPU, and a median fit would discard exactly the
  /// region enterprise workloads run in (see bench_ablation_model).
  double quantile = 0.5;
};

/// Fit by Least Median of Squares: draws random (p+1)-point elemental
/// subsets, solves each exactly, keeps the candidate minimizing the
/// median (config.quantile) squared residual, then refines with OLS
/// over the inliers within inlier_sigma robust standard deviations.
/// Deterministic given the RNG state.
///
/// The objective quantile is found by selection, not a sort. A
/// candidate stops being scored once enough of its squared residuals
/// exceed the incumbent's objective that it can no longer win. Singular
/// draws are skipped without throwing. None of this changes the result:
/// the winner is the one a full sort of every candidate would pick. The
/// search allocates nothing per subset. It reports the
/// `regression/fit_lms` wall span and the `regression.lms_subsets`,
/// `.lms_singular` and `.lms_abandoned` counters.
[[nodiscard]] LinearFit fit_lms(const util::Matrix& x,
                                std::span<const double> y, util::Rng& rng,
                                const LmsConfig& config = {});

/// Dispatch on method; LMS uses a generator seeded from `seed` and the
/// given search configuration.
[[nodiscard]] LinearFit fit(RegressionMethod method, const util::Matrix& x,
                            std::span<const double> y,
                            std::uint64_t seed = 1234,
                            const LmsConfig& lms = {});

/// LQS quantile the overhead models train with (see LmsConfig::quantile).
inline constexpr double kModelFitQuantile = 0.85;

/// The LmsConfig the overhead models use.
[[nodiscard]] inline LmsConfig model_fit_config() {
  LmsConfig cfg;
  cfg.quantile = kModelFitQuantile;
  return cfg;
}

/// Residuals y - X*coef (intercept-aware).
[[nodiscard]] std::vector<double> residuals(const LinearFit& fit,
                                            const util::Matrix& x,
                                            std::span<const double> y);

}  // namespace voprof::model
