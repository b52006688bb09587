#include "voprof/core/regression.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "voprof/core/invariants.hpp"
#include "voprof/obs/metrics.hpp"
#include "voprof/obs/trace.hpp"
#include "voprof/util/assert.hpp"
#include "voprof/util/stats.hpp"

namespace voprof::model {

namespace {

/// Prepend the intercept column of ones.
util::Matrix with_intercept(const util::Matrix& x) {
  util::Matrix d(x.rows(), x.cols() + 1);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    d(r, 0) = 1.0;
    for (std::size_t c = 0; c < x.cols(); ++c) d(r, c + 1) = x(r, c);
  }
  return d;
}

/// Fill fit-quality fields from residuals.
void finalize_fit(LinearFit& f, const util::Matrix& x,
                  std::span<const double> y) {
  const std::vector<double> res = residuals(f, x, y);
  double ss_res = 0.0;
  for (double r : res) ss_res += r * r;
  f.residual_rms =
      y.empty() ? 0.0 : std::sqrt(ss_res / static_cast<double>(y.size()));
  const double ybar = util::mean(y);
  double ss_tot = 0.0;
  for (double v : y) ss_tot += (v - ybar) * (v - ybar);
  f.r_squared = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  // Every fit funnels through here; a NaN coefficient would silently
  // poison all downstream predictions (Sec. V models).
  check_fit(f, "regression fit");
}

}  // namespace

double LinearFit::predict(std::span<const double> x) const {
  VOPROF_REQUIRE_MSG(x.size() + 1 == coef.size(),
                     "predictor count mismatch in LinearFit::predict");
  double s = coef[0];
  for (std::size_t i = 0; i < x.size(); ++i) s += coef[i + 1] * x[i];
  return s;
}

std::vector<double> residuals(const LinearFit& fit, const util::Matrix& x,
                              std::span<const double> y) {
  VOPROF_REQUIRE(x.rows() == y.size());
  std::vector<double> out(y.size());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    out[r] = y[r] - fit.predict(x.row(r));
  }
  return out;
}

LinearFit fit_ols(const util::Matrix& x, std::span<const double> y) {
  VOPROF_WALL_SPAN("regression", "fit_ols");
  VOPROF_REQUIRE(x.rows() == y.size());
  VOPROF_REQUIRE_MSG(x.rows() >= x.cols() + 1,
                     "not enough observations for OLS");
  LinearFit f;
  f.coef = util::solve_least_squares(with_intercept(x), y);
  finalize_fit(f, x, y);
  return f;
}

LinearFit fit_wls(const util::Matrix& x, std::span<const double> y,
                  std::span<const double> w) {
  VOPROF_REQUIRE(x.rows() == y.size());
  VOPROF_REQUIRE(x.rows() == w.size());
  // The weighted design [sqrt(w), sqrt(w) * x], built from x directly.
  util::Matrix dw(x.rows(), x.cols() + 1);
  std::vector<double> yw(y.size());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    VOPROF_REQUIRE_MSG(w[r] >= 0.0, "negative weight in fit_wls");
    const double sw = std::sqrt(w[r]);
    dw(r, 0) = sw;
    for (std::size_t c = 0; c < x.cols(); ++c) dw(r, c + 1) = x(r, c) * sw;
    yw[r] = y[r] * sw;
  }
  LinearFit f;
  f.coef = util::solve_least_squares(std::move(dw), yw);
  finalize_fit(f, x, y);
  return f;
}

LinearFit fit_lms(const util::Matrix& x, std::span<const double> y,
                  util::Rng& rng, const LmsConfig& config) {
  VOPROF_WALL_SPAN("regression", "fit_lms");
  static obs::Counter& subsets_counter =
      obs::Registry::global().counter("regression.lms_subsets");
  static obs::Counter& singular_counter =
      obs::Registry::global().counter("regression.lms_singular");
  static obs::Counter& abandoned_counter =
      obs::Registry::global().counter("regression.lms_abandoned");
  VOPROF_REQUIRE(x.rows() == y.size());
  const std::size_t n = x.rows();
  const std::size_t p = x.cols() + 1;  // with intercept
  VOPROF_REQUIRE_MSG(n >= 2 * p, "not enough observations for LMS");
  VOPROF_REQUIRE(config.subsets > 0);
  VOPROF_REQUIRE(config.quantile >= 0.5 && config.quantile <= 1.0);

  // The intercept column is implicit: every row below reads x directly
  // and adds 1.0 * coef[0] first, the order a [1, x] design row gives.
  // Objective: this percentile of the squared residuals over the full
  // data set (50 = classic LMS; higher = Least Quantile of Squares).
  const double q = config.quantile * 100.0;
  // Once more than n-1-lo squared residuals strictly exceed the
  // incumbent, the lo-th order statistic does too, and the objective
  // never falls below it: the candidate cannot win, so stop scoring.
  const std::size_t abandon_after = n - 1 - util::percentile_rank(n, q);

  // Scratch shared by every trial, so the search never allocates.
  std::vector<std::size_t> idx(p);
  util::Matrix a(p, p);
  std::vector<double> cand_coef(p);
  std::vector<double> sq(n);
  std::vector<double> best_coef;
  best_coef.reserve(p);
  double best_median = std::numeric_limits<double>::infinity();
  // Tallied here and published once per fit: per-trial atomics on
  // shared counters would contend between parallel fits.
  std::uint64_t singular = 0;
  std::uint64_t abandoned = 0;

  for (int trial = 0; trial < config.subsets; ++trial) {
    // Draw p distinct row indices.
    for (std::size_t k = 0; k < p; ++k) {
      for (;;) {
        const std::size_t cand =
            static_cast<std::size_t>(rng.uniform_int(n));
        bool dup = false;
        for (std::size_t j = 0; j < k; ++j) {
          if (idx[j] == cand) {
            dup = true;
            break;
          }
        }
        if (!dup) {
          idx[k] = cand;
          break;
        }
      }
    }
    // Solve the elemental p x p system exactly; skip singular draws.
    for (std::size_t r = 0; r < p; ++r) {
      const std::span<const double> row = x.row(idx[r]);
      a(r, 0) = 1.0;
      for (std::size_t c = 1; c < p; ++c) a(r, c) = row[c - 1];
      cand_coef[r] = y[idx[r]];
    }
    if (!util::solve_linear_in_place(a, cand_coef)) {
      ++singular;
      continue;
    }
    std::size_t exceed = 0;
    std::size_t r = 0;
    for (; r < n; ++r) {
      const std::span<const double> row = x.row(r);
      double pred = 0.0;
      pred += 1.0 * cand_coef[0];
      for (std::size_t c = 1; c < p; ++c) pred += row[c - 1] * cand_coef[c];
      const double res = y[r] - pred;
      sq[r] = res * res;
      if (sq[r] > best_median && ++exceed > abandon_after) break;
    }
    if (r < n) {
      ++abandoned;
      continue;
    }
    const double med = util::percentile_in_place(sq, q);
    if (med < best_median) {
      best_median = med;
      best_coef.assign(cand_coef.begin(), cand_coef.end());
    }
  }
  subsets_counter.add(static_cast<std::uint64_t>(config.subsets));
  singular_counter.add(singular);
  abandoned_counter.add(abandoned);
  VOPROF_REQUIRE_MSG(!best_coef.empty(),
                     "LMS failed: all elemental subsets degenerate");

  // Rousseeuw's reweighted refinement: robust scale estimate from the
  // best median, then OLS over the inliers.
  const double sigma =
      1.4826 * (1.0 + 5.0 / static_cast<double>(n - p)) *
      std::sqrt(best_median);
  const double cutoff = config.inlier_sigma * std::max(sigma, 1e-12);

  std::vector<double> w(n, 0.0);
  std::size_t inliers = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const std::span<const double> row = x.row(r);
    double pred = 0.0;
    pred += 1.0 * best_coef[0];
    for (std::size_t c = 1; c < p; ++c) pred += row[c - 1] * best_coef[c];
    if (std::abs(y[r] - pred) <= cutoff) {
      w[r] = 1.0;
      ++inliers;
    }
  }
  if (inliers >= 2 * p) {
    return fit_wls(x, y, w);
  }
  // Refinement impossible (pathological data): report the raw LMS fit.
  LinearFit f;
  f.coef = std::move(best_coef);
  finalize_fit(f, x, y);
  return f;
}

LinearFit fit(RegressionMethod method, const util::Matrix& x,
              std::span<const double> y, std::uint64_t seed,
              const LmsConfig& lms) {
  if (method == RegressionMethod::kOls) return fit_ols(x, y);
  util::Rng rng(seed);
  return fit_lms(x, y, rng, lms);
}

}  // namespace voprof::model
