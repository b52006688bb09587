#include "voprof/core/regression.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "voprof/util/assert.hpp"

namespace voprof::model {
namespace {

using util::Matrix;
using util::Rng;

/// Build y = 2 + 3*x1 - 0.5*x2 (+ noise) over a grid.
struct SyntheticData {
  Matrix x;
  std::vector<double> y;
};

SyntheticData make_plane(std::size_t n, double noise_sd, std::uint64_t seed) {
  Rng rng(seed);
  SyntheticData d{Matrix(n, 2), std::vector<double>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    const double x1 = rng.uniform(0, 100);
    const double x2 = rng.uniform(0, 50);
    d.x(i, 0) = x1;
    d.x(i, 1) = x2;
    d.y[i] = 2.0 + 3.0 * x1 - 0.5 * x2 +
             (noise_sd > 0 ? rng.gaussian(0.0, noise_sd) : 0.0);
  }
  return d;
}

TEST(LinearFit, PredictUsesInterceptAndSlopes) {
  LinearFit f;
  f.coef = {1.0, 2.0, -1.0};
  const std::vector<double> x = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(f.predict(x), 1.0 + 6.0 - 4.0);
  EXPECT_THROW((void)f.predict(std::vector<double>{1.0}),
               util::ContractViolation);
}

TEST(Ols, RecoversExactPlane) {
  const SyntheticData d = make_plane(50, 0.0, 1);
  const LinearFit f = fit_ols(d.x, d.y);
  ASSERT_EQ(f.coef.size(), 3u);
  EXPECT_NEAR(f.coef[0], 2.0, 1e-8);
  EXPECT_NEAR(f.coef[1], 3.0, 1e-10);
  EXPECT_NEAR(f.coef[2], -0.5, 1e-10);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(f.residual_rms, 0.0, 1e-8);
}

TEST(Ols, RecoversNoisyPlane) {
  const SyntheticData d = make_plane(2000, 1.0, 2);
  const LinearFit f = fit_ols(d.x, d.y);
  EXPECT_NEAR(f.coef[0], 2.0, 0.25);
  EXPECT_NEAR(f.coef[1], 3.0, 0.01);
  EXPECT_NEAR(f.coef[2], -0.5, 0.01);
  EXPECT_GT(f.r_squared, 0.99);
  EXPECT_NEAR(f.residual_rms, 1.0, 0.1);
}

TEST(Ols, RejectsTooFewRows) {
  Matrix x(2, 2);
  EXPECT_THROW((void)fit_ols(x, std::vector<double>{1.0, 2.0}),
               util::ContractViolation);
}

TEST(Ols, RejectsSizeMismatch) {
  Matrix x(5, 1);
  EXPECT_THROW((void)fit_ols(x, std::vector<double>{1.0}),
               util::ContractViolation);
}

TEST(Wls, EqualWeightsMatchOls) {
  const SyntheticData d = make_plane(100, 0.5, 3);
  const std::vector<double> w(100, 1.0);
  const LinearFit a = fit_ols(d.x, d.y);
  const LinearFit b = fit_wls(d.x, d.y, w);
  for (std::size_t i = 0; i < a.coef.size(); ++i) {
    EXPECT_NEAR(a.coef[i], b.coef[i], 1e-9);
  }
}

TEST(Wls, ZeroWeightIgnoresRow) {
  // One wild outlier with zero weight must not affect the fit.
  SyntheticData d = make_plane(50, 0.0, 4);
  d.y[0] += 1e6;
  std::vector<double> w(50, 1.0);
  w[0] = 0.0;
  const LinearFit f = fit_wls(d.x, d.y, w);
  EXPECT_NEAR(f.coef[1], 3.0, 1e-8);
}

TEST(Wls, RejectsNegativeWeight) {
  const SyntheticData d = make_plane(20, 0.0, 5);
  std::vector<double> w(20, 1.0);
  w[3] = -1.0;
  EXPECT_THROW((void)fit_wls(d.x, d.y, w), util::ContractViolation);
}

TEST(Lms, MatchesOlsOnCleanData) {
  const SyntheticData d = make_plane(200, 0.2, 6);
  Rng rng(7);
  const LinearFit f = fit_lms(d.x, d.y, rng);
  EXPECT_NEAR(f.coef[0], 2.0, 0.2);
  EXPECT_NEAR(f.coef[1], 3.0, 0.01);
  EXPECT_NEAR(f.coef[2], -0.5, 0.02);
}

TEST(Lms, RobustToThirtyPercentOutliers) {
  // The key property of Rousseeuw's estimator (paper ref [24]): OLS
  // breaks under gross contamination, LMS does not.
  SyntheticData d = make_plane(300, 0.2, 8);
  Rng corrupt(9);
  for (std::size_t i = 0; i < 90; ++i) {
    const auto idx = static_cast<std::size_t>(corrupt.uniform_int(300));
    d.y[idx] = corrupt.uniform(2000.0, 4000.0);
  }
  const LinearFit ols = fit_ols(d.x, d.y);
  Rng rng(10);
  const LinearFit lms = fit_lms(d.x, d.y, rng);
  // OLS slope is dragged far away; LMS stays within a few percent.
  EXPECT_GT(std::abs(ols.coef[1] - 3.0), 0.5);
  EXPECT_NEAR(lms.coef[1], 3.0, 0.1);
  EXPECT_NEAR(lms.coef[2], -0.5, 0.1);
}

TEST(Lms, DeterministicGivenRngState) {
  const SyntheticData d = make_plane(100, 0.3, 11);
  Rng r1(42), r2(42);
  const LinearFit a = fit_lms(d.x, d.y, r1);
  const LinearFit b = fit_lms(d.x, d.y, r2);
  for (std::size_t i = 0; i < a.coef.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.coef[i], b.coef[i]);
  }
}

TEST(Lms, RejectsTooFewRows) {
  Matrix x(4, 2);
  std::vector<double> y(4, 1.0);
  Rng rng(1);
  EXPECT_THROW((void)fit_lms(x, y, rng), util::ContractViolation);
}

TEST(Lqs, HigherQuantileCoversMoreOfTheData) {
  // Data whose majority (60 %) follows one line and whose minority
  // (40 %) follows a parallel line offset by +50. Median LMS fits the
  // majority exactly; LQS at q=0.85 must account for 85 % of points
  // and lands between the two populations.
  Rng gen(3);
  Matrix x(500, 1);
  std::vector<double> y(500);
  for (std::size_t i = 0; i < 500; ++i) {
    const double xi = gen.uniform(0, 100);
    x(i, 0) = xi;
    y[i] = 2.0 * xi + (i % 5 < 2 ? 50.0 : 0.0) + gen.gaussian(0, 0.1);
  }
  LmsConfig median_cfg;
  LmsConfig lqs_cfg;
  lqs_cfg.quantile = 0.85;
  Rng r1(7), r2(7);
  const LinearFit median = fit_lms(x, y, r1, median_cfg);
  const LinearFit lqs = fit_lms(x, y, r2, lqs_cfg);
  // Median fit hugs the majority line (intercept ~0)...
  EXPECT_NEAR(median.coef[0], 0.0, 2.0);
  // ...while the 85 %-quantile fit must sit above it to cover the
  // minority population too.
  EXPECT_GT(lqs.coef[0], median.coef[0] + 5.0);
  EXPECT_NEAR(lqs.coef[1], 2.0, 0.2);  // slope shared by both groups
}

TEST(Lqs, QuantileValidated) {
  const SyntheticData d = make_plane(100, 0.1, 21);
  Rng rng(1);
  LmsConfig bad;
  bad.quantile = 0.3;
  EXPECT_THROW((void)fit_lms(d.x, d.y, rng, bad), util::ContractViolation);
  bad.quantile = 1.5;
  EXPECT_THROW((void)fit_lms(d.x, d.y, rng, bad), util::ContractViolation);
}

TEST(Lqs, ModelFitConfigUsesDocumentedQuantile) {
  EXPECT_DOUBLE_EQ(model_fit_config().quantile, kModelFitQuantile);
  EXPECT_GT(kModelFitQuantile, 0.5);
}

TEST(Fit, DispatchesOnMethod) {
  const SyntheticData d = make_plane(100, 0.1, 12);
  const LinearFit ols = fit(RegressionMethod::kOls, d.x, d.y);
  const LinearFit lms = fit(RegressionMethod::kLms, d.x, d.y, 55);
  EXPECT_NEAR(ols.coef[1], 3.0, 0.01);
  EXPECT_NEAR(lms.coef[1], 3.0, 0.02);
}

TEST(Residuals, ZeroForPerfectFit) {
  const SyntheticData d = make_plane(30, 0.0, 13);
  const LinearFit f = fit_ols(d.x, d.y);
  for (double r : residuals(f, d.x, d.y)) EXPECT_NEAR(r, 0.0, 1e-7);
}

// ------------------------------------------------------ pinned LMS fits
// Coefficients of fit_lms recorded as hex floats from the sort-per-trial
// implementation that preceded selection, early abandon and the
// non-throwing elemental solve. Any change to which candidate wins, to
// the residual arithmetic or to the RNG draw order moves at least one
// of them; the search must stay bit-identical to that reference.

/// Dense random design: four predictors, noise, 20 % gross outliers.
SyntheticData make_dense(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  SyntheticData d{Matrix(n, 4), std::vector<double>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 4; ++c) d.x(i, c) = rng.uniform(0, 100);
    d.y[i] = 5.0 + 1.1 * d.x(i, 0) - 0.4 * d.x(i, 1) + 0.02 * d.x(i, 3) +
             rng.gaussian(0, 0.5);
    if (rng.uniform() < 0.2) d.y[i] += rng.uniform(50, 200);
  }
  return d;
}

/// Table-II-shaped rows (cpu, mem, io, bw): each block of rows drives
/// one resource through five levels while the others sit at exact idle
/// values, so many elemental subsets are singular.
SyntheticData make_table2(std::uint64_t seed) {
  Rng rng(seed);
  constexpr std::size_t kPerCell = 12;
  SyntheticData d{Matrix(4 * 5 * kPerCell, 4),
                  std::vector<double>(4 * 5 * kPerCell)};
  std::size_t r = 0;
  for (std::size_t kind = 0; kind < 4; ++kind) {
    for (std::size_t level = 0; level < 5; ++level) {
      const double lv = static_cast<double>(level + 1);
      for (std::size_t s = 0; s < kPerCell; ++s, ++r) {
        d.x(r, 0) = kind == 0 ? 20.0 * lv + rng.gaussian(0, 0.5) : 0.5;
        d.x(r, 1) = kind == 1 ? 128.0 + 64.0 * lv : 128.0;
        d.x(r, 2) = kind == 2 ? 15.0 * lv : 0.0;
        d.x(r, 3) = kind == 3 ? 250.0 * lv : 0.0;
        d.y[r] = 3.0 + 0.9 * d.x(r, 0) + 0.001 * d.x(r, 1) +
                 0.05 * d.x(r, 2) + 0.002 * d.x(r, 3) +
                 rng.gaussian(0, 0.2);
      }
    }
  }
  return d;
}

struct PinnedLms {
  const char* name;
  SyntheticData (*data)();
  double quantile;
  double inlier_sigma;  // 0 keeps the raw elemental winner (no refit)
  std::uint64_t seed;
  std::vector<double> coef;
};

SyntheticData dense_240() { return make_dense(240, 31); }
SyntheticData dense_2p() { return make_dense(10, 32); }  // n == 2p
SyntheticData table2_240() { return make_table2(33); }

const std::vector<PinnedLms>& pinned_lms_cases() {
  static const std::vector<PinnedLms> cases = {
      {"dense_q50", dense_240, 0.5, 2.5, 7,
       {0x1.2aa09ab576894p+2, 0x1.1a16114f4e304p+0,
        -0x1.971967ef5567bp-2, 0x1.1e4c2abd4b793p-11,
        0x1.4c58a3cb3d391p-6}},
      {"dense_q85", dense_240, 0.85, 2.5, 7,
       {0x1.ccc3c427a1388p+4, 0x1.1be9d66f89efcp+0,
        -0x1.e8982b9ba5269p-2, -0x1.631532da3c8f4p-5,
        0x1.82d5dc47494dfp-3}},
      {"dense_q100", dense_240, 1.0, 2.5, 7,
       {0x1.ccc3c427a1388p+4, 0x1.1be9d66f89efcp+0,
        -0x1.e8982b9ba5269p-2, -0x1.631532da3c8f4p-5,
        0x1.82d5dc47494dfp-3}},
      {"dense_q50_raw", dense_240, 0.5, 0.0, 8,
       {0x1.02a3a091a4d64p+2, 0x1.1aff869dc97c7p+0,
        -0x1.920f4eca186a3p-2, 0x1.0cb23af21d219p-9,
        0x1.7312930873968p-6}},
      {"dense_q85_raw", dense_240, 0.85, 0.0, 8,
       {0x1.1099e727aa737p+6, 0x1.f82145429acfdp-1,
        -0x1.7b68e88c9ae1cp-2, -0x1.8611f7984eac2p-1,
        0x1.f694919192d75p-3}},
      {"dense_q100_raw", dense_240, 1.0, 0.0, 8,
       {0x1.6d3117bce6304p+1, 0x1.3b6f2e71a978dp+0,
        -0x1.7631c7ba810cp-1, -0x1.d944a0edb1782p-4,
        0x1.36de1410b57cp+0}},
      {"dense_2p_q50", dense_2p, 0.5, 2.5, 9,
       {0x1.952fe6b95af9ap+2, 0x1.1670e4b3c43c9p+0,
        -0x1.b04f44884e9f1p-2, -0x1.279cb9f52aaf4p-7,
        0x1.33f0f81b4610cp-5}},
      {"dense_2p_q85_raw", dense_2p, 0.85, 0.0, 9,
       {0x1.df381d13b3d78p+6, -0x1.06de6e17644cp-2,
        -0x1.1ee1c7cd6cfe7p-3, -0x1.c5144d06190acp+0,
        0x1.13f025b5f5fecp+0}},
      {"dense_2p_q100_raw", dense_2p, 1.0, 0.0, 9,
       {0x1.7e9c5104decfep+6, 0x1.3a59807ea7cf7p-2,
        -0x1.a425b67345181p+0, -0x1.10554ce1b0c3fp-1,
        0x1.67ab0b199edfep+0}},
      {"table2_q50", table2_240, 0.5, 2.5, 10,
       {0x1.8cbf0322c6b67p+1, 0x1.cc7f9d638491ep-1,
        0x1.5ee50b463339bp-11, 0x1.8a2e7368ba999p-5,
        0x1.ff8c54f9beb4fp-10}},
      {"table2_q85", table2_240, 0.85, 2.5, 10,
       {0x1.8bf569d53ea6p+1, 0x1.cc9eee335955fp-1,
        0x1.679db6f5db889p-11, 0x1.8910cf7f127edp-5,
        0x1.fbc21c6ba97cfp-10}},
      {"table2_q100", table2_240, 1.0, 2.5, 10,
       {0x1.8bf569d53ea6p+1, 0x1.cc9eee335955fp-1,
        0x1.679db6f5db889p-11, 0x1.8910cf7f127edp-5,
        0x1.fbc21c6ba97cfp-10}},
      {"table2_q50_raw", table2_240, 0.5, 0.0, 11,
       {0x1.8dad68835090fp+1, 0x1.cbeb0604f17acp-1,
        0x1.80a52c3d72333p-11, 0x1.82503f329d109p-5,
        0x1.e6fda339688acp-10}},
      {"table2_q85_raw", table2_240, 0.85, 0.0, 11,
       {0x1.8dad68835090fp+1, 0x1.cbeb0604f17acp-1,
        0x1.80a52c3d72333p-11, 0x1.82503f329d109p-5,
        0x1.e6fda339688acp-10}},
      {"table2_q100_raw", table2_240, 1.0, 0.0, 11,
       {0x1.7c61133ac212dp+1, 0x1.cd18c8f403d73p-1,
        0x1.7052069514c6p-10, 0x1.a3e6bd88d1ff2p-5,
        0x1.06b39458e107p-9}},
  };
  return cases;
}

TEST(LmsPinned, CoefficientsMatchReference) {
  for (const PinnedLms& c : pinned_lms_cases()) {
    SCOPED_TRACE(c.name);
    const SyntheticData d = c.data();
    LmsConfig cfg;
    cfg.quantile = c.quantile;
    cfg.inlier_sigma = c.inlier_sigma;
    Rng rng(c.seed);
    const LinearFit f = fit_lms(d.x, d.y, rng, cfg);
    ASSERT_EQ(f.coef.size(), c.coef.size());
    for (std::size_t i = 0; i < c.coef.size(); ++i) {
      EXPECT_EQ(f.coef[i], c.coef[i]) << "coef " << i;
    }
  }
}

/// Property sweep: R^2 decreases as noise grows.
class NoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(NoiseSweep, RSquaredReflectsNoise) {
  const double noise = GetParam();
  const SyntheticData d = make_plane(1000, noise, 17);
  const LinearFit f = fit_ols(d.x, d.y);
  // Signal variance is large (slope 3 over 0..100); even heavy noise
  // keeps R^2 bounded away from zero, but it must be monotone-ish.
  if (noise <= 0.1) {
    EXPECT_GT(f.r_squared, 0.9999);
  } else if (noise >= 50.0) {
    EXPECT_LT(f.r_squared, 0.9);
  }
  EXPECT_NEAR(f.residual_rms, noise, noise * 0.15 + 0.01);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, NoiseSweep,
                         ::testing::Values(0.0, 0.1, 1.0, 10.0, 50.0));

}  // namespace
}  // namespace voprof::model
