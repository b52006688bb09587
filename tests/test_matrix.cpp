#include "voprof/util/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "voprof/util/assert.hpp"
#include "voprof/util/rng.hpp"

namespace voprof::util {
namespace {

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = 9.0;
  EXPECT_DOUBLE_EQ(m(0, 0), 9.0);
}

TEST(Matrix, InitializerList) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), ContractViolation);
}

TEST(Matrix, Identity) {
  const Matrix i = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
}

TEST(Matrix, Transpose) {
  Matrix m = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, Product) {
  Matrix a = {{1.0, 2.0}, {3.0, 4.0}};
  Matrix b = {{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, ProductShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW((void)(a * b), ContractViolation);
}

TEST(Matrix, IdentityIsNeutral) {
  Matrix a = {{1.0, 2.0}, {3.0, 4.0}};
  const Matrix i = Matrix::identity(2);
  EXPECT_DOUBLE_EQ((a * i).max_abs_diff(a), 0.0);
  EXPECT_DOUBLE_EQ((i * a).max_abs_diff(a), 0.0);
}

TEST(Matrix, AddSubScale) {
  Matrix a = {{1.0, 2.0}};
  Matrix b = {{3.0, 5.0}};
  EXPECT_DOUBLE_EQ((a + b)(0, 1), 7.0);
  EXPECT_DOUBLE_EQ((b - a)(0, 0), 2.0);
  EXPECT_DOUBLE_EQ((a * 2.0)(0, 1), 4.0);
}

TEST(Matrix, MulVector) {
  Matrix a = {{1.0, 2.0}, {3.0, 4.0}};
  const std::vector<double> v = {1.0, 1.0};
  const auto r = a.mul(v);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r[0], 3.0);
  EXPECT_DOUBLE_EQ(r[1], 7.0);
}

TEST(SolveLinear, Solves3x3) {
  Matrix a = {{2.0, 1.0, -1.0}, {-3.0, -1.0, 2.0}, {-2.0, 1.0, 2.0}};
  const auto x = solve_linear(a, {8.0, -11.0, -3.0});
  ASSERT_EQ(x.size(), 3u);
  EXPECT_NEAR(x[0], 2.0, 1e-10);
  EXPECT_NEAR(x[1], 3.0, 1e-10);
  EXPECT_NEAR(x[2], -1.0, 1e-10);
}

TEST(SolveLinear, NeedsPivoting) {
  // Zero on the diagonal forces a row swap.
  Matrix a = {{0.0, 1.0}, {1.0, 0.0}};
  const auto x = solve_linear(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveLinear, SingularThrows) {
  Matrix a = {{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW((void)solve_linear(a, {1.0, 2.0}), ContractViolation);
}

TEST(SolveLinear, InPlaceCoreReportsSingularWithoutThrowing) {
  Matrix singular = {{1.0, 2.0}, {2.0, 4.0}};
  std::vector<double> b = {1.0, 2.0};
  bool solved = true;
  EXPECT_NO_THROW(solved = solve_linear_in_place(singular, b));
  EXPECT_FALSE(solved);

  // On success the right-hand side becomes the solution, bit for bit
  // what the throwing wrapper returns.
  const Matrix a = {{2.0, 1.0, -1.0}, {-3.0, -1.0, 2.0}, {-2.0, 1.0, 2.0}};
  const std::vector<double> rhs = {8.0, -11.0, -3.0};
  Matrix work = a;
  std::vector<double> x = rhs;
  ASSERT_TRUE(solve_linear_in_place(work, x));
  EXPECT_EQ(x, solve_linear(a, rhs));
  EXPECT_NEAR(x[0], 2.0, 1e-10);
  EXPECT_NEAR(x[1], 3.0, 1e-10);
  EXPECT_NEAR(x[2], -1.0, 1e-10);
}

TEST(SolveLinear, NonSquareThrows) {
  Matrix a(2, 3);
  EXPECT_THROW((void)solve_linear(a, {1.0, 2.0}), ContractViolation);
}

TEST(LeastSquares, ExactSystemRecovered) {
  // Square full-rank system: least squares == exact solve.
  Matrix a = {{1.0, 1.0}, {1.0, 2.0}};
  const std::vector<double> b = {3.0, 5.0};
  const auto x = solve_least_squares(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], 2.0, 1e-10);
}

TEST(LeastSquares, OverdeterminedKnownFit) {
  // y = 2x fitted through (1,2.1),(2,3.9),(3,6.0): slope via x-only
  // design must match the closed form sum(xy)/sum(x^2).
  Matrix a(3, 1);
  a(0, 0) = 1.0;
  a(1, 0) = 2.0;
  a(2, 0) = 3.0;
  const std::vector<double> y = {2.1, 3.9, 6.0};
  const auto x = solve_least_squares(a, y);
  const double expected = (1 * 2.1 + 2 * 3.9 + 3 * 6.0) / (1.0 + 4.0 + 9.0);
  EXPECT_NEAR(x[0], expected, 1e-10);
}

TEST(LeastSquares, RecoversPlaneFromNoisyData) {
  Rng rng(5);
  const std::size_t n = 500;
  Matrix a(n, 3);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x1 = rng.uniform(0, 10), x2 = rng.uniform(0, 5),
                 x3 = rng.uniform(-1, 1);
    a(i, 0) = x1;
    a(i, 1) = x2;
    a(i, 2) = x3;
    y[i] = 3.0 * x1 - 2.0 * x2 + 0.5 * x3 + rng.gaussian(0.0, 0.01);
  }
  const auto x = solve_least_squares(a, y);
  EXPECT_NEAR(x[0], 3.0, 0.01);
  EXPECT_NEAR(x[1], -2.0, 0.01);
  EXPECT_NEAR(x[2], 0.5, 0.01);
}

TEST(LeastSquares, RankDeficientThrows) {
  Matrix a(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = static_cast<double>(i);
    a(i, 1) = 2.0 * static_cast<double>(i);  // collinear
  }
  const std::vector<double> y = {0.0, 1.0, 2.0, 3.0};
  EXPECT_THROW((void)solve_least_squares(a, y), ContractViolation);
}

TEST(LeastSquares, UnderdeterminedThrows) {
  Matrix a(2, 3);
  EXPECT_THROW((void)solve_least_squares(a, std::vector<double>{1.0, 2.0}),
               ContractViolation);
}

TEST(DotNorm, Basics) {
  const std::vector<double> a = {1.0, 2.0, 2.0};
  const std::vector<double> b = {3.0, 0.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 11.0);
  EXPECT_DOUBLE_EQ(norm2(a), 3.0);
  EXPECT_THROW((void)dot(a, std::vector<double>{1.0}), ContractViolation);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a = {{1.0, 2.0}};
  Matrix b = {{1.5, -1.0}};
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 3.0);
  Matrix c(2, 1);
  EXPECT_THROW((void)a.max_abs_diff(c), ContractViolation);
}

}  // namespace
}  // namespace voprof::util
