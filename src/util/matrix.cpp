#include "voprof/util/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "voprof/util/assert.hpp"

namespace voprof::util {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    VOPROF_REQUIRE_MSG(r.size() == cols_, "ragged initializer");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  VOPROF_ASSERT(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  VOPROF_ASSERT(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

std::span<double> Matrix::row(std::size_t r) {
  VOPROF_REQUIRE(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const {
  VOPROF_REQUIRE(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  VOPROF_REQUIRE_MSG(cols_ == rhs.rows_, "matrix product shape mismatch");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) {
        out(i, j) += aik * rhs(k, j);
      }
    }
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  VOPROF_REQUIRE(same_shape(rhs));
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += rhs.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  VOPROF_REQUIRE(same_shape(rhs));
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= rhs.data_[i];
  return out;
}

Matrix& Matrix::operator*=(double s) noexcept {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::operator*(double s) const {
  Matrix out = *this;
  out *= s;
  return out;
}

std::vector<double> Matrix::mul(std::span<const double> v) const {
  VOPROF_REQUIRE_MSG(v.size() == cols_, "matrix-vector shape mismatch");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    const double* rowp = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) s += rowp[c] * v[c];
    out[r] = s;
  }
  return out;
}

double Matrix::max_abs_diff(const Matrix& other) const {
  VOPROF_REQUIRE(same_shape(other));
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    m = std::max(m, std::abs(data_[i] - other.data_[i]));
  return m;
}

bool solve_linear_in_place(Matrix& a, std::span<double> b) {
  VOPROF_REQUIRE_MSG(a.rows() == a.cols(), "solve_linear needs a square matrix");
  VOPROF_REQUIRE(b.size() == a.rows());
  const std::size_t n = a.rows();
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting.
    std::size_t pivot = col;
    double best = std::abs(a(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a(r, col)) > best) {
        best = std::abs(a(r, col));
        pivot = r;
      }
    }
    if (!(best > 1e-12)) return false;
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(col, c), a(pivot, c));
      std::swap(b[col], b[pivot]);
    }
    const double inv = 1.0 / a(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a(r, col) * inv;
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a(r, c) -= f * a(col, c);
      b[r] -= f * b[col];
    }
  }
  // Back-substitute into b: b[c] already holds x[c] for every c > i.
  for (std::size_t i = n; i-- > 0;) {
    double s = b[i];
    for (std::size_t c = i + 1; c < n; ++c) s -= a(i, c) * b[c];
    b[i] = s / a(i, i);
  }
  return true;
}

std::vector<double> solve_linear(Matrix a, std::vector<double> b) {
  const bool solved = solve_linear_in_place(a, b);
  VOPROF_REQUIRE_MSG(solved, "singular matrix in solve_linear");
  return b;
}

std::vector<double> solve_least_squares(Matrix a, std::span<const double> b) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  VOPROF_REQUIRE_MSG(m >= n, "least squares needs rows >= cols");
  VOPROF_REQUIRE(b.size() == m);

  // Householder QR in place on `a`, which the caller moved in or the
  // call copied; b transformed on a copy.
  Matrix& r = a;
  std::vector<double> y(b.begin(), b.end());
  for (std::size_t k = 0; k < n; ++k) {
    // Build the Householder vector for column k.
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) norm += r(i, k) * r(i, k);
    norm = std::sqrt(norm);
    VOPROF_REQUIRE_MSG(norm > 1e-12, "rank-deficient design matrix");
    if (r(k, k) > 0) norm = -norm;

    std::vector<double> v(m - k, 0.0);
    for (std::size_t i = k; i < m; ++i) v[i - k] = r(i, k);
    v[0] -= norm;
    double vnorm2 = 0.0;
    for (double q : v) vnorm2 += q * q;
    if (vnorm2 < 1e-24) continue;  // column already triangular

    // Apply H = I - 2 v v^T / (v^T v) to R[k:, k:] and y[k:].
    for (std::size_t j = k; j < n; ++j) {
      double s = 0.0;
      for (std::size_t i = k; i < m; ++i) s += v[i - k] * r(i, j);
      const double f = 2.0 * s / vnorm2;
      for (std::size_t i = k; i < m; ++i) r(i, j) -= f * v[i - k];
    }
    double s = 0.0;
    for (std::size_t i = k; i < m; ++i) s += v[i - k] * y[i];
    const double f = 2.0 * s / vnorm2;
    for (std::size_t i = k; i < m; ++i) y[i] -= f * v[i - k];
  }

  // Back-substitute R x = y (top n rows).
  std::vector<double> x(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double s = y[i];
    for (std::size_t c = i + 1; c < n; ++c) s -= r(i, c) * x[c];
    VOPROF_REQUIRE_MSG(std::abs(r(i, i)) > 1e-12,
                       "rank-deficient design matrix");
    x[i] = s / r(i, i);
  }
  return x;
}

double dot(std::span<const double> a, std::span<const double> b) {
  VOPROF_REQUIRE(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(std::span<const double> v) noexcept {
  double s = 0.0;
  for (double q : v) s += q * q;
  return std::sqrt(s);
}

}  // namespace voprof::util
