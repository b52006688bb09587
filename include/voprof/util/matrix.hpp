#pragma once
/// \file matrix.hpp
/// Minimal dense linear algebra for the regression models of Sec. V:
/// a row-major Matrix with the operations needed by ordinary least
/// squares (Householder QR) and least-median-of-squares subset solves
/// (Gaussian elimination with partial pivoting).

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace voprof::util {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Construct from nested initializer lists; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c);
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const;

  /// Contiguous view of one row.
  [[nodiscard]] std::span<double> row(std::size_t r);
  [[nodiscard]] std::span<const double> row(std::size_t r) const;

  [[nodiscard]] Matrix transposed() const;
  [[nodiscard]] Matrix operator*(const Matrix& rhs) const;
  [[nodiscard]] Matrix operator+(const Matrix& rhs) const;
  [[nodiscard]] Matrix operator-(const Matrix& rhs) const;
  Matrix& operator*=(double s) noexcept;
  [[nodiscard]] Matrix operator*(double s) const;

  /// Matrix-vector product. Requires v.size() == cols().
  [[nodiscard]] std::vector<double> mul(std::span<const double> v) const;

  [[nodiscard]] bool same_shape(const Matrix& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Max-abs element difference; both matrices must have the same shape.
  [[nodiscard]] double max_abs_diff(const Matrix& other) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solve the square system A x = b in place by Gaussian elimination
/// with partial pivoting. Returns false, without throwing or
/// allocating, if A is singular (no pivot candidate above 1e-12 in
/// magnitude); on success `b` holds x. Either way `a` and `b` are left
/// overwritten. Requires a square `a` with b.size() == a.rows().
[[nodiscard]] bool solve_linear_in_place(Matrix& a, std::span<double> b);

/// solve_linear_in_place on copies. Throws ContractViolation if A is
/// singular.
[[nodiscard]] std::vector<double> solve_linear(Matrix a,
                                               std::vector<double> b);

/// Least-squares solve of the (possibly tall) system A x ~= b via
/// Householder QR: minimizes ||A x - b||_2. Requires rows >= cols and
/// full column rank. The QR factorization overwrites `a`, which is
/// taken by value: a caller done with its matrix moves it in and the
/// solve makes no copy of it.
[[nodiscard]] std::vector<double> solve_least_squares(
    Matrix a, std::span<const double> b);

/// Dot product; sizes must match.
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm.
[[nodiscard]] double norm2(std::span<const double> v) noexcept;

}  // namespace voprof::util
