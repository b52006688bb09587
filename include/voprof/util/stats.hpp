#pragma once
/// \file stats.hpp
/// Streaming and batch statistics used throughout the measurement and
/// evaluation pipeline: running mean/variance (Welford), percentiles,
/// and empirical CDFs (the paper reports 90th-percentile prediction
/// errors and CDF plots in Figs. 7-9).

#include <cstddef>
#include <span>
#include <vector>

namespace voprof::util {

/// Numerically stable streaming mean / variance / min / max (Welford).
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;
  void reset() noexcept { *this = RunningStats{}; }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Population variance (n in the denominator); 0 for n < 2.
  [[nodiscard]] double variance() const noexcept;
  /// Sample variance (n-1 in the denominator); 0 for n < 2.
  [[nodiscard]] double sample_variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Linear-interpolation percentile of an unsorted sample, q in [0, 100].
/// Does not modify the input. Requires a non-empty sample.
[[nodiscard]] double percentile(std::span<const double> sample, double q);

/// percentile() by selection instead of a sort: the same value, bit for
/// bit, in O(n). Reorders `sample`; never allocates.
[[nodiscard]] double percentile_in_place(std::span<double> sample, double q);

/// Index of the lower order statistic percentile() interpolates from,
/// in a sample of n >= 1 values. percentile() never returns less than
/// that order statistic.
[[nodiscard]] std::size_t percentile_rank(std::size_t n, double q) noexcept;

/// Mean of a sample (0 for empty).
[[nodiscard]] double mean(std::span<const double> sample) noexcept;

/// Sample standard deviation (n-1 denominator; 0 for n < 2).
[[nodiscard]] double stddev(std::span<const double> sample) noexcept;

/// Median (50th percentile). Requires a non-empty sample.
[[nodiscard]] double median(std::span<const double> sample);

/// Empirical cumulative distribution function over a fixed sample.
///
/// Mirrors the CDF plots of Figs. 7-9: `fraction_below(x)` answers "what
/// fraction of predictions have error <= x" and `value_at(p)` answers
/// "what error bound covers fraction p of predictions".
class Cdf {
 public:
  Cdf() = default;
  explicit Cdf(std::vector<double> sample);

  [[nodiscard]] bool empty() const noexcept { return sorted_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }

  /// Fraction of the sample with value <= x, in [0, 1].
  [[nodiscard]] double fraction_below(double x) const noexcept;

  /// Smallest sample value v such that fraction_below(v) >= p, p in (0, 1].
  [[nodiscard]] double value_at(double p) const;

  /// Sorted sample values (for plotting / table output).
  [[nodiscard]] const std::vector<double>& sorted() const noexcept {
    return sorted_;
  }

  /// Evaluate the CDF on an evenly spaced grid of `points` x-values from
  /// min to max; returns (x, fraction) pairs. Useful for ASCII plots.
  [[nodiscard]] std::vector<std::pair<double, double>> grid(
      std::size_t points) const;

 private:
  std::vector<double> sorted_;
};

/// Simple fixed-width histogram over [lo, hi) with `bins` buckets.
/// Samples outside the range are NOT clamped into the edge buckets
/// (that would distort the tail bins); they are counted separately and
/// reported via underflow() / overflow().
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  [[nodiscard]] std::size_t bin_count(std::size_t i) const;
  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  /// All samples ever added, in range or not.
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  /// Samples below lo / at or above hi.
  [[nodiscard]] std::size_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::size_t overflow() const noexcept { return overflow_; }
  /// Samples landing inside [lo, hi).
  [[nodiscard]] std::size_t in_range() const noexcept {
    return total_ - underflow_ - overflow_;
  }
  [[nodiscard]] double bin_lo(std::size_t i) const;
  [[nodiscard]] double bin_hi(std::size_t i) const;

 private:
  double lo_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
};

}  // namespace voprof::util
