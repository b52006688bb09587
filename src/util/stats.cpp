#include "voprof/util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "voprof/util/assert.hpp"

namespace voprof::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double RunningStats::sample_variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept {
  return std::sqrt(sample_variance());
}

namespace {

/// Fractional rank percentile() interpolates at.
double rank_position(std::size_t n, double q) noexcept {
  return q / 100.0 * static_cast<double>(n - 1);
}

}  // namespace

double percentile(std::span<const double> sample, double q) {
  std::vector<double> copy(sample.begin(), sample.end());
  return percentile_in_place(copy, q);
}

std::size_t percentile_rank(std::size_t n, double q) noexcept {
  return static_cast<std::size_t>(rank_position(n, q));
}

double percentile_in_place(std::span<double> sample, double q) {
  VOPROF_REQUIRE_MSG(!sample.empty(), "percentile of empty sample");
  VOPROF_REQUIRE(q >= 0.0 && q <= 100.0);
  const std::size_t n = sample.size();
  if (n == 1) return sample.front();
  const double pos = rank_position(n, q);
  const auto lo = static_cast<std::size_t>(pos);
  // After nth_element, sample[lo] is the lo-th order statistic and the
  // next one up is the smallest value of the tail behind it.
  const auto lo_it = sample.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(sample.begin(), lo_it, sample.end());
  const double lo_v = *lo_it;
  const double hi_v =
      lo + 1 < n ? *std::min_element(lo_it + 1, sample.end()) : lo_v;
  return lo_v + (pos - static_cast<double>(lo)) * (hi_v - lo_v);
}

double mean(std::span<const double> sample) noexcept {
  if (sample.empty()) return 0.0;
  double s = 0.0;
  for (double v : sample) s += v;
  return s / static_cast<double>(sample.size());
}

double stddev(std::span<const double> sample) noexcept {
  if (sample.size() < 2) return 0.0;
  const double m = mean(sample);
  double s = 0.0;
  for (double v : sample) s += (v - m) * (v - m);
  return std::sqrt(s / static_cast<double>(sample.size() - 1));
}

double median(std::span<const double> sample) {
  return percentile(sample, 50.0);
}

Cdf::Cdf(std::vector<double> sample) : sorted_(std::move(sample)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Cdf::fraction_below(double x) const noexcept {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Cdf::value_at(double p) const {
  VOPROF_REQUIRE_MSG(!sorted_.empty(), "value_at on empty CDF");
  VOPROF_REQUIRE(p > 0.0 && p <= 1.0);
  const auto n = static_cast<double>(sorted_.size());
  auto idx = static_cast<std::size_t>(std::ceil(p * n)) - 1;
  idx = std::min(idx, sorted_.size() - 1);
  return sorted_[idx];
}

std::vector<std::pair<double, double>> Cdf::grid(std::size_t points) const {
  VOPROF_REQUIRE(points >= 2);
  std::vector<std::pair<double, double>> out;
  if (sorted_.empty()) return out;
  const double lo = sorted_.front();
  const double hi = sorted_.back();
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1);
    out.emplace_back(x, fraction_below(x));
  }
  return out;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  VOPROF_REQUIRE(hi > lo);
  VOPROF_REQUIRE(bins > 0);
}

void Histogram::add(double x) noexcept {
  ++total_;
  const double rel = (x - lo_) / width_;
  // NaN fails the first comparison and lands in underflow; +inf in
  // overflow. Both bounds are checked before the cast (UB otherwise).
  if (!(rel >= 0.0)) {
    ++underflow_;
  } else if (!(rel < static_cast<double>(counts_.size()))) {
    ++overflow_;
  } else {
    ++counts_[static_cast<std::size_t>(rel)];
  }
}

std::size_t Histogram::bin_count(std::size_t i) const {
  VOPROF_REQUIRE(i < counts_.size());
  return counts_[i];
}

double Histogram::bin_lo(std::size_t i) const {
  VOPROF_REQUIRE(i < counts_.size());
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i) + width_; }

}  // namespace voprof::util
