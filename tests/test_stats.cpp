#include "voprof/util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "voprof/util/assert.hpp"

namespace voprof::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // population variance
  EXPECT_NEAR(s.sample_variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsCombinedStream) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double v = std::sin(i * 0.7) * 10 + i;
    (i < 25 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Percentile, EndpointsAndMedian) {
  const std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(median(v), 3.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 90.0), 9.0);
}

TEST(Percentile, SingleElement) {
  const std::vector<double> v = {7.0};
  EXPECT_DOUBLE_EQ(percentile(v, 10.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(v, 90.0), 7.0);
}

TEST(Percentile, RejectsEmptyAndBadQ) {
  const std::vector<double> v = {1.0};
  EXPECT_THROW((void)percentile({}, 50.0), ContractViolation);
  EXPECT_THROW((void)percentile(v, -1.0), ContractViolation);
  EXPECT_THROW((void)percentile(v, 101.0), ContractViolation);
  std::vector<double> scratch = v;
  EXPECT_THROW((void)percentile_in_place({}, 50.0), ContractViolation);
  EXPECT_THROW((void)percentile_in_place(scratch, 101.0), ContractViolation);
}

TEST(Percentile, SelectionMatchesSortedReference) {
  // Ties, repeated extremes and both signs: the selected order
  // statistics (and their interpolation) must equal the sorted ones.
  const std::vector<std::vector<double>> samples = {
      {3.0},
      {2.0, 2.0},
      {1.0, 5.0, 5.0, 5.0, 0.0, 5.0, 1.0},
      {-4.0, 7.5, 7.5, -4.0, 0.0, 0.0, 12.25, 7.5, -4.0, 3.0, 3.0},
      {9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0, 0.0, 1.0},
  };
  for (const std::vector<double>& v : samples) {
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.0, 50.0, 85.0, 100.0}) {
      const double pos = q / 100.0 * static_cast<double>(sorted.size() - 1);
      const auto lo = static_cast<std::size_t>(pos);
      const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
      const double want =
          sorted.size() == 1
              ? sorted.front()
              : sorted[lo] + (pos - static_cast<double>(lo)) *
                                 (sorted[hi] - sorted[lo]);
      std::vector<double> scratch = v;
      EXPECT_EQ(percentile_in_place(scratch, q), want)
          << "n=" << v.size() << " q=" << q;
      EXPECT_EQ(percentile(v, q), want) << "n=" << v.size() << " q=" << q;
      EXPECT_EQ(percentile_rank(v.size(), q), lo);
      // Selection only reorders.
      std::sort(scratch.begin(), scratch.end());
      EXPECT_EQ(scratch, sorted);
    }
  }
}

TEST(MeanStddev, BasicValues) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_NEAR(stddev(v), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(stddev({}), 0.0);
}

TEST(Cdf, FractionBelow) {
  Cdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.fraction_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(100.0), 1.0);
}

TEST(Cdf, ValueAtFractions) {
  Cdf cdf({10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0});
  EXPECT_DOUBLE_EQ(cdf.value_at(0.9), 90.0);
  EXPECT_DOUBLE_EQ(cdf.value_at(0.1), 10.0);
  EXPECT_DOUBLE_EQ(cdf.value_at(1.0), 100.0);
}

TEST(Cdf, ValueAtIsInverseOfFractionBelow) {
  Cdf cdf({3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0});
  for (double p : {0.125, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_GE(cdf.fraction_below(cdf.value_at(p)), p - 1e-12);
  }
}

TEST(Cdf, EmptyBehaviour) {
  Cdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.fraction_below(1.0), 0.0);
  EXPECT_THROW((void)cdf.value_at(0.5), ContractViolation);
}

TEST(Cdf, GridSpansRange) {
  Cdf cdf({0.0, 5.0, 10.0});
  const auto g = cdf.grid(11);
  ASSERT_EQ(g.size(), 11u);
  EXPECT_DOUBLE_EQ(g.front().first, 0.0);
  EXPECT_DOUBLE_EQ(g.back().first, 10.0);
  EXPECT_DOUBLE_EQ(g.back().second, 1.0);
  for (std::size_t i = 1; i < g.size(); ++i) {
    EXPECT_GE(g[i].second, g[i - 1].second);  // monotone
  }
}

TEST(Histogram, CountsWithoutClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 4
  h.add(-3.0);   // below range: underflow, NOT bin 0
  h.add(42.0);   // above range: overflow, NOT bin 4
  h.add(5.0);    // bin 2
  h.add(10.0);   // hi is exclusive: overflow
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.in_range(), 3u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(2), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_DOUBLE_EQ(h.bin_lo(2), 4.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(2), 6.0);
}

TEST(Histogram, NonFiniteSamplesAreOutOfRange) {
  Histogram h(0.0, 1.0, 4);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.in_range(), 0u);
  EXPECT_EQ(h.underflow(), 2u);  // NaN lands in underflow, like -inf
  EXPECT_EQ(h.overflow(), 1u);
  for (std::size_t i = 0; i < h.bins(); ++i) EXPECT_EQ(h.bin_count(i), 0u);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), ContractViolation);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), ContractViolation);
}

}  // namespace
}  // namespace voprof::util
