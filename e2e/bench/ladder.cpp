#include "ladder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "voprof/util/stats.hpp"

namespace voprof::e2e {

LatencySummary summarize(const std::vector<double>& ms) {
  LatencySummary s;
  s.count = ms.size();
  if (ms.empty()) return s;
  s.p50_ms = util::percentile(ms, 50.0);
  s.p99_ms = util::percentile(ms, 99.0);
  s.mean_ms = std::accumulate(ms.begin(), ms.end(), 0.0) /
              static_cast<double>(ms.size());
  return s;
}

bool generator_fell_behind(double late_p99_ms) {
  return late_p99_ms > 0.5 * kLatencyLimitMs;
}

bool backlog_grew(const std::vector<double>& in_flight) {
  const std::size_t quarter = in_flight.size() / 4;
  if (quarter == 0) return false;
  const auto mean = [](auto first, auto last) {
    return std::accumulate(first, last, 0.0) /
           static_cast<double>(std::distance(first, last));
  };
  const double head = mean(in_flight.begin(), in_flight.begin() + quarter);
  const double tail = mean(in_flight.end() - quarter, in_flight.end());
  return tail - head > std::max(8.0, head);
}

bool rate_qualifies(const RateOutcome& o) {
  return o.latency.count > 0 && o.failed == 0 &&
         o.latency.p99_ms <= kLatencyLimitMs &&
         !generator_fell_behind(o.late_p99_ms) && !o.backlog_grew;
}

void RateSearch::record(double rate, bool passed) {
  if (best() > 0.0 && lowest_fail() < std::numeric_limits<double>::infinity()) {
    ++bisected_;
  }
  (passed ? passed_ : failed_).push_back(rate);
}

double RateSearch::lowest_fail() const {
  return failed_.empty()
             ? std::numeric_limits<double>::infinity()
             : *std::min_element(failed_.begin(), failed_.end());
}

double RateSearch::best() const {
  const double hi = lowest_fail();
  double lo = 0.0;
  for (double r : passed_) {
    if (r < hi) lo = std::max(lo, r);
  }
  return lo;
}

double RateSearch::next() const {
  const double hi = lowest_fail();
  const double lo = best();
  if (hi == std::numeric_limits<double>::infinity()) {
    const double up = lo * step_;
    return lo > 0.0 && up <= cap_rate_ ? up : 0.0;
  }
  if (lo == 0.0) {
    const double down = hi / step_;
    return down >= floor_rate_ ? down : 0.0;
  }
  return bisected_ < bisections_ ? std::sqrt(lo * hi) : 0.0;
}

}  // namespace voprof::e2e
