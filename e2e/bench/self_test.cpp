/// \file self_test.cpp
/// `voprof-bench --self-test`: checks of the benchmark's own logic —
/// percentiles, generator lateness, backlog growth, rate qualification,
/// the max-rate search and the trace self-time accounting.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "ladder.hpp"
#include "layers.hpp"
#include "report.hpp"

namespace voprof::e2e {
namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cout << "FAIL: " << what << '\n';
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9 * (1 + std::fabs(b)); }

void test_percentiles() {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  const LatencySummary s = summarize(xs);
  expect(s.count == 100, "summary counts every sample");
  expect(near(s.p50_ms, 50.5), "p50 interpolates between order statistics");
  expect(near(s.p99_ms, 99.01), "p99 interpolates between order statistics");
  expect(near(s.mean_ms, 50.5), "mean");
  expect(summarize({}).count == 0, "empty sample summarizes to count 0");
  expect(median_of({}) == 0.0 && median_of({3, 1, 2}) == 2.0, "median_of");
}

void test_lateness_and_backlog() {
  expect(!generator_fell_behind(0.5 * kLatencyLimitMs),
         "lateness at half the limit is on time");
  expect(generator_fell_behind(0.51 * kLatencyLimitMs),
         "lateness above half the limit fell behind");

  expect(!backlog_grew({}), "no samples: no backlog");
  expect(!backlog_grew({0, 50, 100}), "fewer than four samples: no verdict");
  std::vector<double> flat;
  for (int i = 0; i < 1000; ++i) flat.push_back(i % 3);
  expect(!backlog_grew(flat), "jitter around a constant is flat");
  std::vector<double> growing;
  for (int i = 0; i < 1000; ++i) growing.push_back(i / 10.0);
  expect(backlog_grew(growing), "a queue growing through the phase");
  // Head 10, tail 10 + x: grows only when x > max(8, 10).
  std::vector<double> mild(8, 10.0);
  mild[6] = mild[7] = 20.0;
  expect(!backlog_grew(mild), "growth equal to the head mean is not enough");
  mild[6] = mild[7] = 20.5;
  expect(backlog_grew(mild), "growth beyond the head mean");
}

void test_qualifies() {
  RateOutcome good;
  good.rate = 10000;
  good.latency = {1000, 0.05, 0.2, 0.06};
  expect(rate_qualifies(good), "fast, complete, on-time phase qualifies");
  RateOutcome o = good;
  o.latency.p99_ms = 1.01;
  expect(!rate_qualifies(o), "p99 above the limit");
  o = good;
  o.failed = 1;
  expect(!rate_qualifies(o), "a failed request misses the limit");
  o = good;
  o.late_p99_ms = 0.9;
  expect(!rate_qualifies(o), "generator behind schedule");
  o = good;
  o.backlog_grew = true;
  expect(!rate_qualifies(o), "growing backlog");
  o = good;
  o.latency.count = 0;
  expect(!rate_qualifies(o), "no completed request");
}

void test_search() {
  RateSearch up(1.25, 2, 500, 400000);
  up.record(2000, true);
  up.record(10000, true);
  up.record(20000, true);
  expect(near(up.next(), 25000), "steps up by 1.25 from the best pass");
  up.record(25000, true);
  expect(near(up.next(), 31250), "keeps stepping up while passing");
  up.record(31250, false);
  const double mid = std::sqrt(25000.0 * 31250.0);
  expect(near(up.next(), mid), "first failure starts the bisection");
  up.record(mid, true);
  expect(near(up.next(), std::sqrt(mid * 31250.0)), "second bisection");
  up.record(std::sqrt(mid * 31250.0), false);
  expect(up.next() == 0.0, "stops after two bisections");
  expect(near(up.best(), mid), "best is the highest pass below a failure");

  RateSearch between(1.25, 2, 500, 400000);
  between.record(2000, true);
  between.record(10000, false);
  between.record(20000, false);
  expect(near(between.next(), std::sqrt(2000.0 * 10000.0)),
         "a bracket from the fixed rates bisects at once");

  RateSearch down(1.25, 2, 500, 400000);
  down.record(2000, false);
  expect(near(down.next(), 1600), "steps down from the lowest failure");
  down.record(1600, false);
  down.record(1280, false);
  down.record(1024, false);
  down.record(819.2, false);
  down.record(655.36, false);
  down.record(524.288, false);
  expect(down.next() == 0.0, "never proposes below the floor");
  expect(down.best() == 0.0, "no pass: best is 0");

  RateSearch noisy(1.25, 2, 500, 400000);
  noisy.record(2000, true);
  noisy.record(10000, false);
  noisy.record(20000, true);
  expect(near(noisy.best(), 2000), "a pass above a failure does not count");

  RateSearch capped(1.25, 2, 500, 24000);
  capped.record(20000, true);
  expect(capped.next() == 0.0, "never proposes above the cap");
}

void test_self_time() {
  const std::vector<Span> spans = {
      {"A", "parent", 1, 0, 100},  {"B", "child", 1, 10, 30},
      {"C", "grandchild", 1, 20, 10}, {"A", "other", 2, 0, 50},
      {"D", "after", 1, 100, 5}};
  const auto self = self_ms_by_category(spans);
  expect(near(self.at("A"), (100 - 30 + 50) / 1000.0),
         "parent self time excludes its child, other threads add");
  expect(near(self.at("B"), 20 / 1000.0), "child self excludes grandchild");
  expect(near(self.at("C"), 10 / 1000.0), "leaf self time is its duration");
  expect(near(self.at("D"), 5 / 1000.0), "a span starting at an end is not a child");
  expect(near(covered_us(spans, 0, 200), 105), "union of overlapping spans");
  expect(near(covered_us({{"A", "x", 1, 0, 10}, {"A", "y", 1, 5, 15},
                          {"A", "z", 1, 30, 10}},
                         0, 35),
              25),
         "union clipped to the window");
  expect(is_program_span({"core", "fit", 1, 0, 1}) &&
             !is_program_span({"core", "bench.fit_models", 1, 0, 1}),
         "benchmark spans are told apart from program spans");
}

}  // namespace

int run_self_tests() {
  test_percentiles();
  test_lateness_and_backlog();
  test_qualifies();
  test_search();
  test_self_time();
  return g_failures;
}

}  // namespace voprof::e2e
