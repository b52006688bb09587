#pragma once
/// \file ladder.hpp
/// The decision logic of the serve workload's open-loop load ladder,
/// kept free of sockets and clocks so the self-tests can drive it:
/// latency summaries, generator lateness, backlog growth, whether a
/// rate meets the latency limit, and the geometric max-rate search.

#include <cstddef>
#include <vector>

namespace voprof::e2e {

/// Latency limit a ladder rate must meet at p99 (ms).
inline constexpr double kLatencyLimitMs = 1.0;

/// Percentiles of one latency sample. Empty samples summarize to
/// zeros with count 0.
struct LatencySummary {
  std::size_t count = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
};
[[nodiscard]] LatencySummary summarize(const std::vector<double>& ms);

/// What one fixed-rate phase of the ladder observed.
struct RateOutcome {
  double rate = 0.0;           ///< offered predict rate (req/s)
  LatencySummary latency;      ///< from each request's due send time
  std::size_t failed = 0;      ///< error responses, lost or mismatched
  double late_p99_ms = 0.0;    ///< generator lateness at p99
  bool backlog_grew = false;   ///< in-flight count grew through the phase
};

/// The generator fell behind its schedule: its own lateness is a large
/// share of the latency limit, so the phase measured the client.
[[nodiscard]] bool generator_fell_behind(double late_p99_ms);

/// In-flight samples taken in send order across one phase. The backlog
/// grew when the mean of the last quarter exceeds the first quarter's
/// by more than max(8, first-quarter mean): a queue that keeps growing
/// for the whole phase, not the jitter of a few requests.
[[nodiscard]] bool backlog_grew(const std::vector<double>& in_flight);

/// A rate qualifies when p99 stays within the limit, nothing failed,
/// the generator kept up and the backlog stayed flat. A refused or
/// failed request counts as missing the limit.
[[nodiscard]] bool rate_qualifies(const RateOutcome& outcome);

/// Highest-qualifying-rate search: geometric steps of `step` above the
/// best passing rate until a rate fails (or below the lowest failing
/// rate until one passes, never under `floor_rate`), then `bisections`
/// geometric midpoints of the bracket. Rates above `cap_rate` are not
/// proposed. The caller bounds how many proposals it measures.
class RateSearch {
 public:
  RateSearch(double step, int bisections, double floor_rate, double cap_rate)
      : step_(step),
        bisections_(bisections),
        floor_rate_(floor_rate),
        cap_rate_(cap_rate) {}

  /// Record a measured rate (the fixed ladder rates included).
  void record(double rate, bool passed);
  /// The next rate to measure, or 0 when the search is over.
  [[nodiscard]] double next() const;
  /// Highest passing rate below the lowest failing one (0 if none).
  [[nodiscard]] double best() const;

 private:
  [[nodiscard]] double lowest_fail() const;

  double step_;
  int bisections_;
  double floor_rate_;
  double cap_rate_;
  int bisected_ = 0;  ///< records made while the bracket was closed
  std::vector<double> passed_;
  std::vector<double> failed_;
};

}  // namespace voprof::e2e
