#pragma once
/// \file layers.hpp
/// Per-layer accounting: deltas of the obs counters the program keeps,
/// and self time per trace category from a voprof-trace-1 file.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.hpp"
#include "voprof/obs/trace.hpp"
#include "voprof/util/json.hpp"

namespace voprof::e2e {

/// Monotonic nanoseconds (the benchmark's only clock).
[[nodiscard]] std::int64_t now_ns();

/// Run `fn` and return its wall time (s). While the in-process trace
/// collector is on, also record the call as a benchmark span
/// "bench.<name>" in category `layer`, the layer being called.
template <typename Fn>
double timed_call(const std::string& layer, const std::string& name, Fn&& fn) {
  obs::TraceCollector& collector = obs::TraceCollector::global();
  const bool tracing = collector.enabled();
  const std::int64_t ts = tracing ? collector.wall_now_us() : 0;
  const std::int64_t t0 = now_ns();
  fn();
  const double seconds = static_cast<double>(now_ns() - t0) / 1e9;
  if (tracing) {
    collector.complete_wall(layer, "bench." + name, ts,
                            collector.wall_now_us() - ts);
  }
  return seconds;
}

/// Counter and gauge values by registry name.
using Counters = std::map<std::string, double>;

/// The in-process registry now.
[[nodiscard]] Counters read_counters();
/// A `voprofMetrics` object of a trace file (name -> {"kind", "value"})
/// or the `metrics` object of a voprof-metrics-1 snapshot (name ->
/// value).
[[nodiscard]] Counters counters_from_json(const util::Json& metrics);
/// after[name] - before[name]; absent names read as 0.
[[nodiscard]] double delta(const Counters& before, const Counters& after,
                           const std::string& name);

/// One wall-clock complete event of a trace.
struct Span {
  std::string cat;
  std::string name;
  std::uint64_t tid = 0;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
};

/// The per-layer metrics read from counter deltas, per operation over
/// `ops` operations: xensim/monitor/runner counts, model-cache hits and
/// misses, task CPU, and busy share = task CPU / (op_wall_s x jobs).
void counter_layers(std::map<std::string, double>& layer,
                    const Counters& before, const Counters& after, double ops,
                    double op_wall_s, int jobs);

/// Wall-clock complete events of a voprof-trace-1 document.
[[nodiscard]] std::vector<Span> wall_spans(const util::Json& trace);

/// Self time per category (ms): each span's duration minus the part of
/// it that child spans on the same thread cover.
[[nodiscard]] std::map<std::string, double> self_ms_by_category(
    const std::vector<Span>& spans);

/// Length (us) of the union of the intervals of `spans` clipped to
/// [begin_us, end_us).
[[nodiscard]] double covered_us(const std::vector<Span>& spans,
                                std::int64_t begin_us, std::int64_t end_us);

/// Summed duration (us) and count of spans with this category and name.
struct SpanTotal {
  double us = 0.0;
  std::size_t count = 0;
};
[[nodiscard]] SpanTotal span_total(const std::vector<Span>& spans,
                                   const std::string& cat,
                                   const std::string& name);

/// True for spans the program recorded, false for the benchmark's own.
[[nodiscard]] bool is_program_span(const Span& s);

/// Digest of a finished trace: its wall spans, and the table rows of
/// its category summary (tools::summarize_trace) and self times.
[[nodiscard]] std::vector<Span> digest_trace(Report& rep,
                                             const util::Json& doc,
                                             const std::string& title);

/// Counters and spans of one stretch of work run with the in-process
/// collector on.
struct Traced {
  Counters before;
  Counters after;
  std::vector<Span> spans;
  std::int64_t begin_us = 0;  ///< collector clock
  std::int64_t end_us = 0;
  /// Share of [begin_us, end_us) that no program span covers.
  [[nodiscard]] double unattributed_share() const;
};

/// Stop the in-process collector, write its trace and digest it into
/// `rep`; fills spans and end_us.
void finish_trace(Report& rep, const std::string& path, Traced* t);

/// Run `fn` with the in-process collector writing to `path`.
template <typename Fn>
Traced run_traced(Report& rep, const std::string& path, Fn&& fn) {
  obs::TraceCollector& collector = obs::TraceCollector::global();
  collector.enable(path);
  Traced t;
  t.begin_us = collector.wall_now_us();
  t.before = read_counters();
  fn();
  t.after = read_counters();
  finish_trace(rep, path, &t);
  return t;
}

}  // namespace voprof::e2e
