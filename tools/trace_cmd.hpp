#pragma once
/// \file trace_cmd.hpp
/// `voprofctl trace` implementation: load a voprof Chrome-trace file
/// (schema "voprof-trace-1", written by obs::TraceCollector) and
/// aggregate it into per-category and per-span tables. A library so
/// the tests (tests/test_trace_tool.cpp) can drive it without
/// spawning the CLI; `voprofctl trace summary|top|export` wraps it.

#include <string>
#include <vector>

#include "voprof/util/json.hpp"

namespace voprof::tools {

/// Aggregate of one trace category ("engine", "runner", "scheduler"...).
struct TraceCategoryStats {
  std::string category;
  int spans = 0;         ///< complete events (ph "X")
  int instants = 0;      ///< instant events (ph "i")
  int counters = 0;      ///< counter events (ph "C")
  double wall_ms = 0.0;  ///< summed duration of wall-clock spans
  double sim_ms = 0.0;   ///< summed duration of sim-clock spans
};

/// Aggregate of one span name within a category.
struct TraceSpanStats {
  std::string category;
  std::string name;
  int count = 0;
  double wall_ms = 0.0;
  double sim_ms = 0.0;
};

/// The digest `voprofctl trace` renders.
struct TraceSummary {
  std::string schema;
  int total_events = 0;   ///< traceEvents entries, metadata included
  int metric_count = 0;   ///< entries in the embedded voprofMetrics
  /// Sorted by category name.
  std::vector<TraceCategoryStats> categories;
  /// Sorted by total (wall + sim) time, busiest first.
  std::vector<TraceSpanStats> spans;
};

/// Aggregate the events of a parsed voprof trace. A document that is
/// not one (schema "voprof-trace-1" and a traceEvents array) gives an
/// empty summary, whose schema is "".
[[nodiscard]] TraceSummary summarize_trace(const util::Json& doc);

/// Read, parse and summarize a trace file: Errc::kIo when it cannot be
/// opened, kParse for malformed JSON, kValidation for a document that
/// is not a voprof trace.
[[nodiscard]] util::Result<TraceSummary> summarize_trace_file(
    const std::string& path);

/// Per-category time table ("voprofctl trace summary").
[[nodiscard]] std::string format_trace_summary(const TraceSummary& s);

/// Top span names by total time ("voprofctl trace top"); limit <= 0
/// means all.
[[nodiscard]] std::string format_trace_top(const TraceSummary& s, int limit);

/// CSV of every span-name aggregate, one row per (category, name):
/// `category,name,count,wall_ms,sim_ms` ("voprofctl trace export").
[[nodiscard]] std::string trace_spans_csv(const TraceSummary& s);

}  // namespace voprof::tools
