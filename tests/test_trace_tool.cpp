// `voprofctl trace` digestion (tools/trace_cmd): aggregation of a
// collector-produced document, schema rejection of foreign JSON, and
// the rendered summary/top/export forms.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "trace_cmd.hpp"
#include "voprof/obs/trace.hpp"
#include "voprof/util/json.hpp"

namespace {

using namespace voprof;

/// A small but representative document straight from the collector:
/// wall + sim spans, an instant, and the metrics snapshot.
util::Json sample_doc() {
  auto& col = obs::TraceCollector::global();
  col.disable();
  col.enable("unused_trace_tool.json");
  col.complete_wall("runner", "SweepRunner.map", 0, 4000);
  col.complete_wall("runner", "SweepRunner.map", 5000, 2000);
  col.complete_wall("taskpool", "task", 100, 1500);
  col.complete_sim("scheduler", "contention", 0, 250000, /*tid=*/0,
                   110.0);
  col.instant_sim("vm", "vm-created", 10, /*tid=*/0, 0.0, "vm1");
  util::Json doc = col.to_json();
  col.disable();
  return doc;
}

TEST(TraceTool, SummarizesPerCategory) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  const tools::TraceSummary s = tools::summarize_trace(sample_doc());
  EXPECT_EQ(s.schema, obs::kTraceSchema);
  EXPECT_GE(s.total_events, 5);

  bool saw_runner = false;
  bool saw_scheduler = false;
  bool saw_vm = false;
  for (const tools::TraceCategoryStats& c : s.categories) {
    if (c.category == "runner") {
      saw_runner = true;
      EXPECT_EQ(c.spans, 2);
      EXPECT_DOUBLE_EQ(c.wall_ms, 6.0);
      EXPECT_DOUBLE_EQ(c.sim_ms, 0.0);
    }
    if (c.category == "scheduler") {
      saw_scheduler = true;
      EXPECT_EQ(c.spans, 1);
      EXPECT_DOUBLE_EQ(c.sim_ms, 250.0);
    }
    if (c.category == "vm") {
      saw_vm = true;
      EXPECT_EQ(c.instants, 1);
    }
  }
  EXPECT_TRUE(saw_runner);
  EXPECT_TRUE(saw_scheduler);
  EXPECT_TRUE(saw_vm);
}

TEST(TraceTool, SpansSortedBusiestFirst) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  const tools::TraceSummary s = tools::summarize_trace(sample_doc());
  ASSERT_GE(s.spans.size(), 3u);
  for (std::size_t i = 1; i < s.spans.size(); ++i) {
    EXPECT_GE(s.spans[i - 1].wall_ms + s.spans[i - 1].sim_ms,
              s.spans[i].wall_ms + s.spans[i].sim_ms);
  }
  // The merged SweepRunner.map aggregate: two occurrences, 6 ms total.
  EXPECT_EQ(s.spans[1].name, "SweepRunner.map");
  EXPECT_EQ(s.spans[1].count, 2);
  EXPECT_DOUBLE_EQ(s.spans[1].wall_ms, 6.0);
}

/// Write `text` to a temporary file and return its path.
std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(TraceTool, RejectsForeignDocuments) {
  // A document that is not a voprof trace summarizes to nothing...
  for (const char* text : {"[1,2]", "{}", R"({"schema":"other-schema-9"})",
                           R"({"schema":"voprof-trace-1","traceEvents":5})"}) {
    const tools::TraceSummary s =
        tools::summarize_trace(util::Json::parse_result(text).value());
    EXPECT_EQ(s.schema, "") << text;
    EXPECT_EQ(s.total_events, 0) << text;
    // ...and as a file it is a validation error naming the file.
    const std::string path = write_temp("foreign_trace.json", text);
    const util::Result<tools::TraceSummary> r =
        tools::summarize_trace_file(path);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.error().code, util::Errc::kValidation) << text;
    EXPECT_EQ(r.error().context, path);
    std::remove(path.c_str());
  }
  const std::string path = write_temp("malformed_trace.json", "{\"schema\"");
  const util::Result<tools::TraceSummary> r = tools::summarize_trace_file(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, util::Errc::kParse);
  std::remove(path.c_str());
}

TEST(TraceTool, OutOfRangePidIsWallTime) {
  // A pid no int can hold is compared, never cast: it is not the sim pid.
  const tools::TraceSummary s = tools::summarize_trace(
      util::Json::parse_result(
          R"({"schema":"voprof-trace-1","traceEvents":[)"
          R"({"ph":"X","cat":"c","name":"n","pid":1e20,"dur":2000}]})")
          .value());
  ASSERT_EQ(s.spans.size(), 1u);
  EXPECT_DOUBLE_EQ(s.spans[0].wall_ms, 2.0);
  EXPECT_DOUBLE_EQ(s.spans[0].sim_ms, 0.0);
}

TEST(TraceTool, SummaryAndTopRender) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  const tools::TraceSummary s = tools::summarize_trace(sample_doc());
  const std::string table = tools::format_trace_summary(s);
  EXPECT_NE(table.find("runner"), std::string::npos);
  EXPECT_NE(table.find("scheduler"), std::string::npos);
  EXPECT_NE(table.find("wall(ms)"), std::string::npos);

  const std::string top1 = tools::format_trace_top(s, 1);
  EXPECT_NE(top1.find("top 1 spans"), std::string::npos);
  // Only the busiest span appears.
  EXPECT_EQ(top1.find("vm-created"), std::string::npos);
  const std::string all = tools::format_trace_top(s, 0);
  EXPECT_NE(all.find("SweepRunner.map"), std::string::npos);
}

TEST(TraceTool, ExportCsvHasHeaderAndAllSpanRows) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  tools::TraceSummary s = tools::summarize_trace(sample_doc());
  s.spans.push_back({"odd", "a,\"b\"\nc", 1, 2.0, 0.0});
  const std::string csv = tools::trace_spans_csv(s);
  EXPECT_EQ(csv.rfind("category,name,count,wall_ms,sim_ms\n", 0), 0u);
  EXPECT_NE(csv.find("runner,SweepRunner.map,2,"), std::string::npos);
  EXPECT_NE(csv.find("scheduler,contention,1,"), std::string::npos);
  // RFC 4180: a field holding a comma, quote or newline is quoted and
  // its quotes doubled.
  EXPECT_NE(csv.find("\nodd,\"a,\"\"b\"\"\nc\",1,2,0\n"), std::string::npos);
}

TEST(TraceTool, LoadsFromFile) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  const std::string path = ::testing::TempDir() + "test_trace_tool.json";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << sample_doc().dump(0) << '\n';
  }
  const tools::TraceSummary s = tools::summarize_trace_file(path).value();
  EXPECT_EQ(s.schema, obs::kTraceSchema);
  EXPECT_FALSE(s.categories.empty());
  std::remove(path.c_str());
  const util::Result<tools::TraceSummary> gone =
      tools::summarize_trace_file(path);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.error().code, util::Errc::kIo);
}

}  // namespace
