#include "harness.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "voprof/util/json.hpp"
#include "voprof/util/rng.hpp"

namespace voprof::bench::harness {
namespace {

/// Deterministic busy-work body: the checksum depends only on the
/// seed, never on timing.
RepResult seeded_rep(std::uint64_t seed) {
  util::Rng rng(seed);
  double sum = 0.0;
  for (int i = 0; i < 1000; ++i) sum += rng.uniform(0, 1);
  return RepResult{2.5, sum};
}

TEST(Stats, OrderStatisticsOnKnownSample) {
  const Stats s = Stats::of({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  // Linear interpolation: p10 of 5 sorted points sits at index 0.4.
  EXPECT_NEAR(s.p10, 1.4, 1e-12);
  EXPECT_NEAR(s.p90, 4.6, 1e-12);
}

TEST(Stats, SingleSampleCollapses) {
  const Stats s = Stats::of({0.25});
  EXPECT_DOUBLE_EQ(s.min, 0.25);
  EXPECT_DOUBLE_EQ(s.p10, 0.25);
  EXPECT_DOUBLE_EQ(s.median, 0.25);
  EXPECT_DOUBLE_EQ(s.p90, 0.25);
  EXPECT_DOUBLE_EQ(s.max, 0.25);
}

TEST(Harness, JsonMatchesSchema) {
  Session session("bench_selftest");
  session.bench("work/a", BenchOptions{1, 3}, [] { return seeded_rep(7); });
  session.record_section("sweep#0", 0.5, 30.0, 123.0);

  const util::Json doc = session.to_json();
  EXPECT_EQ(doc.at("schema").as_string(), "voprof-bench-1");
  EXPECT_EQ(doc.at("binary").as_string(), "bench_selftest");

  const util::Json& env = doc.at("env");
  EXPECT_FALSE(env.at("compiler").as_string().empty());
  EXPECT_FALSE(env.at("os").as_string().empty());
  EXPECT_GE(env.at("hardware_threads").as_number(), 1.0);
  EXPECT_FALSE(env.at("timestamp_utc").as_string().empty());

  const auto& benches = doc.at("benchmarks").as_array();
  ASSERT_EQ(benches.size(), 2u);
  EXPECT_EQ(benches[0].at("name").as_string(), "work/a");
  EXPECT_DOUBLE_EQ(benches[0].at("reps").as_number(), 3.0);
  EXPECT_EQ(benches[0].at("raw_wall_s").as_array().size(), 3u);
  const util::Json& wall = benches[0].at("wall_s");
  for (const char* k : {"min", "p10", "median", "p90", "max", "mean"}) {
    EXPECT_GT(wall.at(k).as_number(), 0.0) << k;
  }
  // sim_s = 2.5 per rep -> throughput stats present.
  EXPECT_GT(benches[0]
                .at("throughput_sim_s_per_wall_s")
                .at("median")
                .as_number(),
            0.0);
  // The one-shot section has one rep and carries its checksum.
  EXPECT_EQ(benches[1].at("name").as_string(), "sweep#0");
  EXPECT_DOUBLE_EQ(benches[1].at("checksum").as_number(), 123.0);

  // The document round-trips through the parser.
  EXPECT_TRUE(util::Json::parse_result(doc.dump()).ok());
}

TEST(Harness, RepetitionsDeterministicUnderFixedSeed) {
  Session a("bench_det");
  Session b("bench_det");
  for (Session* s : {&a, &b}) {
    s->bench("fixed-seed", BenchOptions{0, 4}, [] { return seeded_rep(42); });
  }
  ASSERT_EQ(a.measurements().size(), 1u);
  ASSERT_EQ(b.measurements().size(), 1u);
  // Same seed -> bit-identical checksum, independent of wall time.
  EXPECT_EQ(a.measurements()[0].checksum, b.measurements()[0].checksum);
  EXPECT_EQ(a.measurements()[0].wall_s.size(), 4u);
  EXPECT_DOUBLE_EQ(a.measurements()[0].sim_s, 2.5);
}

TEST(Harness, SectionNamesCount) {
  Session session("bench_sections");
  EXPECT_EQ(session.next_section_name("cells"), "cells#0");
  EXPECT_EQ(session.next_section_name("cells"), "cells#1");
}

TEST(Harness, WritesParsableFileToBenchDir) {
  std::string dir = ::testing::TempDir();
  while (!dir.empty() && dir.back() == '/') dir.pop_back();
  ASSERT_EQ(setenv("VOPROF_BENCH_DIR", dir.c_str(), 1), 0);
  {
    Session session("bench_filecheck");
    session.bench("w", BenchOptions{0, 2}, [] { return seeded_rep(1); });
    EXPECT_TRUE(session.write_file());
    EXPECT_EQ(session.output_path(), dir + "/BENCH_filecheck.json");
  }
  std::ifstream in(dir + "/BENCH_filecheck.json");
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const util::Json doc = util::Json::parse_result(text.str()).value();
  EXPECT_EQ(doc.at("schema").as_string(), "voprof-bench-1");
  unsetenv("VOPROF_BENCH_DIR");
}

}  // namespace
}  // namespace voprof::bench::harness
