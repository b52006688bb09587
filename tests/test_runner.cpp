#include "voprof/runner/runner.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "voprof/scenario/scenario.hpp"
#include "voprof/util/assert.hpp"

namespace voprof::runner {
namespace {

RunOptions jobs_opts(int jobs) {
  RunOptions opts;
  opts.jobs = jobs;
  return opts;
}

TEST(SeedFor, IsPureAndIndexSensitive) {
  EXPECT_EQ(util::seed_for(42, 0), util::seed_for(42, 0));
  EXPECT_NE(util::seed_for(42, 0), util::seed_for(42, 1));
  EXPECT_NE(util::seed_for(42, 0), util::seed_for(43, 0));
}

TEST(SeedFor, AdjacentIndicesShareNoObviousStructure) {
  // Derived seeds should look unrelated: all distinct, and not simply
  // offset by a constant stride.
  std::set<std::uint64_t> seen;
  std::set<std::uint64_t> deltas;
  std::uint64_t prev = util::seed_for(7, 0);
  seen.insert(prev);
  for (std::uint64_t i = 1; i < 256; ++i) {
    const std::uint64_t s = util::seed_for(7, i);
    seen.insert(s);
    deltas.insert(s - prev);
    prev = s;
  }
  EXPECT_EQ(seen.size(), 256u);
  EXPECT_GT(deltas.size(), 250u);
}

/// RunOptions from a bench-style command line declaring jobs_flag().
util::Result<RunOptions> run_options(const std::vector<std::string>& tokens) {
  const util::Result<util::CliArgs> args =
      util::CliArgs::parse(tokens, {jobs_flag()});
  if (!args.ok()) return args.error();
  return options_from_cli(args.value());
}

TEST(RunOptions, ParsesJobsFlag) {
  const util::Result<RunOptions> opts = run_options({"--jobs", "3"});
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts.value().jobs, 3);
}

TEST(RunOptions, DefaultsToAllHardwareThreads) {
  const util::Result<RunOptions> opts = run_options({});
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts.value().jobs, 0);
  EXPECT_EQ(SweepRunner(opts.value()).jobs(), util::TaskPool::default_jobs());
}

TEST(RunOptions, RejectsUnknownFlagsAndBadValues) {
  for (const std::vector<std::string>& bad :
       std::vector<std::vector<std::string>>{{"--job", "3"},
                                             {"--jobs", "-2"},
                                             {"--jobs", "abc"},
                                             {"--jobs", "1e20"},
                                             {"--jobs"},
                                             {"fast"}}) {
    const util::Result<RunOptions> opts = run_options(bad);
    ASSERT_FALSE(opts.ok()) << bad[0];
    EXPECT_EQ(opts.error().code, util::Errc::kValidation) << bad[0];
  }
}

MicroSweepConfig small_sweep() {
  MicroSweepConfig config;
  config.vm_counts = {1, 2};
  config.kinds = {wl::WorkloadKind::kCpu, wl::WorkloadKind::kIo};
  config.levels = 2;
  config.duration = util::seconds(3.0);
  return config;
}

TEST(MicroSweep, ByteIdenticalAcrossJobCounts) {
  const MicroSweepConfig config = small_sweep();
  const std::string serial = run_micro_sweep(config, jobs_opts(1)).str();
  EXPECT_EQ(serial, run_micro_sweep(config, jobs_opts(2)).str());
  EXPECT_EQ(serial, run_micro_sweep(config, jobs_opts(8)).str());
}

TEST(MicroSweep, EmitsOneRowPerCellPlusSummary) {
  const MicroSweepConfig config = small_sweep();
  const util::CsvDocument doc = run_micro_sweep(config, jobs_opts(1));
  // 2 vm_counts x 2 kinds x 2 levels + summary row.
  EXPECT_EQ(doc.row_count(), 9u);
  EXPECT_EQ(doc.at(8, "kind"), -1.0);
  // The summary row merges every cell's sample count.
  double samples = 0.0;
  for (std::size_t r = 0; r < 8; ++r) samples += doc.at(r, "samples");
  EXPECT_EQ(doc.at(8, "samples"), samples);
}

TEST(MicroSweep, BaseSeedChangesTheData) {
  MicroSweepConfig config = small_sweep();
  const std::string a = run_micro_sweep(config, jobs_opts(2)).str();
  config.base_seed = 43;
  EXPECT_NE(a, run_micro_sweep(config, jobs_opts(2)).str());
}

TEST(ModelCache, TrainsOncePerKey) {
  ModelCache cache;
  const util::SimMicros dur = util::seconds(2.0);
  const model::TrainedModels& a =
      cache.get(model::RegressionMethod::kOls, dur, 42, 2);
  const model::TrainedModels& b =
      cache.get(model::RegressionMethod::kOls, dur, 42, 1);
  EXPECT_EQ(&a, &b);  // same immutable entry, jobs does not re-key
  EXPECT_EQ(cache.trainings(), 1u);
  (void)cache.get(model::RegressionMethod::kOls, dur, 43, 2);
  EXPECT_EQ(cache.trainings(), 2u);
}

TEST(ModelCache, TrainingIsJobsInvariant) {
  ModelCache serial_cache;
  ModelCache parallel_cache;
  const util::SimMicros dur = util::seconds(2.0);
  const model::TrainedModels& serial =
      serial_cache.get(model::RegressionMethod::kOls, dur, 42, 1);
  const model::TrainedModels& parallel =
      parallel_cache.get(model::RegressionMethod::kOls, dur, 42, 4);
  ASSERT_EQ(serial.data.size(), parallel.data.size());
  const auto& sr = serial.data.rows();
  const auto& pr = parallel.data.rows();
  for (std::size_t i = 0; i < sr.size(); ++i) {
    EXPECT_EQ(sr[i].pm.cpu, pr[i].pm.cpu);
    EXPECT_EQ(sr[i].dom0_cpu, pr[i].dom0_cpu);
    EXPECT_EQ(sr[i].hyp_cpu, pr[i].hyp_cpu);
  }
}

TEST(ReplicatedScenario, JobsInvariantAndMergedInOrder) {
  const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse(
      "[cluster]\nseed = 5\nmachines = 1\n"
      "[vm web]\ncpu = 40\n"
      "[run]\nduration = 3\n");
  const auto serial = scenario::run_scenario_replicated(spec, 4, 1);
  const auto parallel = scenario::run_scenario_replicated(spec, 4, 4);
  ASSERT_EQ(serial.stats.size(), parallel.stats.size());
  for (const auto& [machine, entities] : serial.stats) {
    const auto& other = parallel.stats.at(machine);
    ASSERT_EQ(entities.size(), other.size());
    for (const auto& [key, s] : entities) {
      const auto& o = other.at(key);
      EXPECT_EQ(s.cpu.count(), o.cpu.count());
      EXPECT_EQ(s.cpu.mean(), o.cpu.mean());
      EXPECT_EQ(s.cpu.variance(), o.cpu.variance());
      EXPECT_EQ(s.bw.mean(), o.bw.mean());
    }
  }
  EXPECT_EQ(serial.replications, 4u);
  EXPECT_FALSE(serial.summary().empty());
}

TEST(ReplicatedScenario, ReplicationsDifferFromEachOther) {
  const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse(
      "[cluster]\nseed = 5\nmachines = 1\n"
      "[vm web]\ncpu = 40\nio = 20\n"
      "[run]\nduration = 5\n");
  // With per-replication seeds the aggregate spread over replications
  // must exceed a single run's spread of zero-mean difference: just
  // assert the two single-replication aggregates differ.
  scenario::ScenarioSpec a = spec;
  a.seed = util::seed_for(spec.seed, 0);
  scenario::ScenarioSpec b = spec;
  b.seed = util::seed_for(spec.seed, 1);
  const auto ra = scenario::run_scenario(a);
  const auto rb = scenario::run_scenario(b);
  const auto& sa = ra.reports.at(0).series("web");
  const auto& sb = rb.reports.at(0).series("web");
  EXPECT_NE(sa.io.stats().mean(), sb.io.stats().mean());
}

}  // namespace
}  // namespace voprof::runner
