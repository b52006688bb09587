#include "voprof/scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "voprof/util/assert.hpp"
#include "voprof/util/cli.hpp"
#include "voprof/util/csv.hpp"
#include "voprof/util/ini.hpp"

namespace voprof {
namespace {

// ------------------------------------------------------------- INI layer
using Kind = util::FlagSpec::Kind;
using Bound = util::FlagSpec::Bound;

/// A section's entries checked against `keys`; the test fails on error.
util::CliArgs checked(const util::IniSection& section,
                      const std::vector<util::FlagSpec>& keys) {
  return util::CliArgs::check(section.entries, keys).value();
}

TEST(Ini, ParsesSectionsAndEntries) {
  const auto doc = util::parse_ini(
                       "# comment\n"
                       "[cluster]\n"
                       "seed = 7\n"
                       "\n"
                       "[vm web]   # trailing comment\n"
                       "machine = 0\n"
                       "cpu = 55.5\n")
                       .value();
  ASSERT_EQ(doc.size(), 2u);
  EXPECT_EQ(doc[0].kind, "cluster");
  EXPECT_EQ(doc[1].kind, "vm");
  EXPECT_EQ(doc[1].name, "web");
  EXPECT_EQ(checked(doc[0], {{"seed", Kind::kInteger}})
                .get_int("seed", 0),
            7);
  const util::CliArgs vm = checked(
      doc[1], {{"machine", Kind::kInteger}, {"cpu", Kind::kNumber},
                          {"missing"}});
  EXPECT_DOUBLE_EQ(vm.get_double("cpu", 0), 55.5);
  EXPECT_EQ(vm.get_or("missing", "x"), "x");
}

TEST(Ini, RepeatedKindsKeepOrder) {
  const auto doc = util::parse_ini(
                       "[vm a]\nmachine=0\n[vm b]\nmachine=1\n")
                       .value();
  ASSERT_EQ(doc.size(), 2u);
  EXPECT_EQ(doc[0].name, "a");
  EXPECT_EQ(doc[1].name, "b");
  // One [cluster] at most: a second one is a validation error naming
  // the section, never a precondition.
  const auto twice = scenario::ScenarioSpec::parse_result(
      "[cluster]\n[vm a]\n[cluster]\nmachines = 2\n");
  ASSERT_FALSE(twice.ok());
  EXPECT_EQ(twice.error().code, util::Errc::kValidation);
  EXPECT_EQ(twice.error().context, "[cluster]");
  const auto none = scenario::ScenarioSpec::parse_result("[vm a]\n");
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.error().code, util::Errc::kValidation);
}

TEST(Ini, LastValueWinsForDuplicateKeys) {
  const auto doc = util::parse_ini("[s]\nk = 1\nk = 2\n").value();
  EXPECT_EQ(checked(doc[0], {{"k", Kind::kInteger}}).get_int("k", 0),
            2);
}

TEST(Ini, MalformedInputRejected) {
  for (const char* bad : {"[broken\nk=1\n", "key = before-section\n",
                          "[s]\nnot-a-pair\n", "[]\n"}) {
    const auto r = util::parse_ini(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.error().code, util::Errc::kParse) << bad;
  }
  // Values are checked against the declared keys: a malformed number,
  // one that is no int, a value below its bound, an undeclared key.
  const std::vector<util::FlagSpec> keys = {
      {"k", Kind::kNumber}, {"n", Kind::kInteger, Bound::kPositive}};
  for (const char* bad : {"[s]\nk = abc\n", "[s]\nn = 1e20\n",
                          "[s]\nn = nan\n", "[s]\nn = 0\n",
                          "[s]\nzz = 1\n"}) {
    const auto doc = util::parse_ini(bad).value();
    const auto r = util::CliArgs::check(doc[0].entries, keys);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.error().code, util::Errc::kValidation) << bad;
  }
}

// --------------------------------------------------------- scenario spec
/// Write `text` to a scenario file in the test temp dir and load it.
scenario::ScenarioSpec load_text(const std::string& name,
                                 const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream(path) << text;
  return scenario::ScenarioSpec::load(path);
}

constexpr const char* kScenario = R"(
[cluster]
seed = 11
machines = 2

[vm web]
machine = 0
cpu = 50
bw = 800
bw_target_machine = 1
bw_target_vm = sink

[vm sink]
machine = 1

[monitor]
machine = 0

[monitor]
machine = 1

[run]
duration = 20
warmup = 2
)";

TEST(ScenarioSpec, ParsesFullDescription) {
  const auto spec = scenario::ScenarioSpec::parse(kScenario);
  EXPECT_EQ(spec.seed, 11u);
  EXPECT_EQ(spec.machines, 2);
  ASSERT_EQ(spec.vms.size(), 2u);
  EXPECT_EQ(spec.vms[0].name, "web");
  EXPECT_DOUBLE_EQ(spec.vms[0].bw_kbps, 800.0);
  EXPECT_EQ(spec.vms[0].bw_target_vm, "sink");
  EXPECT_EQ(spec.monitored_machines.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.duration_s, 20.0);
}

TEST(ScenarioSpec, ValidationCatchesMistakes) {
  EXPECT_THROW((void)scenario::ScenarioSpec::parse("[cluster]\n"),
               util::ContractViolation);  // no VMs
  EXPECT_THROW((void)scenario::ScenarioSpec::parse(
                   "[cluster]\nmachines=1\n[vm a]\nmachine = 5\n"),
               util::ContractViolation);  // machine out of range
  EXPECT_THROW((void)scenario::ScenarioSpec::parse(
                   "[cluster]\n[vm a]\nbw_target_vm = ghost\n"),
               util::ContractViolation);  // target without machine
  EXPECT_THROW(
      (void)scenario::ScenarioSpec::parse(
          "[cluster]\nmachines=2\n[vm a]\nbw = 5\nbw_target_machine = 1\n"
          "bw_target_vm = ghost\n"),
      util::ContractViolation);  // target VM does not exist
  EXPECT_THROW((void)scenario::ScenarioSpec::parse(
                   "[cluster]\nscheduler = quantum\n[vm a]\n"),
               util::ContractViolation);  // bad scheduler
  EXPECT_THROW((void)scenario::ScenarioSpec::parse(
                   "[cluster]\n[vm a]\n[vm a]\n"),
               util::ContractViolation);  // duplicate VM
}

TEST(ScenarioRun, ExecutesAndReports) {
  const auto spec = scenario::ScenarioSpec::parse(kScenario);
  const auto result = scenario::run_scenario(spec);
  ASSERT_EQ(result.reports.size(), 2u);
  const mon::MeasurementReport& pm0 = result.reports.at(0);
  EXPECT_EQ(pm0.sample_count(), 20u);
  EXPECT_NEAR(pm0.mean("web").cpu_pct, 50.0 + 2.06, 2.0);  // + bw pump
  EXPECT_NEAR(pm0.mean("web").bw_kbps, 800.0, 20.0);
  // The sink on machine 1 receives the traffic.
  const mon::MeasurementReport& pm1 = result.reports.at(1);
  EXPECT_NEAR(pm1.mean("sink").bw_kbps, 800.0, 25.0);
  // Summary renders every entity.
  const std::string s = result.summary();
  EXPECT_NE(s.find("machine 0"), std::string::npos);
  EXPECT_NE(s.find("web"), std::string::npos);
  EXPECT_NE(s.find("sink"), std::string::npos);
}

TEST(ScenarioRun, MicroSchedulerSelectable) {
  const auto spec = scenario::ScenarioSpec::parse(
      "[cluster]\nscheduler = micro\n[vm a]\ncpu = 40\n[run]\nduration = "
      "10\n");
  const auto result = scenario::run_scenario(spec);
  EXPECT_NEAR(result.reports.at(0).mean("a").cpu_pct, 40.0, 2.0);
}

TEST(ScenarioRun, TraceVmReplaysCsv) {
  const std::string path = ::testing::TempDir() + "/voprof_scn_trace.csv";
  {
    util::CsvDocument csv({"vm_cpu", "vm_io"});
    for (int i = 0; i < 10; ++i) csv.add_row({35.0, 12.0});
    ASSERT_TRUE(csv.save(path).ok());
  }
  const auto spec = load_text("voprof_scn_trace.conf",
                              "[cluster]\n[vm replay]\ntrace = " + path +
                                  "\n[run]\nduration = 15\n");
  const auto result = scenario::run_scenario(spec);
  EXPECT_NEAR(result.reports.at(0).mean("replay").cpu_pct, 35.0, 2.0);
  EXPECT_NEAR(result.reports.at(0).mean("replay").io_blocks_per_s, 12.0,
              1.5);
}

TEST(ScenarioSpec, TraceAndLevelsExclusive) {
  EXPECT_THROW((void)scenario::ScenarioSpec::parse(
                   "[cluster]\n[vm a]\ncpu = 10\ntrace = x.csv\n"),
               util::ContractViolation);
  EXPECT_THROW((void)scenario::ScenarioSpec::parse(
                   "[cluster]\n[vm a]\ntrace = x.csv\ntrace_interval = 0\n"),
               util::ContractViolation);
}

/// The validation error of scenario `text`; fails the test on success.
util::Error rejection(const std::string& text) {
  const auto r = scenario::ScenarioSpec::parse_result(text);
  EXPECT_FALSE(r.ok()) << text;
  return r.ok() ? util::Error{} : r.error();
}

TEST(ScenarioSpec, UnknownKeysAndSectionsAreValidationErrors) {
  // Typos are errors naming the section and the key, not silently
  // idle VMs and default durations.
  const util::Error key =
      rejection("[cluster]\n[vm web]\ncpu_pct = 80\n[run]\nduration = 2\n");
  EXPECT_EQ(key.code, util::Errc::kValidation);
  EXPECT_EQ(key.context, "[vm web]");
  EXPECT_NE(key.message.find("unknown key 'cpu_pct'"), std::string::npos)
      << key.message;
  const util::Error run =
      rejection("[cluster]\n[vm web]\ncpu = 80\n[run]\nduraton = 2\n");
  EXPECT_EQ(run.context, "[run]");
  EXPECT_NE(run.message.find("'duraton'"), std::string::npos);
  const util::Error kind =
      rejection("[cluster]\n[vm web]\ncpu = 80\n[monitr]\nmachine = 0\n");
  EXPECT_EQ(kind.code, util::Errc::kValidation);
  EXPECT_EQ(kind.context, "[monitr]");
  EXPECT_NE(kind.message.find("unknown section kind 'monitr'"),
            std::string::npos);
}

TEST(ScenarioSpec, NonFiniteNumbersAreValidationErrors) {
  // Accepted, an infinite bandwidth runs and prints -nan utilizations.
  for (const char* bad : {"inf", "-inf", "nan"}) {
    const util::Error e = rejection(
        std::string("[cluster]\n[vm web]\ncpu = 50\nbw = ") + bad + "\n");
    EXPECT_EQ(e.code, util::Errc::kValidation) << bad;
    EXPECT_EQ(e.context, "[vm web]") << bad;
    EXPECT_NE(e.message.find("bw"), std::string::npos) << e.message;
    EXPECT_NE(e.message.find(bad), std::string::npos) << e.message;
  }
}

TEST(ScenarioSpec, BoundsAreDeclaredPerKey) {
  for (const char* bad :
       {"[cluster]\nseed = -1\n[vm a]\n", "[cluster]\nmachines = 0\n[vm a]\n",
        "[cluster]\n[vm a]\ncpu = -5\n", "[cluster]\n[vm a]\ncpu = 150\n",
        "[cluster]\n[vm a]\nmachine = -1\n",
        "[cluster]\n[vm a]\n[run]\nduration = 0\n",
        "[cluster]\n[vm a]\n[run]\nwarmup = -1\n",
        "[cluster]\n[vm a]\n[monitor]\nmachine = 1.5\n",
        "[cluster]\nscheduler = quantum\n[vm a]\n"}) {
    EXPECT_EQ(rejection(bad).code, util::Errc::kValidation) << bad;
  }
}

TEST(ScenarioSpec, TextNamesNoTraceFile) {
  // Only a scenario loaded from a file may read a trace: served text
  // that names one is rejected before anything is opened.
  const std::string path = ::testing::TempDir() + "/voprof_scn_secret.csv";
  std::ofstream(path) << "vm_cpu\n10\n";
  const util::Error err =
      rejection("[cluster]\n[vm a]\ntrace = " + path + "\n");
  EXPECT_EQ(err.code, util::Errc::kValidation);
  EXPECT_EQ(err.context, "[vm a]");
  EXPECT_NE(err.message.find("'trace'"), std::string::npos);
}

TEST(ScenarioSpec, TraceIsReadAndCheckedWhenLoaded) {
  const std::string dir = ::testing::TempDir();
  std::ofstream(dir + "/voprof_scn_nocpu.csv") << "vm_io\n3\n";
  std::ofstream(dir + "/voprof_scn_empty.csv") << "vm_cpu\n";
  std::ofstream(dir + "/voprof_scn_neg.csv") << "vm_cpu,vm_bw\n10,5\n10,-5\n";
  for (const char* csv :
       {"voprof_scn_nocpu.csv", "voprof_scn_empty.csv", "voprof_scn_neg.csv",
        "voprof_scn_missing.csv"}) {
    const std::string conf = dir + "/voprof_scn_bad_trace.conf";
    std::ofstream(conf) << "[cluster]\n[vm t]\ntrace = " << dir << '/' << csv
                        << '\n';
    const auto r = scenario::ScenarioSpec::load_result(conf);
    ASSERT_FALSE(r.ok()) << csv;
    EXPECT_NE(r.error().context.find("[vm t]"), std::string::npos) << csv;
    EXPECT_NE(r.error().message.find(csv), std::string::npos)
        << r.error().message;
  }
  // The spec holds the points: the run opens no file.
  const std::string trace = dir + "/voprof_scn_once.csv";
  std::ofstream(trace) << "vm_cpu,vm_io\n30,4\n50,6\n";
  const auto spec = load_text(
      "voprof_scn_once.conf",
      "[cluster]\n[vm t]\ntrace = " + trace +
          "\ntrace_interval = 2\n[run]\nduration = 4\n");
  ASSERT_EQ(spec.vms[0].trace.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.vms[0].trace[1].cpu_pct, 50.0);
  EXPECT_DOUBLE_EQ(spec.vms[0].trace[1].duration_s, 2.0);
  std::remove(trace.c_str());
  EXPECT_NEAR(scenario::run_scenario(spec).reports.at(0).mean("t").cpu_pct,
              40.0, 2.0);
}

TEST(ReportPercentiles, PeaksAboveMeansForBurstyLoad) {
  // A stepping trace: p95 CPU must sit near the peak, the mean between.
  const std::string path = ::testing::TempDir() + "/voprof_scn_burst.csv";
  {
    util::CsvDocument csv({"vm_cpu"});
    for (int i = 0; i < 8; ++i) csv.add_row({10.0});
    for (int i = 0; i < 2; ++i) csv.add_row({90.0});
    ASSERT_TRUE(csv.save(path).ok());
  }
  const auto spec = load_text("voprof_scn_burst.conf",
                              "[cluster]\n[vm bursty]\ntrace = " + path +
                                  "\n[run]\nduration = 40\n");
  const auto result = scenario::run_scenario(spec);
  const mon::MeasurementReport& r = result.reports.at(0);
  const double mean = r.mean("bursty").cpu_pct;
  const double p95 = r.percentile("bursty", 95.0).cpu_pct;
  const double p50 = r.percentile("bursty", 50.0).cpu_pct;
  EXPECT_NEAR(mean, 26.0, 4.0);  // 0.8*10 + 0.2*90
  EXPECT_GT(p95, 80.0);
  EXPECT_NEAR(p50, 10.0, 2.0);
  EXPECT_THROW((void)r.percentile("ghost", 50.0), util::ContractViolation);
}

}  // namespace
}  // namespace voprof
