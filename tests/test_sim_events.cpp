/// Simulator events on the obs sim clock: machines and the migration
/// engine emit VM lifecycle and migration instants, and one span per
/// episode of scheduler contention or device throttling, straight into
/// the global TraceCollector, with the PM id as tid, a numeric `value`
/// arg and, where the event concerns one VM, a `subject` arg. Skipped
/// when VOPROF_OBS=OFF.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "voprof/core/trainer.hpp"
#include "voprof/obs/trace.hpp"
#include "voprof/scenario/scenario.hpp"
#include "voprof/workloads/hogs.hpp"
#include "voprof/xensim/cluster.hpp"

namespace voprof::sim {
namespace {

using util::seconds;

/// Collects into the global collector for the test's duration; the
/// buffer is dropped afterwards, never written.
class ClusterTracing : public ::testing::Test {
 protected:
  void SetUp() override {
    if constexpr (!obs::kObsCompiled) {
      GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
    }
    obs::TraceCollector::global().enable(::testing::TempDir() +
                                         "test_sim_events.json");
  }
  void TearDown() override { obs::TraceCollector::global().disable(); }
};
class TraceEventNames : public ClusterTracing {};

/// The buffered sim-clock events of phase `ph` ("i" instant, "X" span)
/// named `name`, oldest first; every name is used on one clock only.
std::vector<util::Json> sim_events(const char* ph, const std::string& name) {
  std::vector<util::Json> out;
  const util::Json doc = obs::TraceCollector::global().to_json();
  for (const util::Json& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == ph && e.at("name").as_string() == name) {
      EXPECT_EQ(e.at("pid").as_number(), obs::kSimPid);
      out.push_back(e);
    }
  }
  return out;
}
std::vector<util::Json> instants(const std::string& name) {
  return sim_events("i", name);
}
std::vector<util::Json> spans(const std::string& name) {
  return sim_events("X", name);
}

// Field accessors for one exported event.
std::string cat(const util::Json& e) { return e.at("cat").as_string(); }
double tid(const util::Json& e) { return e.at("tid").as_number(); }
double ts(const util::Json& e) { return e.at("ts").as_number(); }
double dur(const util::Json& e) { return e.at("dur").as_number(); }
double value(const util::Json& e) {
  return e.at("args").at("value").as_number();
}
std::string subject(const util::Json& e) {
  const util::Json* s = e.at("args").find("subject");
  return s != nullptr ? s->as_string() : "";
}

/// Three 100 % CPU hogs vm0..vm2 on a default PM: 300 % of demand on
/// the 190 % guest pool, so every tick is contended.
PhysicalMachine& add_contended_pm(Cluster& cluster) {
  PhysicalMachine& pm = cluster.add_machine(MachineSpec{});
  for (int i = 0; i < 3; ++i) {
    VmSpec spec;
    spec.name = "vm" + std::to_string(i);
    pm.add_vm(spec).attach(
        std::make_unique<wl::CpuHog>(100.0, 5 + static_cast<std::uint64_t>(i)));
  }
  return pm;
}

/// A PM whose one guest wants far more I/O than its 100 blocks/s disk.
PhysicalMachine& add_disk_bound_pm(Cluster& cluster) {
  MachineSpec tiny;
  tiny.disk_blocks_per_s = 100.0;
  PhysicalMachine& pm = cluster.add_machine(tiny);
  VmSpec spec;
  spec.name = "io";
  pm.add_vm(spec).attach(std::make_unique<wl::IoHog>(80.0, 13));
  return pm;
}

TEST_F(ClusterTracing, LifecycleAndContentionEvents) {
  {
    Engine engine;
    Cluster cluster(engine, CostModel{}, 3);
    PhysicalMachine& pm = add_contended_pm(cluster);
    const auto created = instants("vm-created");
    ASSERT_EQ(created.size(), 3u);
    EXPECT_EQ(subject(created[2]), "vm2");
    engine.run_for(seconds(1));
    pm.remove_vm("vm0");
    const auto removed = instants("vm-removed");
    ASSERT_EQ(removed.size(), 1u);
    EXPECT_EQ(subject(removed[0]), "vm0");
    EXPECT_EQ(ts(removed[0]), static_cast<double>(seconds(1)));  // last tick
    // Contended on every tick: the episode is still open.
    EXPECT_TRUE(spans("contention").empty());
  }
  // Destroying the machine closes the episode at the end of its last
  // tick: one span over the whole run, not one event per tick.
  const auto contention = spans("contention");
  ASSERT_EQ(contention.size(), 1u);
  EXPECT_EQ(tid(contention[0]), 0.0);
  EXPECT_EQ(ts(contention[0]), 0.0);
  EXPECT_EQ(dur(contention[0]), static_cast<double>(seconds(1)));
  EXPECT_NEAR(value(contention[0]), 300.0 - 190.0, 10.0);  // mean unmet %
  EXPECT_TRUE(subject(contention[0]).empty());
  EXPECT_TRUE(instants("sched-contention").empty());
}

TEST_F(ClusterTracing, MigrationEventsLogged) {
  Engine engine;
  Cluster cluster(engine, CostModel{}, 7);
  VmSpec spec;
  spec.name = "vm1";
  cluster.add_machine(MachineSpec{}).add_vm(spec);
  cluster.add_machine(MachineSpec{});
  (void)cluster.migration().start("vm1", 0, 1);
  engine.run_for(seconds(30));
  const auto started = instants("migration-started");
  const auto finished = instants("migration-finished");
  ASSERT_EQ(started.size(), 1u);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_EQ(subject(started[0]), "vm1");
  EXPECT_EQ(subject(finished[0]), "vm1");
  EXPECT_EQ(tid(started[0]), 0.0);   // source PM
  EXPECT_EQ(tid(finished[0]), 1.0);  // destination PM
  EXPECT_GT(ts(finished[0]), ts(started[0]));
  EXPECT_DOUBLE_EQ(value(finished[0]), value(started[0]));  // total kbits
}

TEST_F(ClusterTracing, ThrottleEventsLogged) {
  {
    Engine engine;
    Cluster cluster(engine, CostModel{}, 11);
    add_disk_bound_pm(cluster);
    engine.run_for(seconds(5));
  }
  const auto throttled = spans("disk-throttled");
  ASSERT_EQ(throttled.size(), 1u);
  EXPECT_EQ(dur(throttled[0]), static_cast<double>(seconds(5)));
  EXPECT_GT(value(throttled[0]), 0.0);  // mean blocks dropped per tick
  EXPECT_TRUE(instants("disk-throttled").empty());
}

TEST_F(ClusterTracing, DisabledByDefault) {
  auto& collector = obs::TraceCollector::global();
  collector.disable();
  {
    Engine engine;
    Cluster cluster(engine, CostModel{}, 13);
    add_contended_pm(cluster);
    engine.run_for(seconds(1));  // contended, but nobody is listening
  }
  EXPECT_EQ(collector.size(), 0u);
}

TEST_F(TraceEventNames, CategoriesMatchObsTaxonomy) {
  {
    Engine engine;
    Cluster cluster(engine, CostModel{}, 17);
    PhysicalMachine& pm0 = add_contended_pm(cluster);
    add_disk_bound_pm(cluster);
    (void)cluster.migration().start("vm2", 0, 1);
    engine.run_for(seconds(1));
    pm0.remove_vm("vm0");
  }
  EXPECT_EQ(cat(instants("vm-created").at(0)), "vm");
  EXPECT_EQ(cat(instants("vm-removed").at(0)), "vm");
  EXPECT_EQ(cat(spans("contention").at(0)), "scheduler");
  EXPECT_EQ(cat(spans("disk-throttled").at(0)), "device");
  EXPECT_EQ(tid(spans("disk-throttled").at(0)), 1.0);
  EXPECT_EQ(cat(instants("migration-started").at(0)), "migration");
}

// A traced training sweep records its cells' episodes, not their ticks:
// each 10 s cell runs 1000 machine ticks.
TEST_F(ClusterTracing, TrainingRecordsEpisodesNotTicks) {
  model::TrainerConfig cfg;
  cfg.duration = seconds(10);
  cfg.jobs = 2;
  (void)model::Trainer(cfg).train(model::RegressionMethod::kLms);
  const std::size_t cells =
      cfg.kinds.size() * wl::kLevelCount * cfg.vm_counts.size();
  std::size_t sim = 0;
  const util::Json doc = obs::TraceCollector::global().to_json();
  for (const util::Json& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "M" &&
        static_cast<int>(e.at("pid").as_number()) == obs::kSimPid) {
      ++sim;
    }
  }
  EXPECT_GT(sim, 0u);
  EXPECT_LE(sim, 4 * cells);
  EXPECT_FALSE(spans("contention").empty());
}

// Replications run on pool workers that all record into the one
// collector; the events must not depend on how many workers there are.
TEST_F(ClusterTracing, ParallelReplicationsEmitTheSameEvents) {
  const auto spec = scenario::ScenarioSpec::parse(
      "[cluster]\nseed = 21\nmachines = 2\n"
      "[vm a]\nmachine = 0\ncpu = 100\nbw = 400\n"
      "bw_target_machine = 1\nbw_target_vm = d\n"
      "[vm b]\nmachine = 0\ncpu = 100\n"
      "[vm c]\nmachine = 0\ncpu = 100\n"
      "[vm d]\nmachine = 1\ncpu = 60\n"
      "[monitor]\nmachine = 0\n"
      "[run]\nduration = 2\nwarmup = 1\n");
  auto& collector = obs::TraceCollector::global();
  std::vector<std::string> events[2];
  const int jobs[2] = {1, 4};
  for (int k = 0; k < 2; ++k) {
    collector.clear();
    (void)scenario::run_scenario_replicated(spec, 4, jobs[k]);
    EXPECT_GE(spans("contention").size(), 4u) << jobs[k];
    // Sim-clock events as text, sorted: a multiset that ignores the
    // order the workers recorded them in.
    const util::Json doc = collector.to_json();
    for (const util::Json& e : doc.at("traceEvents").as_array()) {
      if (e.at("ph").as_string() != "M" &&
          static_cast<int>(e.at("pid").as_number()) == obs::kSimPid) {
        events[k].push_back(e.dump(0));
      }
    }
    std::sort(events[k].begin(), events[k].end());
  }
  EXPECT_EQ(events[0], events[1]);
}

}  // namespace
}  // namespace voprof::sim
