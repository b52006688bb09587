/// Tests for the paper's variable-rate client protocol and the
/// report->CSV export path.

#include <gtest/gtest.h>

#include <memory>

#include "voprof/monitor/script.hpp"
#include "voprof/rubis/deployment.hpp"
#include "voprof/util/assert.hpp"
#include "voprof/workloads/hogs.hpp"
#include "voprof/workloads/trace.hpp"

namespace voprof {
namespace {

using util::seconds;

TEST(ClientRamp, SteppedIncrease) {
  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, 71);
  cluster.add_machine(sim::MachineSpec{});
  cluster.add_machine(sim::MachineSpec{});
  cluster.add_machine(sim::MachineSpec{});
  rubis::DeployOptions opt;
  opt.clients = 100;
  const rubis::RubisInstance inst = rubis::deploy_rubis(cluster, 0, 1, 2, opt);
  rubis::schedule_client_ramp(engine, *inst.client, 300, 700,
                              seconds(40.0), 4);
  EXPECT_EQ(inst.client->clients(), 300);
  engine.run_for(seconds(11.0));
  EXPECT_EQ(inst.client->clients(), 400);
  engine.run_for(seconds(10.0));
  EXPECT_EQ(inst.client->clients(), 500);
  engine.run_for(seconds(20.0));
  EXPECT_EQ(inst.client->clients(), 700);
}

TEST(ClientRamp, LoadActuallyGrows) {
  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, 73);
  cluster.add_machine(sim::MachineSpec{});
  cluster.add_machine(sim::MachineSpec{});
  cluster.add_machine(sim::MachineSpec{});
  rubis::DeployOptions opt;
  const rubis::RubisInstance inst = rubis::deploy_rubis(cluster, 0, 1, 2, opt);
  rubis::schedule_client_ramp(engine, *inst.client, 300, 700,
                              seconds(60.0), 4);
  engine.run_for(seconds(15.0));
  const double early_mark = inst.client->completed();
  engine.run_for(seconds(10.0));
  const double early_tput = (inst.client->completed() - early_mark) / 10.0;
  engine.run_for(seconds(45.0));  // past the end of the ramp
  const double late_mark = inst.client->completed();
  engine.run_for(seconds(10.0));
  const double late_tput = (inst.client->completed() - late_mark) / 10.0;
  EXPECT_GT(late_tput, 1.5 * early_tput);
}

TEST(ClientRamp, RejectsBadArguments) {
  sim::Engine engine;
  rubis::ClientEmulator client(rubis::RubisCosts{}, sim::NetTarget{}, 10);
  EXPECT_THROW(
      rubis::schedule_client_ramp(engine, client, 300, 700, seconds(10), 0),
      util::ContractViolation);
  EXPECT_THROW(rubis::schedule_client_ramp(engine, client, 300, 700, 0, 4),
               util::ContractViolation);
  EXPECT_THROW(
      rubis::schedule_client_ramp(engine, client, -1, 700, seconds(10), 4),
      util::ContractViolation);
}

TEST(ReportCsv, ExportsAllEntitiesAndSamples) {
  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, 79);
  sim::PhysicalMachine& pm = cluster.add_machine(sim::MachineSpec{});
  sim::VmSpec spec;
  spec.name = "vm1";
  pm.add_vm(spec).attach(std::make_unique<wl::CpuHog>(40.0, 81));
  mon::MonitorScript mon(engine, pm);
  const mon::MeasurementReport& report = mon.measure(seconds(15.0));
  const util::CsvDocument csv = mon::report_to_csv(report);
  EXPECT_EQ(csv.row_count(), 15u);
  EXPECT_TRUE(csv.has_column("t_s"));
  EXPECT_TRUE(csv.has_column("vm1_cpu"));
  EXPECT_TRUE(csv.has_column("Domain-0_cpu"));
  EXPECT_TRUE(csv.has_column("PM_bw"));
  EXPECT_TRUE(csv.has_column("hypervisor_cpu"));
  EXPECT_NEAR(csv.at(5, "vm1_cpu"), 40.0, 3.0);
  EXPECT_DOUBLE_EQ(csv.at(0, "t_s"), 1.0);
}

TEST(ReportCsv, RoundTripsIntoTraceReplay) {
  // report -> CSV -> TraceWorkload: the full trace-driven loop.
  util::CsvDocument csv({"x"});
  {
    sim::Engine engine;
    sim::Cluster cluster(engine, sim::CostModel{}, 83);
    sim::PhysicalMachine& pm = cluster.add_machine(sim::MachineSpec{});
    sim::VmSpec spec;
    spec.name = "vm1";
    pm.add_vm(spec).attach(std::make_unique<wl::CpuHog>(65.0, 85));
    mon::MonitorScript mon(engine, pm);
    csv = mon::report_to_csv(mon.measure(seconds(10.0)));
  }
  const auto trace = wl::trace_from_csv(csv, "vm1_").value();
  ASSERT_EQ(trace.size(), 10u);
  EXPECT_NEAR(trace[3].cpu_pct, 65.0, 3.0);
}

TEST(ReportCsv, EmptyReportRejected) {
  const mon::MeasurementReport empty;
  EXPECT_THROW((void)mon::report_to_csv(empty), util::ContractViolation);
}

}  // namespace
}  // namespace voprof
