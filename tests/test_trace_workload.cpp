#include "voprof/workloads/trace.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "voprof/monitor/script.hpp"
#include "voprof/util/assert.hpp"
#include "voprof/xensim/cluster.hpp"

namespace voprof::wl {
namespace {

using util::seconds;

std::vector<TracePoint> step_trace() {
  // 10 s at 20 % CPU, then 10 s at 80 % with some I/O and traffic.
  TracePoint a;
  a.duration_s = 10.0;
  a.cpu_pct = 20.0;
  TracePoint b;
  b.duration_s = 10.0;
  b.cpu_pct = 80.0;
  b.io_blocks_per_s = 40.0;
  b.bw_kbps = 640.0;
  return {a, b};
}

TEST(TraceWorkload, IndexFollowsTimeline) {
  const TraceWorkload w(step_trace(), sim::NetTarget{}, /*loop=*/true);
  EXPECT_EQ(w.index_at(seconds(0.0)), 0u);
  EXPECT_EQ(w.index_at(seconds(9.9)), 0u);
  EXPECT_EQ(w.index_at(seconds(10.5)), 1u);
  EXPECT_EQ(w.index_at(seconds(19.9)), 1u);
  EXPECT_EQ(w.index_at(seconds(20.5)), 0u);  // wrapped
}

TEST(TraceWorkload, NonLoopingHoldsLastPoint) {
  const TraceWorkload w(step_trace(), sim::NetTarget{}, /*loop=*/false);
  EXPECT_EQ(w.index_at(seconds(25.0)), 1u);
  EXPECT_EQ(w.index_at(seconds(1000.0)), 1u);
}

TEST(TraceWorkload, DemandMatchesActivePoint) {
  TraceWorkload w(step_trace(), sim::NetTarget{}, true);
  const sim::ProcessDemand early = w.demand(seconds(5.0), 0.01);
  EXPECT_DOUBLE_EQ(early.cpu_pct, 20.0);
  EXPECT_DOUBLE_EQ(early.io_blocks, 0.0);
  EXPECT_TRUE(early.flows.empty());
  const sim::ProcessDemand late = w.demand(seconds(15.0), 0.01);
  EXPECT_DOUBLE_EQ(late.cpu_pct, 80.0);
  EXPECT_NEAR(late.io_blocks, 0.4, 1e-12);
  ASSERT_EQ(late.flows.size(), 1u);
  EXPECT_NEAR(late.flows[0].kbits, 6.4, 1e-12);
}

TEST(TraceWorkload, ReplayedTraceShowsUpInMeasurement) {
  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, 55);
  sim::PhysicalMachine& pm = cluster.add_machine(sim::MachineSpec{});
  sim::VmSpec spec;
  spec.name = "vm1";
  pm.add_vm(spec).attach(
      std::make_unique<TraceWorkload>(step_trace(), sim::NetTarget{}, true));
  mon::MonitorScript mon(engine, pm);
  const mon::MeasurementReport& report = mon.measure(seconds(20.0));
  const mon::SeriesSet& s = report.series("vm1");
  EXPECT_NEAR(s.cpu.mean_between(seconds(2), seconds(10)), 20.0, 1.5);
  EXPECT_NEAR(s.cpu.mean_between(seconds(12), seconds(20)), 80.0, 2.5);
  EXPECT_NEAR(s.io.mean_between(seconds(12), seconds(20)), 40.0, 3.0);
}

TEST(TraceWorkload, RejectsBadTraces) {
  EXPECT_THROW(TraceWorkload({}, sim::NetTarget{}), util::ContractViolation);
  TracePoint bad;
  bad.duration_s = 0.0;
  EXPECT_THROW(TraceWorkload({bad}, sim::NetTarget{}),
               util::ContractViolation);
  TracePoint neg;
  neg.cpu_pct = -1.0;
  EXPECT_THROW(TraceWorkload({neg}, sim::NetTarget{}),
               util::ContractViolation);
}

TEST(TraceFromCsv, ParsesMonitorDump) {
  util::CsvDocument csv({"t_s", "vm_cpu", "vm_mem", "vm_io", "vm_bw"});
  csv.add_row({1.0, 25.0, 90.0, 10.0, 100.0});
  csv.add_row({2.0, 35.0, 95.0, 12.0, 200.0});
  const auto trace = trace_from_csv(csv).value();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_DOUBLE_EQ(trace[0].cpu_pct, 25.0);
  EXPECT_DOUBLE_EQ(trace[1].bw_kbps, 200.0);
  EXPECT_DOUBLE_EQ(trace[0].duration_s, 1.0);
}

TEST(TraceFromCsv, OptionalColumnsDefaultToZero) {
  util::CsvDocument csv({"vm_cpu"});
  csv.add_row({42.0});
  const auto trace = trace_from_csv(csv).value();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_DOUBLE_EQ(trace[0].cpu_pct, 42.0);
  EXPECT_DOUBLE_EQ(trace[0].io_blocks_per_s, 0.0);
}

TEST(TraceFromCsv, MissingCpuColumnRejected) {
  // Input errors are Results: the CSV comes from a scenario file.
  util::CsvDocument csv({"other"});
  csv.add_row({1.0});
  const auto no_column = trace_from_csv(csv);
  ASSERT_FALSE(no_column.ok());
  EXPECT_EQ(no_column.error().code, util::Errc::kValidation);
  EXPECT_NE(no_column.error().message.find("vm_cpu"), std::string::npos);
  const auto no_rows = trace_from_csv(util::CsvDocument({"vm_cpu"}));
  ASSERT_FALSE(no_rows.ok());
  EXPECT_NE(no_rows.error().message.find("no rows"), std::string::npos);
  util::CsvDocument negative({"vm_cpu", "vm_mem"});
  negative.add_row({10.0, 5.0});
  negative.add_row({10.0, -5.0});
  const auto neg = trace_from_csv(negative);
  ASSERT_FALSE(neg.ok());
  EXPECT_EQ(neg.error().context, "row 2");
}

TEST(TraceFromCsv, CustomPrefixAndInterval) {
  util::CsvDocument csv({"xcpu", "xbw"});
  csv.add_row({10.0, 50.0});
  const auto trace = trace_from_csv(csv, "x", 5.0).value();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_DOUBLE_EQ(trace[0].duration_s, 5.0);
  EXPECT_DOUBLE_EQ(trace[0].bw_kbps, 50.0);
}

TEST(DiurnalTrace, StartsAtTroughPeaksAtMidday) {
  DiurnalSpec spec;
  spec.noise_rel = 0.0;
  const auto trace = make_diurnal_trace(spec);
  ASSERT_EQ(trace.size(), spec.points);
  EXPECT_NEAR(trace.front().cpu_pct, spec.cpu_trough_pct, 1.0);
  EXPECT_NEAR(trace[spec.points / 2].cpu_pct, spec.cpu_peak_pct, 1.0);
  EXPECT_NEAR(trace.front().bw_kbps, spec.bw_trough_kbps, 10.0);
  EXPECT_NEAR(trace[spec.points / 2].bw_kbps, spec.bw_peak_kbps, 10.0);
  // Durations tile the period.
  double total = 0.0;
  for (const auto& p : trace) total += p.duration_s;
  EXPECT_NEAR(total, spec.period_s, 1e-9);
}

TEST(DiurnalTrace, NoiseIsSeededAndBounded) {
  DiurnalSpec spec;
  const auto a = make_diurnal_trace(spec, 5);
  const auto b = make_diurnal_trace(spec, 5);
  const auto c = make_diurnal_trace(spec, 6);
  EXPECT_DOUBLE_EQ(a[10].cpu_pct, b[10].cpu_pct);
  EXPECT_NE(a[10].cpu_pct, c[10].cpu_pct);
  for (const auto& p : a) {
    EXPECT_GE(p.cpu_pct, 0.0);
    EXPECT_LE(p.cpu_pct, 100.0);
  }
}

TEST(DiurnalTrace, ReplaysThroughTheSimulator) {
  DiurnalSpec spec;
  spec.period_s = 60.0;
  spec.noise_rel = 0.0;
  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, 61);
  sim::PhysicalMachine& pm = cluster.add_machine(sim::MachineSpec{});
  sim::VmSpec vspec;
  vspec.name = "vm1";
  pm.add_vm(vspec).attach(std::make_unique<TraceWorkload>(
      make_diurnal_trace(spec), sim::NetTarget{}, true));
  mon::MonitorScript mon(engine, pm);
  const mon::MeasurementReport& r = mon.measure(seconds(60));
  const mon::SeriesSet& s = r.series("vm1");
  // Midday (t ~ 30 s) well above night (t ~ 3 s).
  EXPECT_GT(s.cpu.mean_between(seconds(27), seconds(33)),
            3.0 * s.cpu.mean_between(seconds(1), seconds(5)));
}

TEST(DiurnalTrace, RejectsBadSpecs) {
  DiurnalSpec bad;
  bad.points = 1;
  EXPECT_THROW((void)make_diurnal_trace(bad), util::ContractViolation);
  DiurnalSpec bad2;
  bad2.cpu_peak_pct = 5.0;
  bad2.cpu_trough_pct = 50.0;
  EXPECT_THROW((void)make_diurnal_trace(bad2), util::ContractViolation);
}

}  // namespace
}  // namespace voprof::wl
