/// End-to-end integration tests across module boundaries: determinism
/// of the full pipeline, monitor -> CSV -> trace-replay round trips,
/// trained-model serialization feeding the placement layer, and the
/// complete paper pipeline (train -> deploy RUBiS -> predict) in one
/// pass.

#include <gtest/gtest.h>

#include <memory>

#include "voprof/monitor/script.hpp"
#include "voprof/placement/placer.hpp"
#include "voprof/rubis/deployment.hpp"
#include "voprof/util/csv.hpp"
#include "voprof/util/units.hpp"
#include "voprof/voprof.hpp"
#include "voprof/workloads/hogs.hpp"
#include "voprof/workloads/trace.hpp"
#include "voprof/xensim/cluster.hpp"
#include "voprof/rubis/deployment.hpp"

namespace voprof {
namespace {

using util::seconds;

TEST(Determinism, SameSeedSameMeasurement) {
  auto run = []() {
    sim::Engine engine;
    sim::Cluster cluster(engine, sim::CostModel{}, 1234);
    sim::PhysicalMachine& pm = cluster.add_machine(sim::MachineSpec{});
    sim::VmSpec spec;
    spec.name = "vm1";
    sim::DomU& vm = pm.add_vm(spec);
    vm.attach(std::make_unique<wl::CpuHog>(55.0, 5));
    vm.attach(std::make_unique<wl::NetPing>(640.0, sim::NetTarget{}, 6));
    mon::MonitorScript mon(engine, pm);
    const mon::MeasurementReport& r = mon.measure(seconds(30));
    return std::make_tuple(r.mean("vm1").cpu_pct,
                           r.mean(mon::MeasurementReport::kDom0Key).cpu_pct,
                           r.mean(mon::MeasurementReport::kPmKey).bw_kbps);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_DOUBLE_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_DOUBLE_EQ(std::get<2>(a), std::get<2>(b));
}

TEST(Determinism, DifferentSeedsDifferButAgreeOnAverage) {
  auto dom0_at = [](std::uint64_t seed) {
    sim::Engine engine;
    sim::Cluster cluster(engine, sim::CostModel{}, seed);
    sim::PhysicalMachine& pm = cluster.add_machine(sim::MachineSpec{});
    sim::VmSpec spec;
    spec.name = "vm1";
    pm.add_vm(spec).attach(std::make_unique<wl::CpuHog>(60.0, seed));
    mon::MonitorScript mon(engine, pm);
    return mon.measure(seconds(30))
        .mean(mon::MeasurementReport::kDom0Key)
        .cpu_pct;
  };
  const double a = dom0_at(1);
  const double b = dom0_at(2);
  EXPECT_NE(a, b);            // different noise realizations
  EXPECT_NEAR(a, b, 0.5);     // same mechanism
}

TEST(Determinism, TrainerIsReproducible) {
  model::TrainerConfig cfg;
  cfg.duration = seconds(5.0);
  cfg.vm_counts = {1, 2};
  // All four kinds: without I/O and memory sweeps the io/mem design
  // columns are degenerate and the fit rightly refuses.
  const model::Trainer trainer(cfg);
  const auto m1 = trainer.train(model::RegressionMethod::kOls);
  const auto m2 = trainer.train(model::RegressionMethod::kOls);
  const model::UtilVec probe{60, 120, 30, 640};
  EXPECT_DOUBLE_EQ(m1.multi.predict(probe, 2).cpu,
                   m2.multi.predict(probe, 2).cpu);
}

TEST(Pipeline, MonitorCsvTraceReplayRoundTrip) {
  // Record a VM with the monitor, export to CSV, replay the trace in a
  // fresh VM, and confirm the replayed utilization matches.
  util::CsvDocument csv({"vm_cpu", "vm_mem", "vm_io", "vm_bw"});
  {
    sim::Engine engine;
    sim::Cluster cluster(engine, sim::CostModel{}, 91);
    sim::PhysicalMachine& pm = cluster.add_machine(sim::MachineSpec{});
    sim::VmSpec spec;
    spec.name = "src";
    sim::DomU& vm = pm.add_vm(spec);
    vm.attach(std::make_unique<wl::IoHog>(46.0, 7));
    vm.attach(std::make_unique<wl::CpuHog>(35.0, 8));
    mon::MonitorScript mon(engine, pm);
    const mon::MeasurementReport& r = mon.measure(seconds(20));
    const mon::SeriesSet& s = r.series("src");
    for (std::size_t i = 0; i < r.sample_count(); ++i) {
      csv.add_row({s.cpu[i].value, s.mem[i].value, s.io[i].value,
                   s.bw[i].value});
    }
  }
  const auto trace = wl::trace_from_csv(csv).value();
  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, 92);
  sim::PhysicalMachine& pm = cluster.add_machine(sim::MachineSpec{});
  sim::VmSpec spec;
  spec.name = "replay";
  pm.add_vm(spec).attach(std::make_unique<wl::TraceWorkload>(
      trace, sim::NetTarget{}, /*loop=*/true));
  mon::MonitorScript mon(engine, pm);
  const mon::MeasurementReport& r = mon.measure(seconds(20));
  EXPECT_NEAR(r.mean("replay").cpu_pct, 35.0 + 0.79 + 0.05, 1.0);
  EXPECT_NEAR(r.mean("replay").io_blocks_per_s, 46.0, 2.0);
}

TEST(Pipeline, SerializedModelDrivesPlacement) {
  // Train, serialize, reload, and hand the reloaded model to the
  // placement and hotspot layers.
  model::TrainerConfig cfg;
  cfg.duration = seconds(15.0);
  cfg.seed = 93;
  const model::TrainedModels trained =
      model::Trainer(cfg).train(model::RegressionMethod::kLms);
  const model::TrainedModels reloaded =
      model::models_from_string_result(model::models_to_string(trained))
          .value();

  place::PlacerConfig pcfg;
  pcfg.overhead_aware = true;
  const place::Placer placer(pcfg, &reloaded.multi);
  std::vector<place::PmState> pool(2);
  pool[0].spec = pool[1].spec = sim::MachineSpec{};
  const model::UtilVec heavy{60, 120, 0, 1500};
  std::size_t spread = 0;
  for (int i = 0; i < 5; ++i) {
    spread = placer.place(pool, heavy, 256.0);
  }
  // The reloaded model spreads heavy VMs over both hosts.
  EXPECT_GT(pool[0].vm_count(), 0);
  EXPECT_GT(pool[1].vm_count(), 0);
  (void)spread;
}

TEST(Pipeline, FullPaperFlowSingleShot) {
  // The complete Sec. III->VI flow in one test: train on micro
  // benchmarks, deploy RUBiS, measure, predict, check paper-grade
  // accuracy on bandwidth.
  model::TrainerConfig cfg;
  cfg.duration = seconds(20.0);
  cfg.seed = 94;
  const model::TrainedModels models =
      model::Trainer(cfg).train(model::RegressionMethod::kLms);

  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, 95);
  cluster.add_machine(sim::MachineSpec{});
  cluster.add_machine(sim::MachineSpec{});
  cluster.add_machine(sim::MachineSpec{});
  rubis::DeployOptions opt;
  opt.clients = 400;
  const rubis::RubisInstance inst = rubis::deploy_rubis(cluster, 0, 1, 2, opt);
  engine.run_for(seconds(10));
  mon::MonitorScript mon(engine, cluster.machine(0));
  mon.start();
  engine.run_for(seconds(40));
  mon.stop();

  const model::Predictor predictor(models.multi);
  const model::PredictionEval eval =
      predictor.evaluate(mon.report(), {inst.web_vm});
  EXPECT_LT(eval.of(model::MetricIndex::kBw).error_at_fraction(0.9), 2.0);
  EXPECT_LT(eval.of(model::MetricIndex::kCpu).error_at_fraction(0.9), 8.0);
  EXPECT_LT(eval.of(model::MetricIndex::kMem).error_at_fraction(0.9), 5.0);
  EXPECT_LT(eval.of(model::MetricIndex::kIo).error_at_fraction(0.9), 20.0);
}

TEST(FailureInjection, VmRemovalMidMeasurement) {
  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, 96);
  sim::PhysicalMachine& pm = cluster.add_machine(sim::MachineSpec{});
  sim::VmSpec s1;
  s1.name = "stable";
  pm.add_vm(s1).attach(std::make_unique<wl::CpuHog>(30.0, 9));
  sim::VmSpec s2;
  s2.name = "doomed";
  pm.add_vm(s2).attach(std::make_unique<wl::CpuHog>(30.0, 10));
  mon::MonitorScript mon(engine, pm);
  mon.start();
  engine.run_for(seconds(10));
  EXPECT_TRUE(pm.remove_vm("doomed"));
  engine.run_for(seconds(10));
  mon.stop();
  // No crash; samples for the survivor keep flowing after the resync.
  EXPECT_GE(mon.report().series("stable").cpu.size(), 15u);
}

TEST(FailureInjection, EngineSurvivesThrowingEventCallback) {
  sim::Engine engine;
  int after = 0;
  engine.schedule_at(seconds(1), []() {
    throw std::runtime_error("injected");
  });
  engine.schedule_at(seconds(2), [&after]() { ++after; });
  EXPECT_THROW(engine.run_for(seconds(3)), std::runtime_error);
  // The engine state is still sane; continuing runs the later event.
  engine.run_until(seconds(3));
  EXPECT_EQ(after, 1);
}

TEST(FailureInjection, ClusterWithZeroMachinesTicksQuietly) {
  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, 97);
  engine.run_for(seconds(5));
  EXPECT_DOUBLE_EQ(cluster.dropped_kbits(), 0.0);
}

}  // namespace
}  // namespace voprof
