/// \file bench_perf_engine.cpp
/// Harness microbenchmarks of the simulator itself: tick throughput as
/// the testbed grows, monitoring cost, RUBiS churn and cluster
/// snapshots. Not a paper figure — this documents that the substrate
/// is fast enough to regenerate the whole evaluation in seconds, and
/// its BENCH_perf_engine.json is the perf-regression gate CI diffs
/// against bench/baselines/ (see docs/BENCHMARKING.md).
///
/// Every scenario advances a live testbed by a fixed number of
/// simulated seconds per repetition, so the JSON's
/// throughput_sim_s_per_wall_s is directly "how many times faster than
/// real time the simulator runs".

#include <memory>
#include <string>

#include "harness.hpp"
#include "voprof/monitor/script.hpp"
#include "voprof/rubis/deployment.hpp"
#include "voprof/workloads/hogs.hpp"
#include "voprof/xensim/cluster.hpp"

namespace {

using namespace voprof;
using bench::harness::BenchOptions;
using bench::harness::RepResult;
using bench::harness::Session;

constexpr double kSimSecondsPerRep = 10.0;

/// Digest of a machine's cumulative activity; equal across runs iff
/// the simulation was deterministic.
double machine_checksum(const sim::PhysicalMachine& pm,
                        util::SimMicros now) {
  const sim::MachineSnapshot snap = pm.snapshot(now);
  double sum = snap.dom0.counters.cpu_core_seconds +
               snap.hypervisor.cpu_core_seconds + snap.devices.disk_blocks +
               snap.devices.nic_kbits;
  for (const auto& g : snap.guests) {
    sum += g.counters.cpu_core_seconds + g.counters.io_blocks +
           g.counters.tx_kbits + g.counters.rx_kbits + g.counters.mem_mib;
  }
  return sum;
}

/// Tick throughput with n CPU-hog VMs on one PM. The testbed persists
/// across repetitions; each rep advances it by kSimSecondsPerRep.
void bench_engine_tick(Session& session, int n_vms) {
  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, 1);
  sim::PhysicalMachine& pm = cluster.add_machine(sim::MachineSpec{});
  for (int i = 0; i < n_vms; ++i) {
    sim::VmSpec spec;
    spec.name = "vm" + std::to_string(i);
    pm.add_vm(spec).attach(
        std::make_unique<wl::CpuHog>(50.0, static_cast<std::uint64_t>(i)));
  }
  session.bench("engine_tick/vms=" + std::to_string(n_vms),
                BenchOptions{2, 9}, [&]() {
                  engine.run_for(util::seconds(kSimSecondsPerRep));
                  return RepResult{kSimSecondsPerRep,
                                   machine_checksum(pm, engine.now())};
                });
}

/// One PM running the three workload classes at once.
void bench_mixed_workloads(Session& session) {
  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, 2);
  sim::PhysicalMachine& pm = cluster.add_machine(sim::MachineSpec{});
  sim::VmSpec a;
  a.name = "cpu";
  pm.add_vm(a).attach(std::make_unique<wl::CpuHog>(60.0, 1));
  sim::VmSpec b;
  b.name = "io";
  pm.add_vm(b).attach(std::make_unique<wl::IoHog>(46.0, 2));
  sim::VmSpec c;
  c.name = "bw";
  pm.add_vm(c).attach(
      std::make_unique<wl::NetPing>(640.0, sim::NetTarget{}, 3));
  session.bench("mixed_workloads", BenchOptions{2, 9}, [&]() {
    engine.run_for(util::seconds(kSimSecondsPerRep));
    return RepResult{kSimSecondsPerRep, machine_checksum(pm, engine.now())};
  });
}

/// The paper's measurement loop itself: one monitored VM, 1 s samples.
void bench_monitored(Session& session) {
  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, 3);
  sim::PhysicalMachine& pm = cluster.add_machine(sim::MachineSpec{});
  sim::VmSpec a;
  a.name = "vm1";
  pm.add_vm(a).attach(std::make_unique<wl::CpuHog>(60.0, 1));
  mon::MonitorScript mon(engine, pm);
  mon.start();
  session.bench("monitored_second", BenchOptions{2, 9}, [&]() {
    engine.run_for(util::seconds(kSimSecondsPerRep));
    return RepResult{kSimSecondsPerRep, machine_checksum(pm, engine.now())};
  });
  mon.stop();
}

/// Full application model: two-tier RUBiS with 500 closed-loop clients
/// across three machines (cluster routing + flows every tick).
void bench_rubis(Session& session) {
  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, 4);
  cluster.add_machine(sim::MachineSpec{});
  cluster.add_machine(sim::MachineSpec{});
  cluster.add_machine(sim::MachineSpec{});
  rubis::DeployOptions opt;
  opt.clients = 500;
  const rubis::RubisInstance inst = rubis::deploy_rubis(cluster, 0, 1, 2, opt);
  session.bench("rubis_second", BenchOptions{2, 9}, [&]() {
    engine.run_for(util::seconds(kSimSecondsPerRep));
    return RepResult{kSimSecondsPerRep, inst.client->completed()};
  });
}

/// Counter-snapshot cost (the monitor takes one per sampled second).
void bench_snapshot(Session& session) {
  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, 5);
  sim::PhysicalMachine& pm = cluster.add_machine(sim::MachineSpec{});
  for (int i = 0; i < 8; ++i) {
    sim::VmSpec spec;
    spec.name = "vm" + std::to_string(i);
    pm.add_vm(spec);
  }
  engine.run_for(util::seconds(1.0));
  constexpr int kSnapshotsPerRep = 20000;
  session.bench("snapshot_x20000", BenchOptions{1, 9}, [&]() {
    double sum = 0.0;
    for (int i = 0; i < kSnapshotsPerRep; ++i) {
      sum += pm.snapshot(engine.now()).dom0.counters.mem_mib;
    }
    return RepResult{0.0, sum};
  });
}

}  // namespace

int main(int argc, char** argv) {
  voprof::bench::harness::parse_cli_or_exit(argc, argv);
  Session& session = Session::global();
  for (const int n : {1, 2, 4, 8, 16}) bench_engine_tick(session, n);
  bench_mixed_workloads(session);
  bench_monitored(session);
  bench_rubis(session);
  bench_snapshot(session);
  const int rc = voprof::bench::harness::finish();
  if (rc == 0) {
    std::printf("wrote %s (%zu benchmarks)\n", session.output_path().c_str(),
                session.measurements().size());
  }
  return rc;
}
