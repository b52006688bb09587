/// \file bench_ablation_scheduler.cpp
/// Scheduler-fidelity ablation: the reproduction's figures are
/// generated with a closed-form credit-scheduler average (macro).
/// This bench re-runs the headline CPU results with the discrete Xen
/// credit algorithm (credits, UNDER/OVER, 30 ms accounting) and shows
/// the 1-second averages — and therefore the paper's figures — do not
/// depend on that modeling choice, while the tick-level behaviour
/// differs exactly as expected (whole-core slices, credit rotation).

#include <cstdio>
#include <iostream>
#include <memory>

#include "common.hpp"
#include "voprof/xensim/credit_micro.hpp"

namespace {

using namespace voprof;

struct CpuPoint {
  double vm = 0.0;
  double dom0 = 0.0;
  double hyp = 0.0;
};

CpuPoint measure(sim::SchedulerMode mode, int n_vms, double load,
                 std::uint64_t seed) {
  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, seed);
  sim::MachineSpec spec;
  spec.scheduler = mode;
  sim::PhysicalMachine& pm = cluster.add_machine(spec);
  for (int i = 0; i < n_vms; ++i) {
    sim::VmSpec vm;
    vm.name = "vm" + std::to_string(i + 1);
    pm.add_vm(vm).attach(
        std::make_unique<wl::CpuHog>(load, seed + static_cast<std::uint64_t>(i)));
  }
  mon::MonitorScript monitor(engine, pm);
  const mon::MeasurementReport& report =
      monitor.measure(util::seconds(60.0));
  return CpuPoint{report.mean("vm1").cpu_pct,
                  report.mean(mon::MeasurementReport::kDom0Key).cpu_pct,
                  report.mean(mon::MeasurementReport::kHypKey).cpu_pct};
}

}  // namespace

int main(int argc, char** argv) {
  voprof::bench::harness::parse_cli_or_exit(argc, argv);
  std::cout << "=== Ablation: macro (closed-form) vs micro (discrete Xen "
               "credit) scheduler ===\n\n";

  util::AsciiTable t(
      "1 s averages under both schedulers (60 s runs, CPU workloads)");
  t.set_header({"scenario", "VM macro", "VM micro", "Dom0 macro",
                "Dom0 micro", "hyp macro", "hyp micro"});
  const struct {
    int n;
    double load;
    const char* label;
  } rows[] = {
      {1, 60.0, "1 VM @ 60%"},
      {1, 99.0, "1 VM @ 99% (Fig 2a)"},
      {2, 100.0, "2 VMs @ 100% (Fig 3a)"},
      {4, 100.0, "4 VMs @ 100% (Fig 4a)"},
      {4, 30.0, "4 VMs @ 30%"},
  };
  double worst_vm_delta = 0.0;
  for (const auto& row : rows) {
    const CpuPoint macro = measure(sim::SchedulerMode::kMacro, row.n,
                                   row.load, 100);
    const CpuPoint micro = measure(sim::SchedulerMode::kMicro, row.n,
                                   row.load, 100);
    t.add_row({row.label, util::fmt(macro.vm, 2), util::fmt(micro.vm, 2),
               util::fmt(macro.dom0, 2), util::fmt(micro.dom0, 2),
               util::fmt(macro.hyp, 2), util::fmt(micro.hyp, 2)});
    worst_vm_delta =
        std::max(worst_vm_delta, std::abs(macro.vm - micro.vm));
  }
  std::cout << t.str() << '\n';
  bench::verdict("worst |VM CPU| delta between schedulers (%)",
                 worst_vm_delta, 0.0, 2.0);

  // Show the tick-level difference the averages hide.
  std::cout << "\nTick-level contrast (4 saturated VCPUs on the 2-core "
               "pool):\n";
  sim::MicroCreditScheduler micro(2, 0.95);
  std::vector<sim::SchedRequest> reqs(
      4, sim::SchedRequest{100.0, 100.0, 1.0});
  std::printf("  micro, per 10 ms tick: ");
  for (int tick = 0; tick < 8; ++tick) {
    const sim::SchedResult r = micro.tick(reqs, 0.01);
    std::printf("[");
    for (std::size_t i = 0; i < 4; ++i) {
      std::printf("%s%.0f", i ? " " : "", r.granted_pct[i]);
    }
    std::printf("] ");
  }
  const sim::CreditScheduler macro_sched(200.0, 0.95);
  const sim::SchedResult m = macro_sched.allocate(reqs);
  std::printf("\n  macro, every tick:     [%.1f %.1f %.1f %.1f]\n",
              m.granted_pct[0], m.granted_pct[1], m.granted_pct[2],
              m.granted_pct[3]);
  std::cout << "\nThe discrete algorithm runs two whole VCPUs per tick "
               "and rotates the pair via credits; the closed form hands "
               "everyone the fair share each tick. At the paper's 1 s "
               "sampling the two are indistinguishable - which is why "
               "the macro model is a sound substitution.\n";
  return voprof::bench::harness::finish();
}
