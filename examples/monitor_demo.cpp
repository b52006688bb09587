/// \file monitor_demo.cpp
/// Domain example 4 — the measurement methodology itself (Sec. III-A):
/// run the synchronized monitoring script against a live testbed with
/// a phase-changing workload, dump the per-second multi-entity time
/// series to CSV (the paper's script logged exactly this), and show
/// the per-tool capability limits of Table I.
///
/// Run: ./monitor_demo [output.csv]

#include <cstdio>
#include <iostream>
#include <memory>

#include "voprof/monitor/script.hpp"
#include "voprof/monitor/tools.hpp"
#include "voprof/util/csv.hpp"
#include "voprof/util/units.hpp"
#include "voprof/voprof.hpp"
#include "voprof/workloads/hogs.hpp"
#include "voprof/xensim/cluster.hpp"

int main(int argc, char** argv) {
  using namespace voprof;
  const std::string csv_path = argc > 1 ? argv[1] : "monitor_trace.csv";

  // Testbed: one PM, one VM whose workload changes phase mid-run.
  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, 11);
  sim::PhysicalMachine& pm = cluster.add_machine(sim::MachineSpec{});
  sim::VmSpec spec;
  spec.name = "vm1";
  sim::DomU& vm = pm.add_vm(spec);

  auto* hog = new wl::CpuHog(20.0, 5);
  vm.attach(std::unique_ptr<sim::GuestProcess>(hog));
  // Phase change at t=30 s: CPU load jumps (the monitor must track it).
  engine.schedule_at(util::seconds(30.0), [hog] { hog->set_target_pct(80.0); });

  mon::MonitorScript monitor(engine, pm);
  const mon::MeasurementReport& report = monitor.measure(util::seconds(60.0));

  // Dump the synchronized multi-entity trace to CSV.
  util::CsvDocument csv({"t_s", "vm_cpu", "vm_mem", "vm_io", "vm_bw",
                         "dom0_cpu", "hyp_cpu", "pm_cpu", "pm_io", "pm_bw"});
  const mon::SeriesSet& vm_s = report.series("vm1");
  const mon::SeriesSet& dom0_s =
      report.series(mon::MeasurementReport::kDom0Key);
  const mon::SeriesSet& hyp_s = report.series(mon::MeasurementReport::kHypKey);
  const mon::SeriesSet& pm_s = report.series(mon::MeasurementReport::kPmKey);
  for (std::size_t i = 0; i < report.sample_count(); ++i) {
    csv.add_row({util::to_seconds(vm_s.cpu[i].time), vm_s.cpu[i].value,
                 vm_s.mem[i].value, vm_s.io[i].value, vm_s.bw[i].value,
                 dom0_s.cpu[i].value, hyp_s.cpu[i].value, pm_s.cpu[i].value,
                 pm_s.io[i].value, pm_s.bw[i].value});
  }
  if (const util::Result<bool> saved = csv.save(csv_path); !saved.ok()) {
    std::cerr << saved.error().to_string() << '\n';
    return 1;
  }
  std::cout << "Wrote " << report.sample_count()
            << " synchronized 1 s samples to " << csv_path << "\n\n";

  // Show the phase change through the averaged windows.
  std::cout << "Phase averages (workload steps 20% -> 80% at t=30s):\n";
  std::printf("  t in [ 5,30): vm cpu %.1f%%, dom0 %.1f%%, hyp %.1f%%\n",
              vm_s.cpu.mean_between(util::seconds(5), util::seconds(30)),
              dom0_s.cpu.mean_between(util::seconds(5), util::seconds(30)),
              hyp_s.cpu.mean_between(util::seconds(5), util::seconds(30)));
  std::printf("  t in [35,60): vm cpu %.1f%%, dom0 %.1f%%, hyp %.1f%%\n\n",
              vm_s.cpu.mean_between(util::seconds(35), util::seconds(60)),
              dom0_s.cpu.mean_between(util::seconds(35), util::seconds(60)),
              hyp_s.cpu.mean_between(util::seconds(35), util::seconds(60)));

  // Table I in action: what each tool can answer about this run.
  const sim::MachineSnapshot s0 = pm.snapshot(engine.now());
  engine.run_for(util::seconds(5.0));
  const sim::MachineSnapshot s1 = pm.snapshot(engine.now());
  std::cout << "Table I in action (5 s window):\n";
  const mon::XenTop xentop;
  const mon::TopTool top;
  const mon::MpStat mpstat;
  const mon::VmStat vmstat;
  auto show = [](const char* what, std::optional<double> v) {
    if (v.has_value()) {
      std::printf("  %-42s %8.2f\n", what, *v);
    } else {
      std::printf("  %-42s %8s\n", what, "n/a (-)");
    }
  };
  show("xentop: vm1 CPU (%)",
       xentop.read_vm(s0, s1, "vm1", mon::Metric::kCpu));
  show("xentop: vm1 MEM (unsupported cell)",
       xentop.read_vm(s0, s1, "vm1", mon::Metric::kMem));
  show("top: vm1 MEM (MiB, runs inside the VM)",
       top.read_vm(s0, s1, "vm1", mon::Metric::kMem));
  show("mpstat: hypervisor CPU (%)",
       mpstat.read_pm(s0, s1, mon::Metric::kCpu));
  show("vmstat: PM I/O (blocks/s)",
       vmstat.read_pm(s0, s1, mon::Metric::kIo));
  show("vmstat: PM BW (unsupported cell)",
       vmstat.read_pm(s0, s1, mon::Metric::kBw));
  return 0;
}
