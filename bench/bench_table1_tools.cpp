/// \file bench_table1_tools.cpp
/// Reproduces Table I: the capability matrix of the measurement tools
/// (which (entity, metric) cells each tool can observe, and where it
/// must run), and demonstrates the self-overhead that motivates the
/// paper's combined measurement script.

#include <iostream>
#include <memory>
#include <vector>

#include "common.hpp"
#include "voprof/monitor/tools.hpp"

namespace {

using namespace voprof;
using mon::EntityClass;
using mon::Metric;
using mon::Tool;

std::string cell(const Tool& tool, EntityClass entity, Metric metric) {
  if (!tool.can_measure(entity, metric)) return "-";
  // Table I stars the cells that need the tool inside the VM.
  if (entity == EntityClass::kVm &&
      tool.info().host == mon::ToolHost::kGuest) {
    return "Y*";
  }
  if (entity == EntityClass::kVm &&
      (tool.info().name == "mpstat" || tool.info().name == "vmstat" ||
       tool.info().name == "ifconfig")) {
    return "Y*";
  }
  return "Y";
}

}  // namespace

int main(int argc, char** argv) {
  voprof::bench::harness::parse_cli_or_exit(argc, argv);
  std::cout << "=== Reproduction of Table I: features of measurement "
               "tools ===\n\n";

  std::vector<std::unique_ptr<Tool>> tools;
  tools.push_back(std::make_unique<mon::XenTop>());
  tools.push_back(std::make_unique<mon::TopTool>());
  tools.push_back(std::make_unique<mon::MpStat>());
  tools.push_back(std::make_unique<mon::IfConfig>());
  tools.push_back(std::make_unique<mon::VmStat>());

  util::AsciiTable t("Table I (Y = can measure, - = cannot, * = runs in VM)");
  t.set_header({"tool", "VM:cpu", "mem", "io", "bw", "Dom0:cpu", "mem", "io",
                "bw", "PM/hyp:cpu", "mem", "io", "bw"});
  for (const auto& tool : tools) {
    std::vector<std::string> row = {tool->info().name};
    for (EntityClass e : {EntityClass::kVm, EntityClass::kDom0,
                          EntityClass::kPmOrHypervisor}) {
      for (Metric m : {Metric::kCpu, Metric::kMem, Metric::kIo, Metric::kBw}) {
        row.push_back(cell(*tool, e, m));
      }
    }
    t.add_row(row);
  }
  std::cout << t.str() << '\n';

  util::AsciiTable o("Tool self-overhead (why the paper uses one script)");
  o.set_header({"tool", "runs in", "CPU overhead (% of a core)"});
  for (const auto& tool : tools) {
    o.add_row({tool->info().name,
               tool->info().host == mon::ToolHost::kDom0 ? "Dom0" : "guest VM",
               util::fmt(tool->info().self_cpu_pct, 2)});
  }
  std::cout << o.str() << '\n';

  // Demonstrate the perturbation: the same idle testbed measured with
  // and without tool overhead injection.
  std::cout << "Perturbation demo (idle testbed, 60 s):\n";
  for (bool inject : {false, true}) {
    sim::Engine engine;
    sim::Cluster cluster(engine, sim::CostModel{}, 7);
    sim::PhysicalMachine& pm = cluster.add_machine(sim::MachineSpec{});
    sim::VmSpec spec;
    spec.name = "vm1";
    pm.add_vm(spec);
    mon::MonitorConfig cfg;
    cfg.inject_overhead = inject;
    mon::MonitorScript mon(engine, pm, cfg);
    const auto& report = mon.measure(util::seconds(60.0));
    std::printf("  overhead %s: Dom0 CPU = %.2f%%  (VM CPU = %.2f%%)\n",
                inject ? "injected" : "disabled",
                report.mean(mon::MeasurementReport::kDom0Key).cpu_pct,
                report.mean("vm1").cpu_pct);
  }
  std::cout << "  paper's 16.8% Dom0 baseline includes the running "
               "script.\n";
  return voprof::bench::harness::finish();
}
