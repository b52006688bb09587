/// \file bench_fig3_two_vms.cpp
/// Reproduces Figure 3: resource utilizations for two VMs co-located in
/// a PM, each running the same Table II workload simultaneously
/// (Sec. IV-B). The reported VM column is one VM (the paper: "the
/// measurements of all VMs are exactly the same").
///
/// Cells fan across workers (`--jobs N`); historical per-cell seeds
/// keep the output byte-identical to the serial run.

#include <iostream>

#include "common.hpp"

namespace {

using namespace voprof;
using bench::measure_sweep;
using bench::only;
using bench::vs;
using wl::WorkloadKind;

void fig3a(const runner::RunOptions& opts) {
  util::AsciiTable t(
      "Figure 3(a): CPU utilizations for CPU-intensive workload (2 VMs)");
  t.set_header({"input(%)", "VM", "Dom0", "Hypervisor"});
  const std::vector<double> inputs = {1, 30, 60, 90, 100};
  const auto cells = measure_sweep(WorkloadKind::kCpu, inputs, 1100, 2, false,
                                   opts);
  double vm_at_100 = 0, dom0_hi = 0, hyp_hi = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const double in = inputs[i];
    const auto& r = cells[i];
    std::vector<std::string> row = {only(in, 0)};
    if (in == 100.0) {
      row.push_back(vs(r.vm.cpu_pct, 95.0));
      vm_at_100 = r.vm.cpu_pct;
      dom0_hi = r.dom0.cpu_pct;
      hyp_hi = r.hyp.cpu_pct;
    } else {
      row.push_back(only(r.vm.cpu_pct));
    }
    row.push_back(only(r.dom0.cpu_pct));
    row.push_back(only(r.hyp.cpu_pct));
    t.add_row(row);
  }
  std::cout << t.str();
  bench::verdict("VM CPU at 100% input (paper: 95%, co-location loss)",
                 vm_at_100, 95.0, 1.5);
  bench::verdict("Dom0 CPU plateau (paper: stable ~23.4%)", dom0_hi, 23.4,
                 1.0);
  bench::verdict("Hypervisor CPU plateau (paper: ~12.0%)", hyp_hi, 12.0,
                 0.8);
  std::cout << '\n';
}

void fig3b(const runner::RunOptions& opts) {
  util::AsciiTable t(
      "Figure 3(b): I/O utilizations for I/O-intensive workload (2 VMs)");
  t.set_header({"input(blk/s)", "VM", "sum(VMs)", "Dom0", "PM"});
  const std::vector<double> inputs = {15, 30, 45, 60, 75};
  const auto cells = measure_sweep(WorkloadKind::kIo, inputs, 1200, 2, false,
                                   opts);
  double ratio = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const double in = inputs[i];
    const auto& r = cells[i];
    t.add_row({only(in, 0), only(r.vm.io_blocks_per_s),
               only(r.vm_sum.io_blocks_per_s),
               vs(r.dom0.io_blocks_per_s, 0.0), only(r.pm.io_blocks_per_s)});
    if (in == 75.0) ratio = r.pm.io_blocks_per_s / r.vm_sum.io_blocks_per_s;
  }
  std::cout << t.str();
  bench::verdict("PM / sum(VM) I/O ratio (paper: 'more than twice')", ratio,
                 2.2, 0.25);
  std::cout << '\n';
}

void fig3c(const runner::RunOptions& opts) {
  util::AsciiTable t(
      "Figure 3(c): CPU utilizations for I/O-intensive workload (2 VMs)");
  t.set_header({"input(blk/s)", "VM", "Dom0", "Hypervisor"});
  const std::vector<double> inputs = {15, 30, 45, 60, 75};
  const auto cells = measure_sweep(WorkloadKind::kIo, inputs, 1300, 2, false,
                                   opts);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& r = cells[i];
    t.add_row({only(inputs[i], 0), vs(r.vm.cpu_pct, 0.84, 2),
               vs(r.dom0.cpu_pct, 17.4), vs(r.hyp.cpu_pct, 2.7)});
  }
  std::cout << t.str();
  std::cout << "  paper: Dom0 17.4%, VM 0.84%, hypervisor 2.7% - all flat; "
               "co-location adds ~2% Dom0 CPU vs Fig. 2(c)\n\n";
}

void fig3d(const runner::RunOptions& opts) {
  util::AsciiTable t(
      "Figure 3(d): BW utilizations for BW-intensive workload (2 VMs)");
  t.set_header({"input(Kb/s)", "VM", "sum(VMs)", "Dom0", "PM"});
  const std::vector<double> inputs = {1, 320, 640, 960, 1280};
  const auto cells = measure_sweep(WorkloadKind::kBw, inputs, 1400, 2, false,
                                   opts);
  double frac = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const double in = inputs[i];
    const auto& r = cells[i];
    t.add_row({only(in, 0), only(r.vm.bw_kbps, 0), only(r.vm_sum.bw_kbps, 0),
               vs(r.dom0.bw_kbps, 0.0, 0), only(r.pm.bw_kbps, 0)});
    if (in == 1280.0) {
      frac = (r.pm.bw_kbps - r.vm_sum.bw_kbps) / r.pm.bw_kbps;
    }
  }
  std::cout << t.str();
  bench::verdict("|PMbw - sum VMbw| / PMbw (paper: 3%)", frac, 0.03, 0.01);
  std::cout << '\n';
}

void fig3e(const runner::RunOptions& opts) {
  util::AsciiTable t(
      "Figure 3(e): CPU utilizations for BW-intensive workload (2 VMs)");
  t.set_header({"input(Kb/s)", "VM", "Dom0", "Hypervisor"});
  const std::vector<double> inputs = {1, 320, 640, 960, 1280};
  const auto cells = measure_sweep(WorkloadKind::kBw, inputs, 1500, 2, false,
                                   opts);
  double dom0_lo = 0, dom0_hi = 0, hyp_lo = 0, hyp_hi = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const double in = inputs[i];
    const auto& r = cells[i];
    std::vector<std::string> row = {only(in, 0), only(r.vm.cpu_pct, 2)};
    if (in == 1.0) {
      row.push_back(vs(r.dom0.cpu_pct, 17.1));
      row.push_back(vs(r.hyp.cpu_pct, 2.6));
      dom0_lo = r.dom0.cpu_pct;
      hyp_lo = r.hyp.cpu_pct;
    } else if (in == 1280.0) {
      row.push_back(vs(r.dom0.cpu_pct, 41.8));
      row.push_back(vs(r.hyp.cpu_pct, 4.0));
      dom0_hi = r.dom0.cpu_pct;
      hyp_hi = r.hyp.cpu_pct;
    } else {
      row.push_back(only(r.dom0.cpu_pct));
      row.push_back(only(r.hyp.cpu_pct));
    }
    t.add_row(row);
  }
  std::cout << t.str();
  // Input axis is per-VM; 2 VMs double the aggregate: slope vs input
  // is 2 x 0.0105.
  bench::verdict("Dom0 CPU slope per input Kb/s (paper: rate 0.01 x 2 VMs)",
                 (dom0_hi - dom0_lo) / 1279.0, 0.021, 0.004);
  bench::verdict("Hyp CPU slope per input Kb/s (paper: 0.0005 x 2 VMs)",
                 (hyp_hi - hyp_lo) / 1279.0, 0.0011, 0.0005);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const runner::RunOptions opts = bench::cli_options(argc, argv);
  std::cout << "=== Reproduction of Figure 3: resource utilizations for "
               "two co-located VMs ===\n\n";
  fig3a(opts);
  fig3b(opts);
  fig3c(opts);
  fig3d(opts);
  fig3e(opts);
  return voprof::bench::harness::finish();
}
