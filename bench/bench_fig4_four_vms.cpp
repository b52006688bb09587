/// \file bench_fig4_four_vms.cpp
/// Reproduces Figure 4: resource utilizations for four VMs co-located
/// in a PM (Sec. IV-B).
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

void fig4a(const runner::RunOptions& opts) {
  util::AsciiTable t(
      "Figure 4(a): CPU utilizations for CPU-intensive workload (4 VMs)");
  t.set_header({"input(%)", "VM", "Dom0", "Hypervisor"});
  const std::vector<double> inputs = {1, 30, 60, 90, 100};
  const auto cells = measure_sweep(WorkloadKind::kCpu, inputs, 2100, 4, false,
                                   opts);
  double vm_at_100 = 0, dom0_hi = 0, hyp_hi = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const double in = inputs[i];
    const auto& r = cells[i];
    std::vector<std::string> row = {only(in, 0)};
    if (in == 100.0) {
      row.push_back(vs(r.vm.cpu_pct, 47.0));
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
  bench::verdict("VM CPU at 100% input (paper: 47%)", vm_at_100, 47.0, 1.5);
  bench::verdict("Dom0 CPU plateau (paper: ~23.4%)", dom0_hi, 23.4, 1.0);
  bench::verdict("Hypervisor CPU plateau (paper: ~12.0%)", hyp_hi, 12.0,
                 0.8);
  std::cout << '\n';
}

void fig4b(const runner::RunOptions& opts) {
  util::AsciiTable t(
      "Figure 4(b): I/O utilizations for I/O-intensive workload (4 VMs)");
  t.set_header({"input(blk/s)", "VM", "sum(VMs)", "Dom0", "PM"});
  const std::vector<double> inputs = {15, 30, 45, 60, 75};
  const auto cells = measure_sweep(WorkloadKind::kIo, inputs, 2200, 4, false,
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
  bench::verdict("PM / sum(VM) I/O ratio (paper: ~2x, axis tops ~600)",
                 ratio, 2.1, 0.25);
  std::cout << '\n';
}

void fig4c(const runner::RunOptions& opts) {
  util::AsciiTable t(
      "Figure 4(c): CPU utilizations for I/O-intensive workload (4 VMs)");
  t.set_header({"input(blk/s)", "VM", "Dom0", "Hypervisor"});
  const std::vector<double> inputs = {15, 30, 45, 60, 75};
  const auto cells = measure_sweep(WorkloadKind::kIo, inputs, 2300, 4, false,
                                   opts);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& r = cells[i];
    t.add_row({only(inputs[i], 0), vs(r.vm.cpu_pct, 0.84, 2),
               vs(r.dom0.cpu_pct, 17.4), vs(r.hyp.cpu_pct, 3.5)});
  }
  std::cout << t.str();
  std::cout << "  paper: flat series; Dom0 17.4%, VM 0.84%, hyp 3.5%\n\n";
}

void fig4d(const runner::RunOptions& opts) {
  util::AsciiTable t(
      "Figure 4(d): BW utilizations for BW-intensive workload (4 VMs)");
  t.set_header({"input(Kb/s)", "VM", "sum(VMs)", "Dom0", "PM"});
  const std::vector<double> inputs = {1, 320, 640, 960, 1280};
  const auto cells = measure_sweep(WorkloadKind::kBw, inputs, 2400, 4, false,
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

void fig4e(const runner::RunOptions& opts) {
  util::AsciiTable t(
      "Figure 4(e): CPU utilizations for BW-intensive workload (4 VMs)");
  t.set_header({"input(Kb/s)", "VM", "Dom0", "Hypervisor"});
  const std::vector<double> inputs = {1, 320, 640, 960, 1280};
  const auto cells = measure_sweep(WorkloadKind::kBw, inputs, 2500, 4, false,
                                   opts);
  double dom0_lo = 0, dom0_hi = 0, hyp_lo = 0, hyp_hi = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const double in = inputs[i];
    const auto& r = cells[i];
    std::vector<std::string> row = {only(in, 0), only(r.vm.cpu_pct, 2)};
    if (in == 1.0) {
      row.push_back(vs(r.dom0.cpu_pct, 17.3));
      row.push_back(vs(r.hyp.cpu_pct, 3.5));
      dom0_lo = r.dom0.cpu_pct;
      hyp_lo = r.hyp.cpu_pct;
    } else if (in == 1280.0) {
      row.push_back(vs(r.dom0.cpu_pct, 67.1));
      row.push_back(vs(r.hyp.cpu_pct, 6.3));
      dom0_hi = r.dom0.cpu_pct;
      hyp_hi = r.hyp.cpu_pct;
    } else {
      row.push_back(only(r.dom0.cpu_pct));
      row.push_back(only(r.hyp.cpu_pct));
    }
    t.add_row(row);
  }
  std::cout << t.str();
  bench::verdict(
      "Dom0 slope per input Kb/s (paper: 2x the 2-VM slope = 0.04)",
      (dom0_hi - dom0_lo) / 1279.0, 0.042, 0.008);
  bench::verdict("Hyp slope per input Kb/s (paper: 0.0005 x 4 VMs)",
                 (hyp_hi - hyp_lo) / 1279.0, 0.0022, 0.0008);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const runner::RunOptions opts = bench::cli_options(argc, argv);
  std::cout << "=== Reproduction of Figure 4: resource utilizations for "
               "four co-located VMs ===\n\n";
  fig4a(opts);
  fig4b(opts);
  fig4c(opts);
  fig4d(opts);
  fig4e(opts);
  return voprof::bench::harness::finish();
}
