/// \file bench_fig2_single_vm.cpp
/// Reproduces Figure 2 of the paper: resource utilizations of the VM,
/// Dom0, hypervisor and PM for a single guest VM running each Table II
/// workload sweep. Prints measured values alongside the anchor values
/// the paper's text states; points the paper does not quote
/// numerically are printed without an anchor.
///
/// Cells fan across workers (`--jobs N`, default all hardware
/// threads); each keeps its historical per-cell seed, so the output is
/// byte-identical to the serial run for every jobs value.

#include <cstdio>
#include <iostream>

#include "common.hpp"

namespace {

using namespace voprof;
using bench::measure_sweep;
using bench::only;
using bench::vs;
using wl::WorkloadKind;

void fig2a(const runner::RunOptions& opts) {
  util::AsciiTable t(
      "Figure 2(a): CPU utilizations for CPU-intensive workload (1 VM)");
  t.set_header({"input(%)", "VM", "Dom0", "Hypervisor"});
  const std::vector<double> inputs = {1, 30, 60, 90, 99};
  const auto cells = measure_sweep(WorkloadKind::kCpu, inputs, 100, 1, false,
                                   opts);
  double dom0_first = 0, dom0_last = 0, hyp_first = 0, hyp_last = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const double in = inputs[i];
    const auto& r = cells[i];
    std::vector<std::string> row = {only(in, 0), vs(r.vm.cpu_pct, in)};
    if (in == 1) {
      row.push_back(vs(r.dom0.cpu_pct, 16.8));
      row.push_back(vs(r.hyp.cpu_pct, 3.0));
      dom0_first = r.dom0.cpu_pct;
      hyp_first = r.hyp.cpu_pct;
    } else if (in == 99) {
      row.push_back(vs(r.dom0.cpu_pct, 29.5));
      row.push_back(vs(r.hyp.cpu_pct, 14.0));
      dom0_last = r.dom0.cpu_pct;
      hyp_last = r.hyp.cpu_pct;
    } else {
      row.push_back(only(r.dom0.cpu_pct));
      row.push_back(only(r.hyp.cpu_pct));
    }
    t.add_row(row);
  }
  std::cout << t.str();
  bench::verdict("Dom0 CPU rise over sweep (paper: 16.8 -> 29.5)",
                 dom0_last - dom0_first, 12.7, 1.5);
  bench::verdict("Hypervisor CPU rise over sweep (paper: 3 -> 14)",
                 hyp_last - hyp_first, 11.0, 1.0);
  std::cout << '\n';
}

void fig2b(const runner::RunOptions& opts) {
  util::AsciiTable t(
      "Figure 2(b): I/O utilizations for I/O-intensive workload (1 VM)");
  t.set_header({"input(blk/s)", "VM", "Dom0", "PM"});
  const std::vector<double> inputs = {15, 19, 27, 46, 72};
  const auto cells = measure_sweep(WorkloadKind::kIo, inputs, 200, 1, false,
                                   opts);
  double ratio_at_max = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const double in = inputs[i];
    const auto& r = cells[i];
    t.add_row({only(in, 0), vs(r.vm.io_blocks_per_s, in),
               vs(r.dom0.io_blocks_per_s, 0.0),
               only(r.pm.io_blocks_per_s)});
    if (in == 72.0) ratio_at_max = r.pm.io_blocks_per_s / r.vm.io_blocks_per_s;
  }
  std::cout << t.str();
  bench::verdict("PM/VM I/O ratio (paper: 'slightly more than twice')",
                 ratio_at_max, 2.3, 0.35);
  std::cout << '\n';
}

void fig2c(const runner::RunOptions& opts) {
  util::AsciiTable t(
      "Figure 2(c): CPU utilizations for I/O-intensive workload (1 VM)");
  t.set_header({"input(blk/s)", "VM", "Dom0", "Hypervisor"});
  const std::vector<double> inputs = {15, 19, 27, 46, 72};
  const auto cells = measure_sweep(WorkloadKind::kIo, inputs, 300, 1, false,
                                   opts);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& r = cells[i];
    t.add_row({only(inputs[i], 0), vs(r.vm.cpu_pct, 0.84, 2),
               vs(r.dom0.cpu_pct, 16.8), vs(r.hyp.cpu_pct, 2.8)});
  }
  std::cout << t.str();
  std::cout << "  paper: all three CPU series stay flat across the I/O "
               "sweep (VM I/O cap ~90 blk/s)\n\n";
}

void fig2d(const runner::RunOptions& opts) {
  util::AsciiTable t(
      "Figure 2(d): BW utilizations for BW-intensive workload (1 VM)");
  t.set_header({"input(Kb/s)", "VM", "Dom0", "PM", "overhead(B/s)"});
  const std::vector<double> inputs = {1, 160, 320, 640, 1280};
  const auto cells = measure_sweep(WorkloadKind::kBw, inputs, 400, 1, false,
                                   opts);
  double overhead_at_max = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const double in = inputs[i];
    const auto& r = cells[i];
    const double overhead_bps =
        util::kbps_to_bytes_per_s(r.pm.bw_kbps - r.vm.bw_kbps);
    t.add_row({only(in, 0), vs(r.vm.bw_kbps, in, 0),
               vs(r.dom0.bw_kbps, 0.0, 0), only(r.pm.bw_kbps, 0),
               only(overhead_bps, 0)});
    if (in == 1280.0) overhead_at_max = overhead_bps;
  }
  std::cout << t.str();
  bench::verdict("PM BW overhead at top level, B/s (paper: ~400 B/s)",
                 overhead_at_max, 400.0, 150.0);
  std::cout << '\n';
}

void fig2e(const runner::RunOptions& opts) {
  util::AsciiTable t(
      "Figure 2(e): CPU utilizations for BW-intensive workload (1 VM)");
  t.set_header({"input(Kb/s)", "VM", "Dom0", "Hypervisor"});
  const std::vector<double> inputs = {1, 160, 320, 640, 1280};
  const auto cells = measure_sweep(WorkloadKind::kBw, inputs, 500, 1, false,
                                   opts);
  double dom0_lo = 0, dom0_hi = 0, hyp_lo = 0, hyp_hi = 0, vm_lo = 0,
         vm_hi = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const double in = inputs[i];
    const auto& r = cells[i];
    std::vector<std::string> row = {only(in, 0)};
    if (in == 1.0) {
      row.push_back(vs(r.vm.cpu_pct, 0.5, 2));
      row.push_back(vs(r.dom0.cpu_pct, 16.0));
      row.push_back(vs(r.hyp.cpu_pct, 2.5));
      dom0_lo = r.dom0.cpu_pct;
      hyp_lo = r.hyp.cpu_pct;
      vm_lo = r.vm.cpu_pct;
    } else if (in == 1280.0) {
      row.push_back(vs(r.vm.cpu_pct, 3.0, 2));
      row.push_back(vs(r.dom0.cpu_pct, 30.2));
      row.push_back(vs(r.hyp.cpu_pct, 3.5));
      dom0_hi = r.dom0.cpu_pct;
      hyp_hi = r.hyp.cpu_pct;
      vm_hi = r.vm.cpu_pct;
    } else {
      row.push_back(only(r.vm.cpu_pct, 2));
      row.push_back(only(r.dom0.cpu_pct));
      row.push_back(only(r.hyp.cpu_pct));
    }
    t.add_row(row);
  }
  std::cout << t.str();
  bench::verdict("Dom0 CPU slope per Kb/s (paper: constant rate ~0.01)",
                 (dom0_hi - dom0_lo) / 1279.0, 0.0105, 0.002);
  bench::verdict("Hypervisor CPU slope per Kb/s (paper Figs 3e/4e: 0.0005)",
                 (hyp_hi - hyp_lo) / 1279.0, 0.00055, 0.0003);
  bench::verdict("VM CPU rise over sweep (paper: 0.5 -> 3)", vm_hi - vm_lo,
                 2.5, 0.5);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const runner::RunOptions opts = bench::cli_options(argc, argv);
  std::cout << "=== Reproduction of Figure 2: resource utilizations for "
               "one VM ===\n"
               "Protocol: 1 s samples averaged over 2 simulated minutes "
               "(Sec. III-C).\n\n";
  fig2a(opts);
  fig2b(opts);
  fig2c(opts);
  fig2d(opts);
  fig2e(opts);
  return voprof::bench::harness::finish();
}
