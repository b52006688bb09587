/// \file bench_table3_overhead.cpp
/// Reproduces Table III: which resource-utilization overhead metric is
/// visible under each intensity workload. For every (overhead metric,
/// workload) pair the paper marks, the bench measures the overhead at
/// a low and a high intensity and reports whether it responds — and
/// that the unmarked cells stay flat.
///
/// Cells fan across workers (`--jobs N`); historical per-cell seeds
/// keep the output byte-identical to the serial run.

#include <cmath>
#include <iostream>

#include "common.hpp"

namespace {

using namespace voprof;
using wl::WorkloadKind;

struct OverheadReading {
  double cpu_overhead;  ///< |Dom0| + |hypervisor| CPU
  double io_overhead;   ///< |sum VM_io - PM_io|
  double bw_overhead;   ///< |sum VM_bw - PM_bw|
  double mem_overhead;  ///< |sum VM_mem - PM_mem| (= Dom0 memory)
};

OverheadReading overheads(const bench::CellResult& r) {
  return OverheadReading{
      r.dom0.cpu_pct + r.hyp.cpu_pct,
      std::abs(r.vm_sum.io_blocks_per_s - r.pm.io_blocks_per_s),
      std::abs(r.vm_sum.bw_kbps - r.pm.bw_kbps),
      std::abs(r.vm_sum.mem_mib - r.pm.mem_mib),
  };
}

}  // namespace

int main(int argc, char** argv) {
  const runner::RunOptions opts = bench::cli_options(argc, argv);
  std::cout << "=== Reproduction of Table III: definition of utilization "
               "overhead ===\n\n"
            << "Overhead metrics: CPU = |Dom0|+|hypervisor|; "
               "I/O = |sum VMio - PMio|; BW = |sum VMbw - PMbw|; "
               "MEM = |sum VMmem - PMmem|.\n\n";

  const struct {
    WorkloadKind kind;
    double lo, hi;
  } sweeps[] = {
      {WorkloadKind::kCpu, 1.0, 99.0},
      {WorkloadKind::kMem, 0.03, 50.0},
      {WorkloadKind::kIo, 15.0, 72.0},
      {WorkloadKind::kBw, 1.0, 1280.0},
  };

  util::AsciiTable t(
      "Overhead response: 'lo -> hi' values per workload sweep (1 VM); "
      "paper's check marks = cells that respond");
  t.set_header({"overhead \\ workload", "CPU-int.", "MEM-int.", "I/O-int.",
                "BW-int.", "paper marks"});

  // One batch of all lo/hi endpoint cells plus the Sec. III-C memory
  // cell printed at the end (historical seeds preserved).
  std::vector<bench::CellSpec> specs;
  for (std::size_t i = 0; i < 4; ++i) {
    bench::CellSpec c;
    c.kind = sweeps[i].kind;
    c.value = sweeps[i].lo;
    c.seed = 5000 + i;
    c.duration = util::seconds(60.0);
    specs.push_back(c);
    c.value = sweeps[i].hi;
    c.seed = 5100 + i;
    specs.push_back(c);
  }
  {
    bench::CellSpec c;
    c.kind = WorkloadKind::kMem;
    c.value = 50.0;
    c.seed = 5200;
    c.duration = util::seconds(60.0);
    specs.push_back(c);
  }
  const auto cells = bench::measure_cells(specs, opts);

  std::array<OverheadReading, 4> lo{}, hi{};
  for (std::size_t i = 0; i < 4; ++i) {
    lo[i] = overheads(cells[2 * i]);
    hi[i] = overheads(cells[2 * i + 1]);
  }

  auto sweep_cell = [&](double a, double b, int dec = 1) {
    return util::fmt(a, dec) + " -> " + util::fmt(b, dec);
  };
  t.add_row({"CPU (|Dom0|+|hyp|) %",
             sweep_cell(lo[0].cpu_overhead, hi[0].cpu_overhead),
             sweep_cell(lo[1].cpu_overhead, hi[1].cpu_overhead),
             sweep_cell(lo[2].cpu_overhead, hi[2].cpu_overhead),
             sweep_cell(lo[3].cpu_overhead, hi[3].cpu_overhead),
             "CPU, BW"});
  t.add_row({"I/O (blocks/s)",
             sweep_cell(lo[0].io_overhead, hi[0].io_overhead),
             sweep_cell(lo[1].io_overhead, hi[1].io_overhead),
             sweep_cell(lo[2].io_overhead, hi[2].io_overhead),
             sweep_cell(lo[3].io_overhead, hi[3].io_overhead), "I/O"});
  t.add_row({"BW (Kb/s)", sweep_cell(lo[0].bw_overhead, hi[0].bw_overhead),
             sweep_cell(lo[1].bw_overhead, hi[1].bw_overhead),
             sweep_cell(lo[2].bw_overhead, hi[2].bw_overhead),
             sweep_cell(lo[3].bw_overhead, hi[3].bw_overhead), "BW"});
  t.add_row({"MEM (MiB)", sweep_cell(lo[0].mem_overhead, hi[0].mem_overhead),
             sweep_cell(lo[1].mem_overhead, hi[1].mem_overhead),
             sweep_cell(lo[2].mem_overhead, hi[2].mem_overhead),
             sweep_cell(lo[3].mem_overhead, hi[3].mem_overhead), "MEM"});
  std::cout << t.str() << '\n';

  // The three checks the paper's Table III encodes.
  bench::verdict("CPU overhead responds to the CPU sweep (delta, %)",
                 hi[0].cpu_overhead - lo[0].cpu_overhead, 23.7, 4.0);
  bench::verdict("CPU overhead responds to the BW sweep (delta, %)",
                 hi[3].cpu_overhead - lo[3].cpu_overhead, 14.2, 3.0);
  bench::verdict("I/O overhead responds to the I/O sweep (delta, blk/s)",
                 hi[2].io_overhead - lo[2].io_overhead, 60.0, 12.0);
  bench::verdict("MEM overhead stays Dom0-constant under MEM sweep (MiB)",
                 hi[1].mem_overhead - lo[1].mem_overhead, 0.0, 2.0);
  std::cout << "\nSec. III-C constants under the MEM-intensive workload "
               "(why the paper omits the memory plots):\n";
  const auto& mem_cell = cells.back();
  std::printf(
      "  Dom0 CPU = %.1f%% (paper 16.8), hyp = %.1f%% (paper 3.0), PM io = "
      "%.1f blk/s (paper 18.8), PM bw = %.0f B/s (paper 254)\n",
      mem_cell.dom0.cpu_pct, mem_cell.hyp.cpu_pct,
      mem_cell.pm.io_blocks_per_s,
      util::kbps_to_bytes_per_s(mem_cell.pm.bw_kbps));
  return voprof::bench::harness::finish();
}
