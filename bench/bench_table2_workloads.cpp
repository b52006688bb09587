/// \file bench_table2_workloads.cpp
/// Reproduces Table II: the generated benchmarks and their five
/// intensity levels, and verifies that each generator actually drives
/// the intended resource to the intended level while leaving the other
/// resources nearly idle (the paper's requirement: "high utilization on
/// a sole resource and low overhead on other resources").
///
/// Cells fan across workers (`--jobs N`); historical per-cell seeds
/// keep the output byte-identical to the serial run.

#include <iostream>

#include "common.hpp"

namespace {

using namespace voprof;
using wl::WorkloadKind;

/// Measured utilization of the stressed metric, per level.
double stressed_value(const bench::CellResult& r, WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kCpu:
      return r.vm.cpu_pct;
    case WorkloadKind::kMem:
      return r.vm.mem_mib - sim::VmSpec{}.os_base_mem_mib;  // above OS base
    case WorkloadKind::kIo:
      return r.vm.io_blocks_per_s;
    case WorkloadKind::kBw:
      return r.vm.bw_kbps;
  }
  return 0.0;
}

constexpr std::array<WorkloadKind, 4> kKinds = {
    WorkloadKind::kCpu, WorkloadKind::kMem, WorkloadKind::kIo,
    WorkloadKind::kBw};

}  // namespace

int main(int argc, char** argv) {
  const runner::RunOptions opts = bench::cli_options(argc, argv);
  std::cout << "=== Reproduction of Table II: generated benchmarks for "
               "the measurement study ===\n\n";

  // All 4 kinds x 5 levels as one batch (kind-major, the print order).
  std::vector<bench::CellSpec> specs;
  for (WorkloadKind kind : kKinds) {
    for (std::size_t level = 0; level < wl::kLevelCount; ++level) {
      bench::CellSpec c;
      c.kind = kind;
      c.value = wl::level_value(kind, level);
      c.seed = 4000 + level * 17 + static_cast<std::uint64_t>(kind);
      c.duration = util::seconds(30.0);
      specs.push_back(c);
    }
  }
  const auto cells = bench::measure_cells(specs, opts);

  util::AsciiTable t("Table II: workload intensity levels (measured in VM)");
  t.set_header({"Workload", "L1", "L2", "L3", "L4", "L5"});
  std::size_t cell = 0;
  for (WorkloadKind kind : kKinds) {
    std::vector<std::string> row = {wl::kind_name(kind) + " (" +
                                    wl::kind_unit(kind) + ")"};
    for (std::size_t level = 0; level < wl::kLevelCount; ++level, ++cell) {
      row.push_back(bench::vs(stressed_value(cells[cell], kind),
                              specs[cell].value, 2));
    }
    t.add_row(row);
  }
  std::cout << t.str() << '\n';

  // Isolation check: each generator must leave the non-target
  // resources close to their idle baselines.
  std::cout << "Single-resource isolation at the top level (L5):\n";
  {
    std::vector<bench::CellSpec> iso(4);
    iso[0].kind = WorkloadKind::kCpu;
    iso[0].value = 99.0;
    iso[0].seed = 4501;
    iso[1].kind = WorkloadKind::kIo;
    iso[1].value = 72.0;
    iso[1].seed = 4502;
    iso[2].kind = WorkloadKind::kBw;
    iso[2].value = 1280.0;
    iso[2].seed = 4503;
    iso[3].kind = WorkloadKind::kMem;
    iso[3].value = 50.0;
    iso[3].seed = 4504;
    for (auto& c : iso) c.duration = util::seconds(30.0);
    const auto r = bench::measure_cells(iso, opts);
    std::printf("  CPU hog : io=%.1f blk/s, bw=%.1f Kb/s (both ~0)\n",
                r[0].vm.io_blocks_per_s, r[0].vm.bw_kbps);
    std::printf("  I/O hog : cpu=%.2f%% (paper: 0.84%%), bw=%.1f Kb/s\n",
                r[1].vm.cpu_pct, r[1].vm.bw_kbps);
    std::printf("  BW hog  : cpu=%.2f%% (paper: 3%%), io=%.1f blk/s\n",
                r[2].vm.cpu_pct, r[2].vm.io_blocks_per_s);
    std::printf(
        "  MEM hog : cpu=%.2f%%, io=%.1f blk/s, bw=%.1f Kb/s (all ~0; "
        "Sec. III-C: memory runs left all other metrics constant)\n",
        r[3].vm.cpu_pct, r[3].vm.io_blocks_per_s, r[3].vm.bw_kbps);
  }
  return voprof::bench::harness::finish();
}
