/// \file bench_ext_vdisk.cpp
/// Extension bench — virtual-disk geometry what-if. The paper observes
/// PM I/O ~= 2x VM I/O and attributes it to striping ("a single read
/// or write by the guest VM may involve several reads or writes").
/// With the striping mechanism implemented (vdisk.hpp), we can ask the
/// question the paper could not: how does the overhead move with the
/// stripe geometry and guest request size?

#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "voprof/xensim/vdisk.hpp"

int main(int argc, char** argv) {
  voprof::bench::harness::parse_cli_or_exit(argc, argv);
  using namespace voprof;
  std::cout << "=== Extension: virtual-disk striping geometry what-if "
               "===\n\n"
               "Mechanism: every stripe an op touches costs a "
               "whole-stripe read-modify-write,\nplus a journal write "
               "per op. XenServer default modeled as 8-block (4 KiB) "
               "ops on\n8-block stripes + 1.4 journal blocks -> "
               "amplification 2.05 (Fig. 2(b)).\n\n";

  util::AsciiTable t(
      "Expected I/O amplification by geometry (blocks of 512 B)");
  t.set_header({"op size", "stripe 4", "stripe 8", "stripe 16",
                "stripe 32"});
  for (double op : {4.0, 8.0, 16.0, 32.0, 64.0}) {
    std::vector<std::string> row = {util::fmt(op, 0) + " blk"};
    for (double stripe : {4.0, 8.0, 16.0, 32.0}) {
      sim::VDiskGeometry g;
      g.op_blocks = op;
      g.stripe_blocks = stripe;
      row.push_back(util::fmt(
          sim::VirtualDisk(g).expected_amplification(), 2));
    }
    t.add_row(row);
  }
  std::cout << t.str() << '\n';

  // Verify the default lands on the paper's anchor and that the
  // sampled machine-level behaviour follows the closed form.
  const sim::VirtualDisk default_disk;
  bench::verdict("default geometry amplification (paper: ~2.05x)",
                 default_disk.expected_amplification(), 2.05, 0.01);

  std::cout << "\nMachine-level check: Fig. 2(b) sweep through the "
               "sampled stripe mechanism\n";
  const auto r = bench::measure_cell(wl::WorkloadKind::kIo, 72.0, 1, false,
                                     4242, util::seconds(60.0));
  bench::verdict("PM I/O at 72 blk/s (paper: 2.05*72 + 18.8)",
                 r.pm.io_blocks_per_s, 2.05 * 72.0 + 18.8, 4.0);

  std::cout
      << "\nReading: small guest writes on wide stripes are the worst "
         "case (RMW waste\napproaches stripe/op); large sequential ops "
         "amortize the stripe penalty and\napproach 1x + journal. The "
         "paper's ~2x is specific to 4 KiB-dominated guest\nI/O on "
         "XenServer's default layout - an operator can halve the "
         "overhead by\nmatching stripe size to the workload's request "
         "size.\n";
  return voprof::bench::harness::finish();
}
