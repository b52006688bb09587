/// \file bench_fig10_placement.cpp
/// Reproduces Figure 10: virtualization-overhead-aware (VOA) vs
/// -unaware (VOU) VM placement (Sec. VI-B). Five identical VMs (RUBiS
/// web + DB + three fillers) are placed onto two host PMs by a
/// CloudScale-style pipeline, in random order, 10 times per scenario.
/// Scenario k runs lookbusy at 50 % CPU in k of the three fillers.
///
/// Fig. 10(a): mean RUBiS throughput (req/s) with p10/p90 error bars —
/// VOA stays stable; VOU degrades as the filler load grows because it
/// ignores the Dom0/hypervisor CPU the model accounts for.
/// Fig. 10(b): total time to process the request volume — higher for
/// VOU.

#include <iostream>

#include "model_common.hpp"
#include "voprof/placement/evaluation.hpp"

int main(int argc, char** argv) {
  using namespace voprof;
  const runner::RunOptions opts = bench::cli_options(argc, argv);
  std::cout << "=== Reproduction of Figure 10: virtualization-overhead "
               "aware resource provisioning ===\n"
               "Training the overhead model, profiling VM roles with the "
               "CloudScale demand predictor...\n\n";
  const model::TrainedModels& models =
      bench::train_paper_models(model::RegressionMethod::kLms,
                                util::seconds(120.0), opts.jobs);

  place::EvalConfig cfg;
  cfg.repetitions = 10;  // paper: "repeated this VM placement ... 10 times"
  cfg.clients = 500;     // paper: 500 simultaneous clients
  const place::PlacementEvaluation eval(cfg, &models.multi);

  const auto& demands = eval.role_demands();
  std::cout << "CloudScale-predicted per-role demands:\n";
  for (const auto& [role, d] : demands) {
    std::printf("  %-10s cpu=%6.2f%%  mem=%6.1fMiB  io=%5.2fblk/s  "
                "bw=%7.1fKb/s\n",
                place::role_name(role).c_str(), d.cpu, d.mem, d.io, d.bw);
  }
  std::cout << '\n';

  util::AsciiTable ta(
      "Figure 10(a): average RUBiS throughput (req/s), error bars = "
      "p10/p90 over 10 placements");
  ta.set_header({"scenario", "VOA mean", "VOA p10", "VOA p90", "VOU mean",
                 "VOU p10", "VOU p90"});
  util::AsciiTable tb(
      "Figure 10(b): total time to process the request volume (s); "
      "latency = Little's-law mean response time (s)");
  tb.set_header({"scenario", "VOA", "VOU", "VOA latency", "VOU latency"});

  // The 4 scenarios x {VOA, VOU} cells are independent once the role
  // demands above are materialized; fan them over the workers and
  // print in scenario order.
  runner::SweepRunner sweep(opts);
  const std::vector<place::CellStats> cells =
      sweep.map(8, [&eval](std::size_t i) {
        return eval.run_cell(static_cast<int>(i / 2), i % 2 == 0);
      });

  double prev_vou = 1e9;
  bool vou_monotone = true, voa_wins = true;
  for (int scenario = 0; scenario <= 3; ++scenario) {
    const place::CellStats& voa =
        cells[static_cast<std::size_t>(scenario) * 2];
    const place::CellStats& vou =
        cells[static_cast<std::size_t>(scenario) * 2 + 1];
    ta.add_row({std::to_string(scenario), util::fmt(voa.mean_throughput, 1),
                util::fmt(voa.p10_throughput, 1),
                util::fmt(voa.p90_throughput, 1),
                util::fmt(vou.mean_throughput, 1),
                util::fmt(vou.p10_throughput, 1),
                util::fmt(vou.p90_throughput, 1)});
    tb.add_row({std::to_string(scenario), util::fmt(voa.mean_total_time, 0),
                util::fmt(vou.mean_total_time, 0),
                util::fmt(voa.mean_latency_s, 2),
                util::fmt(vou.mean_latency_s, 2)});
    if (vou.mean_throughput > prev_vou + 2.0) vou_monotone = false;
    prev_vou = vou.mean_throughput;
    if (voa.mean_throughput + 2.0 < vou.mean_throughput) voa_wins = false;
  }
  std::cout << ta.str() << '\n' << tb.str() << '\n';

  std::cout << "Shape checks (paper's claims):\n"
            << "  VOA throughput >= VOU in every scenario: "
            << (voa_wins ? "OK" : "DIVERGES") << '\n'
            << "  VOU throughput non-increasing with scenario load: "
            << (vou_monotone ? "OK" : "DIVERGES") << '\n'
            << "  (VOU packs 4 VMs on one PM until the memory check "
               "trips; with loaded fillers the RUBiS VMs starve for "
               "CPU it did not account for.)\n";
  return voprof::bench::harness::finish();
}
