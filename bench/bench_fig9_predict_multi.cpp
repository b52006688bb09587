/// \file bench_fig9_predict_multi.cpp
/// Reproduces Figure 9: prediction errors for PMs hosting more than two
/// VMs — three independent RUBiS sets (three web VMs on PM1, three DB
/// VMs on PM2, six VMs total), exercising the alpha(N) extrapolation of
/// Eq. (3) at N = 3.
///
/// Paper anchors: 90 % of PM1 CPU predictions under 2 %; PM2 CPU errors
/// cluster around 4.5 %; 80 % of bandwidth predictions under 1 % on
/// both PMs.

#include <iostream>

#include "model_common.hpp"

int main(int argc, char** argv) {
  using namespace voprof;
  const runner::RunOptions opts = bench::cli_options(argc, argv);
  std::cout << "=== Reproduction of Figure 9: resource utilization "
               "prediction, PMs hosting three VMs each ===\n"
               "Three independent RUBiS sets: 3 web VMs on PM1, 3 DB VMs "
               "on PM2.\n\n";
  const model::TrainedModels& models =
      bench::train_paper_models(model::RegressionMethod::kLms,
                                util::seconds(120.0), opts.jobs);

  const std::vector<int> clients = {300, 400, 500, 600, 700};
  runner::SweepRunner sweep(opts);
  std::vector<bench::RubisPrediction> runs =
      sweep.map(clients.size(), [&models, &clients](std::size_t i) {
        return bench::run_rubis_prediction(models.multi, /*instances=*/3,
                                           clients[i], 900 + i * 13);
      });

  auto col = [&runs](bool pm1, model::MetricIndex m) {
    std::vector<model::MetricEval*> v;
    for (auto& r : runs) v.push_back(&(pm1 ? r.pm1 : r.pm2).of(m));
    return v;
  };

  bench::print_error_table(
      "Figure 9(a): PM1 (3 web VMs) CPU prediction error CDF", clients,
      col(true, model::MetricIndex::kCpu), 2.0);
  bench::print_error_table(
      "Figure 9(b): PM2 (3 DB VMs) CPU prediction error CDF", clients,
      col(false, model::MetricIndex::kCpu), 4.5);
  bench::print_error_table(
      "Figure 9(c): PM1 (3 web VMs) bandwidth prediction error CDF",
      clients, col(true, model::MetricIndex::kBw), 1.0);
  bench::print_error_table(
      "Figure 9(d): PM2 (3 DB VMs) bandwidth prediction error CDF", clients,
      col(false, model::MetricIndex::kBw), 1.0);

  // 80 %-under-1 % bandwidth claim.
  double worst_p80_bw = 0.0;
  for (auto& r : runs) {
    worst_p80_bw = std::max(
        worst_p80_bw,
        std::max(r.pm1.of(model::MetricIndex::kBw).error_at_fraction(0.8),
                 r.pm2.of(model::MetricIndex::kBw).error_at_fraction(0.8)));
  }
  std::printf("Worst 80%% bandwidth error bound: %.2f%% (paper: 80%% of "
              "predictions within 1%% on both PMs)\n",
              worst_p80_bw);
  return voprof::bench::harness::finish();
}
