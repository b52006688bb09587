/// \file bench_fig8_predict_2vms.cpp
/// Reproduces Figure 8: prediction errors for a PM hosting TWO
/// co-located VMs — two independent RUBiS instances, both web servers
/// on PM1 and both database servers on PM2 (Sec. VI-A), validating the
/// Eq. (3) co-location model with alpha(2) = 1.
///
/// Paper anchors: 90 % of PM-CPU predictions under 2 % (PM1) / 5 %
/// (PM2); 90 % of PM-bandwidth predictions under 3.5 % for both PMs.

#include <iostream>

#include "model_common.hpp"

int main(int argc, char** argv) {
  using namespace voprof;
  const runner::RunOptions opts = bench::cli_options(argc, argv);
  std::cout << "=== Reproduction of Figure 8: resource utilization "
               "prediction, PM hosting two VMs ===\n"
               "Two independent RUBiS sets: 2 web VMs on PM1, 2 DB VMs on "
               "PM2.\n\n";
  const model::TrainedModels& models =
      bench::train_paper_models(model::RegressionMethod::kLms,
                                util::seconds(120.0), opts.jobs);

  const std::vector<int> clients = {300, 400, 500, 600, 700};
  runner::SweepRunner sweep(opts);
  std::vector<bench::RubisPrediction> runs =
      sweep.map(clients.size(), [&models, &clients](std::size_t i) {
        return bench::run_rubis_prediction(models.multi, /*instances=*/2,
                                           clients[i], 800 + i * 13);
      });

  auto col = [&runs](bool pm1, model::MetricIndex m) {
    std::vector<model::MetricEval*> v;
    for (auto& r : runs) v.push_back(&(pm1 ? r.pm1 : r.pm2).of(m));
    return v;
  };

  bench::print_error_table(
      "Figure 8(a): PM1 (2 web VMs) CPU prediction error CDF", clients,
      col(true, model::MetricIndex::kCpu), 2.0);
  bench::print_error_table(
      "Figure 8(b): PM2 (2 DB VMs) CPU prediction error CDF", clients,
      col(false, model::MetricIndex::kCpu), 5.0);
  bench::print_error_table(
      "Figure 8(c): PM1 (2 web VMs) bandwidth prediction error CDF",
      clients, col(true, model::MetricIndex::kBw), 3.5);
  bench::print_error_table(
      "Figure 8(d): PM2 (2 DB VMs) bandwidth prediction error CDF", clients,
      col(false, model::MetricIndex::kBw), 3.5);

  std::cout << "Shape notes (paper): bandwidth predictions beat CPU "
               "predictions because two co-located VMs impose little "
               "bandwidth overhead; PM2 errors exceed PM1 errors.\n";
  return voprof::bench::harness::finish();
}
