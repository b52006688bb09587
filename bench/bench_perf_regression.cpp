/// \file bench_perf_regression.cpp
/// Harness microbenchmarks of the regression back-ends: OLS
/// (Householder QR) vs Least Median of Squares (random elemental
/// subsets) across observation counts and on the Table II training
/// rows, plus full model fits (the trainer's twelve-fit step at 1 and
/// 4 workers) and prediction throughput. LMS is the paper's cited
/// estimator [24]; this quantifies what its robustness costs. Emits
/// BENCH_perf_regression.json for the CI perf gate.

#include <cstdio>
#include <string>

#include "harness.hpp"
#include "voprof/core/overhead_model.hpp"
#include "voprof/core/regression.hpp"
#include "voprof/core/trainer.hpp"
#include "voprof/util/rng.hpp"

namespace {

using namespace voprof;
using bench::harness::BenchOptions;
using bench::harness::RepResult;
using bench::harness::Session;
using model::RegressionMethod;

struct Data {
  util::Matrix x;
  std::vector<double> y;
};

Data make_data(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Data d{util::Matrix(n, 4), std::vector<double>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 4; ++c) d.x(i, c) = rng.uniform(0, 100);
    d.y[i] = 5.0 + 1.1 * d.x(i, 0) + 0.01 * d.x(i, 3) + rng.gaussian(0, 0.5);
  }
  return d;
}

double fit_checksum(const model::LinearFit& fit) {
  double sum = fit.r_squared + fit.residual_rms;
  for (const double c : fit.coef) sum += c;
  return sum;
}

/// One rep = `fits_per_rep` complete fits, sized so a rep lands in the
/// milliseconds range where steady_clock timing is meaningful.
void bench_fit_ols(Session& session, std::size_t n, int fits_per_rep) {
  const Data d = make_data(n, 1);
  session.bench("fit_ols/n=" + std::to_string(n), BenchOptions{1, 9}, [&]() {
    double sum = 0.0;
    for (int i = 0; i < fits_per_rep; ++i) {
      sum += fit_checksum(model::fit_ols(d.x, d.y));
    }
    return RepResult{0.0, sum};
  });
}

void bench_fit_lms(Session& session, std::size_t n, int fits_per_rep) {
  const Data d = make_data(n, 2);
  session.bench("fit_lms/n=" + std::to_string(n), BenchOptions{1, 9}, [&]() {
    double sum = 0.0;
    for (int i = 0; i < fits_per_rep; ++i) {
      util::Rng rng(7);
      sum += fit_checksum(model::fit_lms(d.x, d.y, rng));
    }
    return RepResult{0.0, sum};
  });
}

/// The fit the trainer actually runs: the single-VM CPU model over the
/// rows of the Table II sweep (1 VM, 120 s cells), at the overhead
/// models' LQS quantile. Unlike the dense random `fit_lms/n=*` data,
/// these rows hold most resources at exact idle values, so many
/// elemental subsets are singular.
void bench_fit_lms_table2(Session& session, const model::TrainingSet& table2) {
  const model::TrainingSet data = table2.with_vm_count(1);
  const util::Matrix x = data.design();
  const std::vector<double> y = data.response(model::MetricIndex::kCpu);
  session.bench("fit_lms/table2", BenchOptions{1, 9}, [&]() {
    util::Rng rng(7);
    const model::LinearFit fit =
        model::fit_lms(x, y, rng, model::model_fit_config());
    return RepResult{0.0, fit_checksum(fit)};
  });
}

double models_checksum(const model::TrainedModels& m) {
  double sum = fit_checksum(m.multi.dom0_overhead_fit()) +
               fit_checksum(m.multi.hyp_overhead_fit()) +
               fit_checksum(m.single.dom0_cpu_fit()) +
               fit_checksum(m.single.hyp_cpu_fit());
  for (std::size_t i = 0; i < model::kMetricCount; ++i) {
    const auto metric = static_cast<model::MetricIndex>(i);
    sum += fit_checksum(m.single.fit_for(metric)) +
           fit_checksum(m.multi.overhead_for(metric));
  }
  return sum;
}

/// The trainer's whole fit step: Trainer::fit_models' twelve LMS
/// regressions (two waves of six) over the Table II rows, on a pool of
/// `jobs` workers. Returns the checksum, which must not depend on jobs.
double bench_fit_models_table2(Session& session,
                               const model::TrainingSet& table2, int jobs) {
  double checksum = 0.0;
  session.bench("fit_models/table2/jobs=" + std::to_string(jobs),
                BenchOptions{1, 9}, [&]() {
                  checksum = models_checksum(model::Trainer::fit_models(
                      table2, RegressionMethod::kLms, 42, jobs));
                  return RepResult{0.0, checksum};
                });
  return checksum;
}

void bench_single_vm_model_fit(Session& session) {
  util::Rng rng(3);
  model::TrainingSet data;
  for (int i = 0; i < 2400; ++i) {
    model::TrainingRow row;
    row.n_vms = 1;
    row.vm_sum = model::UtilVec{rng.uniform(0, 100), rng.uniform(80, 140),
                                rng.uniform(0, 90), rng.uniform(0, 1280)};
    row.pm = row.vm_sum * 1.2;
    row.dom0_cpu = 16.8 + 0.05 * row.vm_sum.cpu;
    row.hyp_cpu = 3.0 + 0.04 * row.vm_sum.cpu;
    data.add(row);
  }
  session.bench("single_vm_model_fit", BenchOptions{1, 9}, [&]() {
    const model::SingleVmModel m =
        model::SingleVmModel::fit(data, RegressionMethod::kOls);
    return RepResult{0.0,
                     fit_checksum(m.fit_for(model::MetricIndex::kCpu))};
  });
}

void bench_predict(Session& session) {
  util::Rng rng(4);
  model::TrainingSet data;
  for (int n : {1, 2, 4}) {
    for (int i = 0; i < 800; ++i) {
      model::TrainingRow row;
      row.n_vms = n;
      row.vm_sum = model::UtilVec{rng.uniform(0, 100.0 * n),
                                  rng.uniform(80, 140.0 * n),
                                  rng.uniform(0, 90.0 * n),
                                  rng.uniform(0, 1280.0 * n)};
      row.pm = row.vm_sum * 1.2 + model::UtilVec{18, 752, 19, 2} *
                                      (1.0 + 0.1 * (n - 1));
      row.dom0_cpu = 16.8 + 0.05 * row.vm_sum.cpu;
      row.hyp_cpu = 3.0 + 0.04 * row.vm_sum.cpu;
      data.add(row);
    }
  }
  const model::MultiVmModel m =
      model::MultiVmModel::fit(data, RegressionMethod::kOls);
  const model::UtilVec probe{120, 250, 40, 2000};
  constexpr int kPredictionsPerRep = 100000;
  session.bench("predict_x100000", BenchOptions{1, 9}, [&]() {
    double sum = 0.0;
    for (int i = 0; i < kPredictionsPerRep; ++i) {
      sum += m.predict(probe, 2).cpu;
      sum += m.predict_pm_cpu_indirect(probe, 2);
    }
    return RepResult{0.0, sum};
  });
}

}  // namespace

int main(int argc, char** argv) {
  voprof::bench::harness::parse_cli_or_exit(argc, argv);
  Session& session = Session::global();
  bench_fit_ols(session, 64, 400);
  bench_fit_ols(session, 1024, 50);
  bench_fit_ols(session, 16384, 4);
  bench_fit_lms(session, 64, 40);
  bench_fit_lms(session, 1024, 8);
  bench_fit_lms(session, 16384, 1);
  // The Table II rows (1, 2 and 4 VMs, 120 s cells), collected once,
  // outside every timed body.
  model::TrainerConfig tc;
  tc.jobs = 0;
  const model::TrainingSet table2 = model::Trainer(tc).collect();
  bench_fit_lms_table2(session, table2);
  const double serial = bench_fit_models_table2(session, table2, 1);
  const double parallel = bench_fit_models_table2(session, table2, 4);
  int rc = 0;
  if (serial != parallel) {
    std::fprintf(stderr,
                 "bench_perf_regression: fit_models checksum %.17g at "
                 "jobs=1 but %.17g at jobs=4\n",
                 serial, parallel);
    rc = 1;
  }
  bench_single_vm_model_fit(session);
  bench_predict(session);
  rc = voprof::bench::harness::finish(rc);
  if (rc == 0) {
    std::printf("wrote %s (%zu benchmarks)\n", session.output_path().c_str(),
                session.measurements().size());
  }
  return rc;
}
