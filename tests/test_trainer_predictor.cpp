/// Trainer + predictor pipeline tests: fit the Sec. V models from
/// simulated micro-benchmark sweeps and check they predict simulated
/// PM utilizations with paper-level accuracy. Shortened durations keep
/// the suite fast; the benches run the full 2-minute sweeps.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "voprof/core/predictor.hpp"
#include "voprof/core/serialize.hpp"
#include "voprof/core/trainer.hpp"
#include "voprof/monitor/script.hpp"
#include "voprof/util/assert.hpp"
#include "voprof/workloads/hogs.hpp"
#include "voprof/xensim/cluster.hpp"

namespace voprof::model {
namespace {

TrainerConfig fast_config() {
  TrainerConfig c;
  c.duration = util::seconds(20.0);
  c.seed = 7;
  return c;
}

TEST(Trainer, CollectRunShapes) {
  const Trainer trainer(fast_config());
  const TrainingSet run =
      trainer.collect_run(wl::WorkloadKind::kCpu, 2, 2);
  EXPECT_EQ(run.size(), 20u);  // one row per 1 s sample
  for (const auto& row : run.rows()) {
    EXPECT_EQ(row.n_vms, 2);
    // Two VMs at 60 % each.
    EXPECT_NEAR(row.vm_sum.cpu, 120.0, 5.0);
    EXPECT_GT(row.pm.cpu, row.vm_sum.cpu);  // overhead exists
  }
}

TEST(Trainer, CollectCoversGrid) {
  TrainerConfig c = fast_config();
  c.duration = util::seconds(3.0);
  c.vm_counts = {1, 2};
  c.kinds = {wl::WorkloadKind::kCpu, wl::WorkloadKind::kBw};
  const Trainer trainer(c);
  const TrainingSet data = trainer.collect();
  // 2 counts x 2 kinds x 5 levels x 3 samples.
  EXPECT_EQ(data.size(), 60u);
  EXPECT_EQ(data.with_vm_count(1).size(), 30u);
  EXPECT_EQ(data.with_vm_count(2).size(), 30u);
}

TEST(Trainer, RejectsBadConfig) {
  TrainerConfig c;
  c.vm_counts.clear();
  EXPECT_THROW(Trainer{c}, util::ContractViolation);
  TrainerConfig c2;
  c2.kinds.clear();
  EXPECT_THROW(Trainer{c2}, util::ContractViolation);
}

/// The models file of a short Table II training (10 s cells, seed 42,
/// LMS), written by the serial fit before the fits ran on a TaskPool
/// and before they stopped copying the design matrix.
std::string golden_models() {
  std::ifstream in(VOPROF_SOURCE_DIR
                   "/tests/data/models_table2_10s_seed42_lms.txt");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(Trainer, FitModelsIsJobsInvariant) {
  TrainerConfig c;
  c.duration = util::seconds(10.0);
  c.seed = 42;
  const TrainingSet data = Trainer(c).collect();
  const std::string golden = golden_models();
  ASSERT_FALSE(golden.empty());
  for (const int jobs : {1, 2, 4}) {
    SCOPED_TRACE(jobs);
    EXPECT_EQ(models_to_string(Trainer::fit_models(
                  data, RegressionMethod::kLms, c.seed, jobs)),
              golden);
  }
  // train() fits at config().jobs.
  c.jobs = 4;
  EXPECT_EQ(models_to_string(Trainer(c).train(RegressionMethod::kLms)),
            golden);
}

TEST(Trainer, FitFailingOnAWorkerStillThrows) {
  // Every row has the same VM sum, so every elemental subset of every
  // LMS fit is singular: all six fits of the first wave fail, on the
  // pool's workers when jobs > 1.
  TrainingSet data;
  for (const int n : {1, 2}) {
    for (int i = 0; i < 20; ++i) {
      TrainingRow row;
      row.n_vms = n;
      row.vm_sum = UtilVec{50, 100, 10, 0};
      row.pm = UtilVec{70, 900, 30, 2};
      row.dom0_cpu = 17.0;
      row.hyp_cpu = 3.0;
      data.add(row);
    }
  }
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE(jobs);
    EXPECT_THROW(
        (void)Trainer::fit_models(data, RegressionMethod::kLms, 7, jobs),
        util::ContractViolation);
  }
}

class TrainedPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TrainerConfig c;
    c.duration = util::seconds(30.0);
    c.seed = 11;
    const Trainer trainer(c);
    models_ = new TrainedModels(trainer.train(RegressionMethod::kOls));
  }
  static void TearDownTestSuite() {
    delete models_;
    models_ = nullptr;
  }
  static TrainedModels* models_;
};

TrainedModels* TrainedPipeline::models_ = nullptr;

TEST_F(TrainedPipeline, CpuCoefficientIsNearOne) {
  // PM CPU rises essentially 1:1 with VM CPU plus Dom0/hyp response.
  const LinearFit& f = models_->single.fit_for(MetricIndex::kCpu);
  EXPECT_GT(f.coef[1], 1.0);   // includes the control-plane response
  EXPECT_LT(f.coef[1], 1.45);
  // Intercept absorbs Dom0 base + hypervisor base (~20 %).
  EXPECT_NEAR(f.coef[0], 20.0, 3.0);
}

TEST_F(TrainedPipeline, IoCoefficientNearAmplification) {
  const LinearFit& f = models_->single.fit_for(MetricIndex::kIo);
  EXPECT_NEAR(f.coef[3], 2.05, 0.15);  // vdisk striping factor
  EXPECT_NEAR(f.coef[0], 18.8, 3.0);   // background I/O
}

TEST_F(TrainedPipeline, BwCpuCrossCoefficientMatchesNetback) {
  // VM bandwidth drives PM CPU at ~0.0105+0.00055 per Kb/s
  // (netback + hypervisor traps).
  const LinearFit& f = models_->single.fit_for(MetricIndex::kCpu);
  EXPECT_NEAR(f.coef[4], 0.011, 0.004);
}

TEST_F(TrainedPipeline, SingleVmPredictionAccurate) {
  // Fresh validation run not used in training.
  TrainerConfig c;
  c.duration = util::seconds(30.0);
  c.seed = 1234;
  const Trainer t(c);
  const TrainingSet validation =
      t.collect_run(wl::WorkloadKind::kCpu, 3, 1);
  const Predictor predictor(models_->multi);
  for (const auto& row : validation.rows()) {
    const UtilVec pred = predictor.predict(row.vm_sum, 1);
    const double err = std::abs(pred.cpu - row.pm.cpu) / row.pm.cpu;
    EXPECT_LT(err, 0.08);
  }
}

TEST_F(TrainedPipeline, MultiVmPredictionAccurate) {
  TrainerConfig c;
  c.duration = util::seconds(30.0);
  c.seed = 4321;
  const Trainer t(c);
  const TrainingSet validation =
      t.collect_run(wl::WorkloadKind::kBw, 3, 2);
  const Predictor predictor(models_->multi);
  double worst = 0.0;
  for (const auto& row : validation.rows()) {
    const UtilVec pred = predictor.predict(row.vm_sum, 2);
    worst = std::max(worst,
                     std::abs(pred.cpu - row.pm.cpu) / row.pm.cpu);
  }
  EXPECT_LT(worst, 0.12);
}

TEST_F(TrainedPipeline, EvaluateBuildsErrorCdfs) {
  // Run a mixed workload and evaluate the streaming predictor.
  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, 77);
  sim::PhysicalMachine& pm = cluster.add_machine(sim::MachineSpec{});
  sim::VmSpec s1;
  s1.name = "vm1";
  pm.add_vm(s1).attach(std::make_unique<wl::CpuHog>(50.0, 3));
  sim::VmSpec s2;
  s2.name = "vm2";
  pm.add_vm(s2).attach(
      std::make_unique<wl::NetPing>(640.0, sim::NetTarget{}, 4));

  mon::MonitorScript mon(engine, pm);
  const mon::MeasurementReport& report = mon.measure(util::seconds(60.0));

  const Predictor predictor(models_->multi);
  const PredictionEval eval = predictor.evaluate(report, {"vm1", "vm2"});

  const MetricEval& cpu = eval.of(MetricIndex::kCpu);
  EXPECT_EQ(cpu.predicted.size(), 60u);
  EXPECT_EQ(cpu.measured.size(), 60u);
  ASSERT_FALSE(cpu.errors_pct.empty());
  // Paper-grade accuracy: 90th percentile error within a few percent.
  EXPECT_LT(cpu.error_at_fraction(0.9), 6.0);
  const MetricEval& bw = eval.of(MetricIndex::kBw);
  EXPECT_LT(bw.error_at_fraction(0.9), 6.0);
}

TEST_F(TrainedPipeline, PredictorRequiresTrainedModel) {
  EXPECT_THROW(Predictor{MultiVmModel{}}, util::ContractViolation);
}

TEST_F(TrainedPipeline, EvaluateNeedsVmNames) {
  const Predictor predictor(models_->multi);
  const mon::MeasurementReport empty;
  EXPECT_THROW((void)predictor.evaluate(empty, {}), util::ContractViolation);
}

TEST_F(TrainedPipeline, FitModelsFromReloadedData) {
  // Round-trip the training data through fit_models (trace-driven use).
  const TrainedModels refit =
      Trainer::fit_models(models_->data, RegressionMethod::kOls);
  const UtilVec probe{60, 120, 30, 640};
  const UtilVec a = models_->multi.predict(probe, 2);
  const UtilVec b = refit.multi.predict(probe, 2);
  EXPECT_NEAR(a.cpu, b.cpu, 1e-9);
}

}  // namespace
}  // namespace voprof::model
