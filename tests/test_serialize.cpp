#include "voprof/core/serialize.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "voprof/util/assert.hpp"
#include "voprof/util/rng.hpp"

namespace voprof::model {
namespace {

/// Small synthetic training set good enough to fit both models.
TrainingSet synthetic_data(std::uint64_t seed) {
  util::Rng rng(seed);
  TrainingSet data;
  for (int n : {1, 2, 4}) {
    for (int i = 0; i < 200; ++i) {
      TrainingRow r;
      r.n_vms = n;
      r.vm_sum = UtilVec{rng.uniform(0, 100.0 * n), rng.uniform(80, 150.0 * n),
                         rng.uniform(0, 90.0 * n), rng.uniform(0, 1280.0 * n)};
      const double alpha = n <= 1 ? 0.0 : n - 1.0;
      r.dom0_cpu = 16.8 + 0.05 * r.vm_sum.cpu + 0.0105 * r.vm_sum.bw +
                   alpha * 0.6 + rng.gaussian(0, 0.1);
      r.hyp_cpu = 3.0 + 0.04 * r.vm_sum.cpu + alpha * 0.3 +
                  rng.gaussian(0, 0.05);
      r.pm = UtilVec{r.vm_sum.cpu + r.dom0_cpu + r.hyp_cpu,
                     752.0 + r.vm_sum.mem, 18.8 + 2.05 * r.vm_sum.io,
                     2.0 + 1.001 * r.vm_sum.bw + alpha * 5.0};
      data.add(std::move(r));
    }
  }
  return data;
}

TEST(TrainingSetCsv, RoundTripPreservesRows) {
  const TrainingSet data = synthetic_data(1);
  const util::CsvDocument csv = training_set_to_csv(data);
  EXPECT_EQ(csv.row_count(), data.size());
  const TrainingSet back = training_set_from_csv(csv).value();
  ASSERT_EQ(back.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(back.rows()[i].n_vms, data.rows()[i].n_vms);
    EXPECT_DOUBLE_EQ(back.rows()[i].vm_sum.bw, data.rows()[i].vm_sum.bw);
    EXPECT_DOUBLE_EQ(back.rows()[i].pm.cpu, data.rows()[i].pm.cpu);
    EXPECT_DOUBLE_EQ(back.rows()[i].dom0_cpu, data.rows()[i].dom0_cpu);
    EXPECT_DOUBLE_EQ(back.rows()[i].hyp_cpu, data.rows()[i].hyp_cpu);
  }
}

TEST(TrainingSetCsv, RoundTripThroughText) {
  const TrainingSet data = synthetic_data(2);
  const std::string text = training_set_to_csv(data).str();
  const TrainingSet back =
      training_set_from_csv(util::CsvDocument::parse_string_result(text).value())
          .value();
  EXPECT_EQ(back.size(), data.size());
  // Models fitted on both sides agree.
  const auto a = Trainer::fit_models(data, RegressionMethod::kOls);
  const auto b = Trainer::fit_models(back, RegressionMethod::kOls);
  const UtilVec probe{60, 120, 30, 600};
  EXPECT_NEAR(a.multi.predict(probe, 2).cpu, b.multi.predict(probe, 2).cpu,
              1e-9);
}

TEST(FitModels, SingleIsTheMultiModelBase) {
  // fit_models fits the single-VM model once, as Eq. (3)'s base; it
  // must serialize exactly like a direct fit on the one-VM rows.
  const TrainingSet data = synthetic_data(4);
  for (const RegressionMethod method :
       {RegressionMethod::kOls, RegressionMethod::kLms}) {
    const TrainedModels models = Trainer::fit_models(data, method, 77);
    TrainedModels direct = models;
    direct.single = SingleVmModel::fit(data.with_vm_count(1), method, 77);
    EXPECT_EQ(models_to_string(models), models_to_string(direct));
  }
}

TEST(TrainingSetCsv, MissingColumnRejected) {
  util::CsvDocument csv({"n_vms", "vm_cpu"});
  csv.add_row({1.0, 50.0});
  const util::Result<TrainingSet> r = training_set_from_csv(csv);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, util::Errc::kValidation);
  EXPECT_NE(r.error().message.find("'vm_mem'"), std::string::npos)
      << r.error().to_string();
}

TEST(TrainingSetCsv, NonFiniteCellRejected) {
  // Accepted, one nan cell fits to a models file that predict cannot
  // read back.
  const std::string header =
      "n_vms,vm_cpu,vm_mem,vm_io,vm_bw,pm_cpu,pm_mem,pm_io,pm_bw,dom0_cpu,"
      "hyp_cpu\n";
  for (const char* bad : {"nan", "inf", "-inf"}) {
    const std::string text = header + "1,10,100,5,50,30,800,20,60,17,3\n" +
                             "1,20,100,5,50," + bad + ",800,20,60,17,3\n";
    const util::Result<util::CsvDocument> csv =
        util::CsvDocument::parse_string_result(text);
    const util::Result<TrainingSet> r =
        csv.ok() ? training_set_from_csv(csv.value())
                 : util::Result<TrainingSet>(csv.error());
    ASSERT_FALSE(r.ok()) << "accepted pm_cpu " << bad;
    EXPECT_EQ(r.error().context, "row 3") << r.error().to_string();
    EXPECT_NE(r.error().message.find(bad), std::string::npos)
        << r.error().to_string();
  }
}

TEST(TrainingSetCsv, VmCountMustBeAPositiveInteger) {
  // n_vms comes from an external observation CSV: reject it before any
  // cast (nan and 1e20 would be undefined, 2.5 would truncate to 2).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {nan, 1e20, 2.5, 0.0, -1.0}) {
    util::CsvDocument csv = training_set_to_csv(synthetic_data(5));
    std::vector<double> row(csv.header().size(), 1.0);
    row[csv.column("n_vms")] = bad;
    csv.add_row(row);
    const util::Result<TrainingSet> r = training_set_from_csv(csv);
    ASSERT_FALSE(r.ok()) << "accepted n_vms " << bad;
    EXPECT_EQ(r.error().code, util::Errc::kValidation);
    EXPECT_EQ(r.error().context,
              "observation row " + std::to_string(csv.row_count()));
    EXPECT_NE(r.error().message.find("n_vms"), std::string::npos);
  }
}

class ModelSerialization : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    models_ = new TrainedModels(
        Trainer::fit_models(synthetic_data(3), RegressionMethod::kOls));
  }
  static void TearDownTestSuite() {
    delete models_;
    models_ = nullptr;
  }
  static TrainedModels* models_;
};

TrainedModels* ModelSerialization::models_ = nullptr;

TEST_F(ModelSerialization, RoundTripPreservesPredictions) {
  const std::string text = models_to_string(*models_);
  const TrainedModels back = models_from_string_result(text).value();
  ASSERT_TRUE(back.single.trained());
  ASSERT_TRUE(back.multi.trained());
  for (int n : {1, 2, 3, 4}) {
    const UtilVec probe{40.0 * n, 100.0 * n, 20.0 * n, 300.0 * n};
    const UtilVec a = models_->multi.predict(probe, n);
    const UtilVec b = back.multi.predict(probe, n);
    EXPECT_DOUBLE_EQ(a.cpu, b.cpu);
    EXPECT_DOUBLE_EQ(a.mem, b.mem);
    EXPECT_DOUBLE_EQ(a.io, b.io);
    EXPECT_DOUBLE_EQ(a.bw, b.bw);
    EXPECT_DOUBLE_EQ(models_->multi.predict_pm_cpu_indirect(probe, n),
                     back.multi.predict_pm_cpu_indirect(probe, n));
  }
}

TEST_F(ModelSerialization, RoundTripPreservesFitQuality) {
  const TrainedModels back =
      models_from_string_result(models_to_string(*models_)).value();
  const LinearFit& a = models_->single.fit_for(MetricIndex::kCpu);
  const LinearFit& b = back.single.fit_for(MetricIndex::kCpu);
  EXPECT_DOUBLE_EQ(a.residual_rms, b.residual_rms);
  EXPECT_DOUBLE_EQ(a.r_squared, b.r_squared);
}

TEST_F(ModelSerialization, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/voprof_models.txt";
  ASSERT_TRUE(save_models_file(*models_, path).ok());
  const TrainedModels back = load_models_file_result(path).value();
  const UtilVec probe{55, 150, 0, 1800};
  EXPECT_DOUBLE_EQ(models_->multi.predict(probe, 2).cpu,
                   back.multi.predict(probe, 2).cpu);
}

TEST_F(ModelSerialization, RejectsGarbage) {
  std::string truncated = models_to_string(*models_);
  truncated.resize(truncated.size() / 2);
  const std::vector<std::pair<std::string, util::Errc>> cases = {
      {"", util::Errc::kParse},
      {"not-a-model\n", util::Errc::kUnsupported},
      {truncated, util::Errc::kParse}};
  for (const auto& [text, code] : cases) {
    const util::Result<TrainedModels> r = models_from_string_result(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.error().code, code) << text;
  }
}

TEST_F(ModelSerialization, UntrainedModelsRejected) {
  TrainedModels empty;
  EXPECT_THROW((void)models_to_string(empty), util::ContractViolation);
}

TEST_F(ModelSerialization, MissingFileRejected) {
  const util::Result<TrainedModels> r =
      load_models_file_result("/nonexistent/voprof.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, util::Errc::kIo);
}

// ------------------------------------------------------- typed model
HeteroTrainingSet hetero_synthetic(std::uint64_t seed) {
  util::Rng rng(seed);
  HeteroTrainingSet data;
  const std::vector<std::vector<int>> mixes = {{1, 0}, {0, 1}, {1, 1},
                                               {2, 1}};
  for (const auto& mix : mixes) {
    for (int i = 0; i < 120; ++i) {
      HeteroRow r;
      UtilVec grand;
      int total = 0;
      double pm_cpu = 20.0;
      const char* names[] = {"A", "B"};
      const double slope[] = {1.2, 1.5};
      for (int t = 0; t < 2; ++t) {
        if (mix[static_cast<std::size_t>(t)] == 0) continue;
        const int n = mix[static_cast<std::size_t>(t)];
        TypeObservation obs;
        obs.count = n;
        obs.sum = UtilVec{rng.uniform(0, 100.0 * n), rng.uniform(80, 150.0 * n),
                          rng.uniform(0, 90.0 * n), rng.uniform(0, 600.0 * n)};
        pm_cpu += slope[t] * obs.sum.cpu + 0.01 * obs.sum.bw;
        grand += obs.sum;
        total += n;
        r.types[names[t]] = obs;
      }
      const double alpha = MultiVmModel::alpha(total);
      pm_cpu += alpha * 1.0;
      r.pm = UtilVec{pm_cpu, 752 + grand.mem, 18.8 + 2.05 * grand.io,
                     2.0 + grand.bw};
      r.dom0_cpu = 16.8 + 0.05 * grand.cpu;
      r.hyp_cpu = 3.0 + 0.03 * grand.cpu;
      data.add(std::move(r));
    }
  }
  return data;
}

TEST(HeteroSerialization, RoundTripPreservesPredictions) {
  const HeteroModel m =
      HeteroModel::fit(hetero_synthetic(7), RegressionMethod::kOls);
  const HeteroModel back =
      hetero_model_from_string_result(hetero_model_to_string(m)).value();
  ASSERT_TRUE(back.trained());
  EXPECT_EQ(back.types(), m.types());
  std::map<std::string, TypeObservation> probe;
  TypeObservation a;
  a.count = 2;
  a.sum = UtilVec{120, 200, 30, 400};
  probe["A"] = a;
  TypeObservation b;
  b.count = 1;
  b.sum = UtilVec{150, 110, 50, 100};
  probe["B"] = b;
  EXPECT_DOUBLE_EQ(m.predict(probe).cpu, back.predict(probe).cpu);
  EXPECT_DOUBLE_EQ(m.predict_pm_cpu_indirect(probe),
                   back.predict_pm_cpu_indirect(probe));
}

TEST(HeteroSerialization, RejectsGarbage) {
  EXPECT_EQ(hetero_model_from_string_result("").error().code,
            util::Errc::kParse);
  EXPECT_EQ(hetero_model_from_string_result("wrong-header\n").error().code,
            util::Errc::kUnsupported);
  const HeteroModel m =
      HeteroModel::fit(hetero_synthetic(8), RegressionMethod::kOls);
  const std::string text = hetero_model_to_string(m);
  // No types, then truncated mid-record: both malformed, neither throws.
  const std::string header = text.substr(0, text.find('\n') + 1);
  EXPECT_EQ(hetero_model_from_string_result(header + "types\n").error().code,
            util::Errc::kParse);
  EXPECT_EQ(hetero_model_from_string_result(text.substr(0, text.size() * 2 / 3))
                .error()
                .code,
            util::Errc::kParse);
  HeteroModel untrained;
  EXPECT_THROW((void)hetero_model_to_string(untrained),
               util::ContractViolation);
}

}  // namespace
}  // namespace voprof::model
