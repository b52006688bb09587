#include "voprof/core/serialize.hpp"

#include <fstream>
#include <sstream>

#include "voprof/util/assert.hpp"
#include "voprof/util/numeric.hpp"

namespace voprof::model {

namespace {

constexpr const char* kFormatHeader = "voprof-models v1";
constexpr const char* kHeteroHeader = "voprof-hetero-model v1";

void write_fit(std::ostream& os, const std::string& name,
               const LinearFit& f) {
  os << "fit " << name;
  os.precision(17);
  for (double c : f.coef) os << ' ' << c;
  os << ' ' << f.residual_rms << ' ' << f.r_squared << '\n';
}

LinearFit read_fit_n(std::istream& is, const std::string& expected_name,
                     std::size_t n_coef) {
  std::string tag, name;
  VOPROF_REQUIRE_MSG(static_cast<bool>(is >> tag >> name),
                     "truncated model file");
  VOPROF_REQUIRE_MSG(tag == "fit", "expected a 'fit' record");
  VOPROF_REQUIRE_MSG(name == expected_name,
                     "unexpected fit record: got '" + name + "', want '" +
                         expected_name + "'");
  LinearFit f;
  f.coef.resize(n_coef);
  for (double& c : f.coef) {
    VOPROF_REQUIRE_MSG(static_cast<bool>(is >> c), "truncated fit record");
  }
  VOPROF_REQUIRE(static_cast<bool>(is >> f.residual_rms >> f.r_squared));
  return f;
}

LinearFit read_fit(std::istream& is, const std::string& expected_name) {
  return read_fit_n(is, expected_name, kMetricCount + 1);
}

const std::array<std::string, kMetricCount> kMetricKeys = {"cpu", "mem",
                                                           "io", "bw"};

}  // namespace

util::CsvDocument training_set_to_csv(const TrainingSet& data) {
  util::CsvDocument csv({"n_vms", "vm_cpu", "vm_mem", "vm_io", "vm_bw",
                         "pm_cpu", "pm_mem", "pm_io", "pm_bw", "dom0_cpu",
                         "hyp_cpu"});
  for (const TrainingRow& r : data.rows()) {
    csv.add_row({static_cast<double>(r.n_vms), r.vm_sum.cpu, r.vm_sum.mem,
                 r.vm_sum.io, r.vm_sum.bw, r.pm.cpu, r.pm.mem, r.pm.io,
                 r.pm.bw, r.dom0_cpu, r.hyp_cpu});
  }
  return csv;
}

TrainingSet training_set_from_csv(const util::CsvDocument& csv) {
  TrainingSet data;
  for (std::size_t i = 0; i < csv.row_count(); ++i) {
    TrainingRow r;
    const double n_vms = csv.at(i, "n_vms");
    VOPROF_REQUIRE_MSG(util::exact_int(n_vms, r.n_vms) && r.n_vms >= 1,
                       "observation row " + std::to_string(i + 1) +
                           ": n_vms must be an integer >= 1, got " +
                           util::format_double(n_vms));
    r.vm_sum = UtilVec{csv.at(i, "vm_cpu"), csv.at(i, "vm_mem"),
                       csv.at(i, "vm_io"), csv.at(i, "vm_bw")};
    r.pm = UtilVec{csv.at(i, "pm_cpu"), csv.at(i, "pm_mem"),
                   csv.at(i, "pm_io"), csv.at(i, "pm_bw")};
    r.dom0_cpu = csv.at(i, "dom0_cpu");
    r.hyp_cpu = csv.at(i, "hyp_cpu");
    data.add(std::move(r));
  }
  return data;
}

void save_models(const TrainedModels& models, std::ostream& os) {
  VOPROF_REQUIRE_MSG(models.single.trained() && models.multi.trained(),
                     "cannot serialize untrained models");
  os << kFormatHeader << '\n';
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    write_fit(os, "single." + kMetricKeys[m],
              models.single.fit_for(static_cast<MetricIndex>(m)));
  }
  write_fit(os, "single.dom0_cpu", models.single.dom0_cpu_fit());
  write_fit(os, "single.hyp_cpu", models.single.hyp_cpu_fit());
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    write_fit(os, "multi.o." + kMetricKeys[m],
              models.multi.overhead_for(static_cast<MetricIndex>(m)));
  }
  write_fit(os, "multi.o.dom0_cpu", models.multi.dom0_overhead_fit());
  write_fit(os, "multi.o.hyp_cpu", models.multi.hyp_overhead_fit());
}

std::string models_to_string(const TrainedModels& models) {
  std::ostringstream os;
  save_models(models, os);
  return os.str();
}

util::Result<TrainedModels> load_models_result(std::istream& is) {
  std::string header;
  if (!std::getline(is, header)) {
    return util::Error{util::Errc::kParse, "empty model file", "models:1"};
  }
  if (header != kFormatHeader) {
    return util::Error{util::Errc::kUnsupported,
                       "unsupported model file header: '" + header + "'",
                       "models:1"};
  }
  // The record readers report malformed input through ContractViolation
  // (they predate Result); fold those into the single error surface.
  try {
    std::array<LinearFit, kMetricCount> single_fits;
    for (std::size_t m = 0; m < kMetricCount; ++m) {
      single_fits[m] = read_fit(is, "single." + kMetricKeys[m]);
    }
    LinearFit dom0 = read_fit(is, "single.dom0_cpu");
    LinearFit hyp = read_fit(is, "single.hyp_cpu");
    std::array<LinearFit, kMetricCount> overhead;
    for (std::size_t m = 0; m < kMetricCount; ++m) {
      overhead[m] = read_fit(is, "multi.o." + kMetricKeys[m]);
    }
    LinearFit dom0_o = read_fit(is, "multi.o.dom0_cpu");
    LinearFit hyp_o = read_fit(is, "multi.o.hyp_cpu");

    TrainedModels out;
    out.single = SingleVmModel::from_fits(single_fits, dom0, hyp);
    out.multi = MultiVmModel::from_parts(out.single, std::move(overhead),
                                         std::move(dom0_o), std::move(hyp_o));
    return out;
  } catch (const util::ContractViolation& e) {
    return util::Error{util::Errc::kParse, e.what(), "models"};
  }
}

util::Result<TrainedModels> models_from_string_result(
    const std::string& text) {
  std::istringstream is(text);
  return load_models_result(is);
}

util::Result<TrainedModels> load_models_file_result(const std::string& path) {
  std::ifstream f(path);
  if (!f.good()) {
    return util::Error{util::Errc::kIo, "cannot open model file for reading",
                       path};
  }
  util::Result<TrainedModels> parsed = load_models_result(f);
  if (!parsed.ok()) {
    util::Error err = parsed.error();
    err.context = path + " (" + err.context + ")";
    return err;
  }
  return parsed;
}

void save_models_file(const TrainedModels& models, const std::string& path) {
  std::ofstream f(path);
  VOPROF_REQUIRE_MSG(f.good(), "cannot open model file for writing: " + path);
  save_models(models, f);
}

// -------------------------------------------------------- typed model
void save_hetero_model(const HeteroModel& model, std::ostream& os) {
  VOPROF_REQUIRE_MSG(model.trained(),
                     "cannot serialize an untrained typed model");
  os << kHeteroHeader << '\n';
  os << "types";
  for (const auto& t : model.types()) os << ' ' << t;
  os << '\n';
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    write_fit(os, "pm." + kMetricKeys[m],
              model.fit_for(static_cast<MetricIndex>(m)));
  }
  write_fit(os, "dom0_cpu", model.dom0_fit());
  write_fit(os, "hyp_cpu", model.hyp_fit());
}

std::string hetero_model_to_string(const HeteroModel& model) {
  std::ostringstream os;
  save_hetero_model(model, os);
  return os.str();
}

HeteroModel load_hetero_model(std::istream& is) {
  std::string header;
  VOPROF_REQUIRE_MSG(static_cast<bool>(std::getline(is, header)),
                     "empty typed-model file");
  VOPROF_REQUIRE_MSG(header == kHeteroHeader,
                     "unsupported typed-model header: '" + header + "'");
  std::string types_line;
  VOPROF_REQUIRE_MSG(static_cast<bool>(std::getline(is, types_line)),
                     "missing types line");
  std::istringstream ts(types_line);
  std::string tag;
  VOPROF_REQUIRE(static_cast<bool>(ts >> tag) && tag == "types");
  std::vector<std::string> types;
  std::string t;
  while (ts >> t) types.push_back(t);
  VOPROF_REQUIRE_MSG(!types.empty(), "typed model has no types");
  const std::size_t n_coef = types.size() * kMetricCount + kMetricCount + 2;
  std::array<LinearFit, kMetricCount> pm_fits;
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    pm_fits[m] = read_fit_n(is, "pm." + kMetricKeys[m], n_coef);
  }
  LinearFit dom0 = read_fit_n(is, "dom0_cpu", n_coef);
  LinearFit hyp = read_fit_n(is, "hyp_cpu", n_coef);
  return HeteroModel::from_parts(std::move(types), std::move(pm_fits),
                                 std::move(dom0), std::move(hyp));
}

HeteroModel hetero_model_from_string(const std::string& text) {
  std::istringstream is(text);
  return load_hetero_model(is);
}

}  // namespace voprof::model
