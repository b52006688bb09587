#include "voprof/core/serialize.hpp"

#include <optional>
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

/// Consume the first line: an error unless it is `header`.
std::optional<util::Error> header_error(std::istream& is, const char* header) {
  std::string line;
  if (!std::getline(is, line)) {
    return util::Error{util::Errc::kParse, "empty model file", "models:1"};
  }
  if (line == header) return std::nullopt;
  return util::Error{util::Errc::kUnsupported,
                     "unsupported model file header: '" + line + "'",
                     "models:1"};
}

util::Error malformed(std::string message) {
  return util::Error{util::Errc::kParse, std::move(message), "models"};
}

/// Read one `fit NAME coef... rms r2` record per entry of `names`, in
/// that order, each with `n_coef` coefficients.
util::Result<std::vector<LinearFit>> read_fits(
    std::istream& is, const std::vector<std::string>& names,
    std::size_t n_coef) {
  std::vector<LinearFit> fits(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::string tag, name;
    if (!(is >> tag >> name)) return malformed("truncated model file");
    if (tag != "fit") return malformed("expected a 'fit' record");
    if (name != names[i]) {
      return malformed("unexpected fit record: got '" + name + "', want '" +
                       names[i] + "'");
    }
    LinearFit& f = fits[i];
    f.coef.resize(n_coef);
    for (double& c : f.coef) is >> c;  // a failed read fails the rest
    if (!(is >> f.residual_rms >> f.r_squared)) {
      return malformed("truncated fit record " + name);
    }
  }
  return fits;
}

const std::array<std::string, kMetricCount> kMetricKeys = {"cpu", "mem",
                                                           "io", "bw"};

/// Record names in the order the writers emit them: the per-metric
/// fits under the prefix `metric`, then the Dom0 and hypervisor fits
/// under `cpu`.
std::vector<std::string> fit_names(const std::string& metric,
                                   const std::string& cpu) {
  return {metric + "cpu", metric + "mem", metric + "io", metric + "bw",
          cpu + "dom0_cpu", cpu + "hyp_cpu"};
}

/// The columns of an observation CSV, in TrainingRow order.
const std::array<const char*, 11> kObservationColumns = {
    "n_vms",  "vm_cpu", "vm_mem", "vm_io",    "vm_bw",  "pm_cpu",
    "pm_mem", "pm_io",  "pm_bw",  "dom0_cpu", "hyp_cpu"};

}  // namespace

util::CsvDocument training_set_to_csv(const TrainingSet& data) {
  util::CsvDocument csv(std::vector<std::string>(kObservationColumns.begin(),
                                                kObservationColumns.end()));
  for (const TrainingRow& r : data.rows()) {
    csv.add_row({static_cast<double>(r.n_vms), r.vm_sum.cpu, r.vm_sum.mem,
                 r.vm_sum.io, r.vm_sum.bw, r.pm.cpu, r.pm.mem, r.pm.io,
                 r.pm.bw, r.dom0_cpu, r.hyp_cpu});
  }
  return csv;
}

util::Result<TrainingSet> training_set_from_csv(
    const util::CsvDocument& csv) {
  std::array<std::size_t, kObservationColumns.size()> col{};
  for (std::size_t c = 0; c < col.size(); ++c) {
    if (!csv.has_column(kObservationColumns[c])) {
      return util::Error{util::Errc::kValidation,
                         std::string("observation CSV has no column '") +
                             kObservationColumns[c] + "'",
                         "header"};
    }
    col[c] = csv.column(kObservationColumns[c]);
  }
  TrainingSet data;
  for (std::size_t i = 0; i < csv.row_count(); ++i) {
    const auto at = [&](std::size_t c) { return csv.at(i, col[c]); };
    TrainingRow r;
    if (!util::exact_int(at(0), r.n_vms) || r.n_vms < 1) {
      return util::Error{util::Errc::kValidation,
                         "n_vms must be an integer >= 1, got " +
                             util::format_double(at(0)),
                         "observation row " + std::to_string(i + 1)};
    }
    r.vm_sum = UtilVec{at(1), at(2), at(3), at(4)};
    r.pm = UtilVec{at(5), at(6), at(7), at(8)};
    r.dom0_cpu = at(9);
    r.hyp_cpu = at(10);
    data.add(std::move(r));
  }
  return data;
}

std::string models_to_string(const TrainedModels& models) {
  VOPROF_REQUIRE_MSG(models.single.trained() && models.multi.trained(),
                     "cannot serialize untrained models");
  std::ostringstream os;
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
  return os.str();
}

util::Result<TrainedModels> models_from_string_result(
    const std::string& text) {
  std::istringstream is(text);
  if (auto err = header_error(is, kFormatHeader)) return *err;
  std::vector<std::string> names = fit_names("single.", "single.");
  for (std::string& n : fit_names("multi.o.", "multi.o.")) names.push_back(n);
  util::Result<std::vector<LinearFit>> fits =
      read_fits(is, names, kMetricCount + 1);
  if (!fits.ok()) return fits.error();
  const std::vector<LinearFit>& f = fits.value();
  TrainedModels out;
  out.single = SingleVmModel::from_fits({f[0], f[1], f[2], f[3]}, f[4], f[5]);
  out.multi = MultiVmModel::from_parts(out.single, {f[6], f[7], f[8], f[9]},
                                       f[10], f[11]);
  return out;
}

util::Result<TrainedModels> load_models_file_result(const std::string& path) {
  return util::load_file_result(path, models_from_string_result);
}

util::Result<bool> save_models_file(const TrainedModels& models,
                                    const std::string& path) {
  return util::write_file_result(path, models_to_string(models));
}

// -------------------------------------------------------- typed model
std::string hetero_model_to_string(const HeteroModel& model) {
  VOPROF_REQUIRE_MSG(model.trained(),
                     "cannot serialize an untrained typed model");
  std::ostringstream os;
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
  return os.str();
}

util::Result<HeteroModel> hetero_model_from_string_result(
    const std::string& text) {
  std::istringstream is(text);
  if (auto err = header_error(is, kHeteroHeader)) return *err;
  std::string types_line, tag;
  std::getline(is, types_line);
  std::istringstream ts(types_line);
  std::vector<std::string> types;
  if (ts >> tag && tag == "types") {
    for (std::string t; ts >> t;) types.push_back(t);
  }
  if (types.empty()) {
    return util::Error{util::Errc::kParse,
                       "expected a 'types' line naming at least one type",
                       "models:2"};
  }
  const std::size_t n_coef = types.size() * kMetricCount + kMetricCount + 2;
  util::Result<std::vector<LinearFit>> fits =
      read_fits(is, fit_names("pm.", ""), n_coef);
  if (!fits.ok()) return fits.error();
  const std::vector<LinearFit>& f = fits.value();
  return HeteroModel::from_parts(std::move(types), {f[0], f[1], f[2], f[3]},
                                 f[4], f[5]);
}

}  // namespace voprof::model
