#pragma once
/// \file serialize.hpp
/// Persistence for the measurement and modeling pipeline: training
/// sets round-trip through CSV (the natural shape of the paper's
/// per-second measurement logs), and fitted models through a small
/// versioned text format — so a model trained once on the simulated
/// testbed can be reused by tools without re-running the sweep, and
/// real traces can be imported for trace-driven fitting.

#include <iosfwd>
#include <string>

#include "voprof/core/hetero_model.hpp"
#include "voprof/core/overhead_model.hpp"
#include "voprof/core/trainer.hpp"
#include "voprof/util/csv.hpp"
#include "voprof/util/result.hpp"

namespace voprof::model {

/// TrainingSet -> CSV (columns: n_vms, vm_{cpu,mem,io,bw},
/// pm_{cpu,mem,io,bw}, dom0_cpu, hyp_cpu).
[[nodiscard]] util::CsvDocument training_set_to_csv(const TrainingSet& data);

/// CSV -> TrainingSet. Throws ContractViolation on missing columns and
/// on a row whose n_vms is not an integer >= 1 (the message names the
/// row, counting data rows from 1).
[[nodiscard]] TrainingSet training_set_from_csv(const util::CsvDocument& csv);

/// Serialize fitted models (coefficients + fit quality). Format:
/// versioned line-oriented text, stable across toolchains.
void save_models(const TrainedModels& models, std::ostream& os);
[[nodiscard]] std::string models_to_string(const TrainedModels& models);

/// Primary, non-throwing deserialization. Errors carry Errc::kParse
/// (malformed records), Errc::kUnsupported (unknown format version) or
/// Errc::kIo (unreadable file). The TrainingSet inside the returned
/// TrainedModels is empty (only coefficients are persisted).
[[nodiscard]] util::Result<TrainedModels> load_models_result(
    std::istream& is);
[[nodiscard]] util::Result<TrainedModels> models_from_string_result(
    const std::string& text);
[[nodiscard]] util::Result<TrainedModels> load_models_file_result(
    const std::string& path);

/// File-path convenience.
void save_models_file(const TrainedModels& models, const std::string& path);

// --- Heterogeneous (typed) model -------------------------------------
void save_hetero_model(const HeteroModel& model, std::ostream& os);
[[nodiscard]] std::string hetero_model_to_string(const HeteroModel& model);
[[nodiscard]] HeteroModel load_hetero_model(std::istream& is);
[[nodiscard]] HeteroModel hetero_model_from_string(const std::string& text);

}  // namespace voprof::model
