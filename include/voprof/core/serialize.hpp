#pragma once
/// \file serialize.hpp
/// Persistence for the measurement and modeling pipeline: training
/// sets round-trip through CSV (the natural shape of the paper's
/// per-second measurement logs), and fitted models through a small
/// versioned text format — so a model trained once on the simulated
/// testbed can be reused by tools without re-running the sweep, and
/// real traces can be imported for trace-driven fitting.

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

/// CSV -> TrainingSet. A missing column, or a row whose n_vms is not an
/// integer >= 1, is an Errc::kValidation error (the context names the
/// row, counting data rows from 1).
[[nodiscard]] util::Result<TrainingSet> training_set_from_csv(
    const util::CsvDocument& csv);

/// Serialize fitted models (coefficients + fit quality). Format:
/// versioned line-oriented text, stable across toolchains.
[[nodiscard]] std::string models_to_string(const TrainedModels& models);

/// Primary, non-throwing deserialization. Errors carry Errc::kParse
/// (malformed records), Errc::kUnsupported (unknown format version) or
/// Errc::kIo (unreadable file). The TrainingSet inside the returned
/// TrainedModels is empty (only coefficients are persisted).
[[nodiscard]] util::Result<TrainedModels> models_from_string_result(
    const std::string& text);
[[nodiscard]] util::Result<TrainedModels> load_models_file_result(
    const std::string& path);

/// File-path convenience; Errc::kIo when `path` cannot be written.
[[nodiscard]] util::Result<bool> save_models_file(const TrainedModels& models,
                                                  const std::string& path);

// --- Heterogeneous (typed) model -------------------------------------
[[nodiscard]] std::string hetero_model_to_string(const HeteroModel& model);
/// Same error vocabulary as models_from_string_result.
[[nodiscard]] util::Result<HeteroModel> hetero_model_from_string_result(
    const std::string& text);

}  // namespace voprof::model
