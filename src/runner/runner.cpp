#include "voprof/runner/runner.hpp"

#include <array>
#include <string>
#include <utility>

#include "voprof/util/assert.hpp"
#include "voprof/util/stats.hpp"

namespace voprof::runner {

util::FlagSpec jobs_flag() {
  return {"jobs", util::FlagSpec::Kind::kInteger,
          util::FlagSpec::Bound::kNonNegative};
}

RunOptions options_from_cli(const util::CliArgs& args) {
  return RunOptions{args.get_int("jobs", 0)};
}

namespace {

/// Streaming stats of one sweep cell, one entry per CSV value column.
constexpr std::size_t kSweepMetrics = 10;  // vm x4, pm x4, dom0, hyp

struct CellSummary {
  int n_vms = 0;
  double kind = 0.0;
  double level = 0.0;
  double input = 0.0;
  std::array<util::RunningStats, kSweepMetrics> stats;
};

CellSummary summarize_cell(const model::TrainingSet& rows) {
  CellSummary out;
  for (const model::TrainingRow& r : rows.rows()) {
    out.stats[0].add(r.vm_sum.cpu);
    out.stats[1].add(r.vm_sum.mem);
    out.stats[2].add(r.vm_sum.io);
    out.stats[3].add(r.vm_sum.bw);
    out.stats[4].add(r.pm.cpu);
    out.stats[5].add(r.pm.mem);
    out.stats[6].add(r.pm.io);
    out.stats[7].add(r.pm.bw);
    out.stats[8].add(r.dom0_cpu);
    out.stats[9].add(r.hyp_cpu);
  }
  return out;
}

std::vector<double> summary_to_row(const CellSummary& c) {
  std::vector<double> row = {static_cast<double>(c.n_vms), c.kind, c.level,
                             c.input,
                             static_cast<double>(c.stats[0].count())};
  for (const util::RunningStats& s : c.stats) row.push_back(s.mean());
  row.push_back(c.stats[4].stddev());  // pm_cpu spread
  row.push_back(c.stats[8].stddev());  // dom0_cpu spread
  return row;
}

}  // namespace

util::CsvDocument run_micro_sweep(const MicroSweepConfig& config,
                                  const RunOptions& opts) {
  VOPROF_WALL_SPAN("runner", "run_micro_sweep");
  VOPROF_REQUIRE_MSG(!config.vm_counts.empty(), "sweep needs vm_counts");
  VOPROF_REQUIRE_MSG(!config.kinds.empty(), "sweep needs workload kinds");
  VOPROF_REQUIRE_MSG(config.levels >= 1 && config.levels <= wl::kLevelCount,
                     "sweep levels out of range");

  struct Cell {
    int n_vms;
    wl::WorkloadKind kind;
    std::size_t level;
  };
  std::vector<Cell> cells;
  for (int n : config.vm_counts) {
    for (wl::WorkloadKind kind : config.kinds) {
      for (std::size_t level = 0; level < config.levels; ++level) {
        cells.push_back(Cell{n, kind, level});
      }
    }
  }

  SweepRunner runner(opts);
  const std::vector<CellSummary> summaries =
      runner.map(cells.size(), [&config, &cells](std::size_t i) {
        const Cell& cell = cells[i];
        model::TrainerConfig tc;
        tc.duration = config.duration;
        tc.seed = seed_for(config.base_seed, i);
        tc.machine = config.machine;
        tc.vm = config.vm;
        tc.costs = config.costs;
        const model::Trainer trainer(tc);
        CellSummary s =
            summarize_cell(trainer.collect_run(cell.kind, cell.level,
                                               cell.n_vms));
        s.n_vms = cell.n_vms;
        s.kind = static_cast<double>(cell.kind);
        s.level = static_cast<double>(cell.level);
        s.input = wl::level_value(cell.kind, cell.level);
        return s;
      });

  util::CsvDocument doc({"n_vms", "kind", "level", "input", "samples",
                         "vm_cpu", "vm_mem", "vm_io", "vm_bw", "pm_cpu",
                         "pm_mem", "pm_io", "pm_bw", "dom0_cpu", "hyp_cpu",
                         "pm_cpu_sd", "dom0_cpu_sd"});
  for (const CellSummary& s : summaries) doc.add_row(summary_to_row(s));

  // Cross-cell aggregation runs through RunningStats::merge in cell
  // order — the exact reduction a serial sweep performs, so the
  // summary row is jobs-independent too.
  CellSummary all;
  all.kind = -1.0;
  all.level = -1.0;
  for (const CellSummary& s : summaries) {
    for (std::size_t m = 0; m < kSweepMetrics; ++m) {
      all.stats[m].merge(s.stats[m]);
    }
  }
  doc.add_row(summary_to_row(all));
  return doc;
}

const model::TrainedModels& ModelCache::get(model::RegressionMethod method,
                                            util::SimMicros duration,
                                            std::uint64_t seed, int jobs) {
  const Key key{static_cast<int>(method), duration, seed};
  static obs::Counter& hits =
      obs::Registry::global().counter("runner.model_cache_hits");
  static obs::Counter& misses =
      obs::Registry::global().counter("runner.model_cache_misses");
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    hits.add();
  }
  if (it == cache_.end()) {
    misses.add();
    VOPROF_WALL_SPAN("runner", "ModelCache.train");
    model::TrainerConfig cfg;
    cfg.duration = duration;
    cfg.seed = seed;
    cfg.jobs = jobs;
    const model::Trainer trainer(cfg);
    it = cache_
             .emplace(key, std::make_unique<const model::TrainedModels>(
                               trainer.train(method)))
             .first;
    ++trainings_;
  }
  return *it->second;
}

std::size_t ModelCache::trainings() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return trainings_;
}

ModelCache& model_cache() {
  static ModelCache cache;
  return cache;
}

}  // namespace voprof::runner
