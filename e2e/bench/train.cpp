/// \file train.cpp
/// The `train` workload: the paper's Sec. VI-A pipeline. Table II x
/// {1,2,4} VMs with 120 s cells, then an LMS fit, at jobs = nproc:
/// Trainer::collect() followed by Trainer::fit_models(), which is what
/// Trainer::train() does. Every training is checked against
/// Trainer::train() at jobs = 1.

#include <optional>
#include <string>
#include <vector>

#include "layers.hpp"
#include "report.hpp"
#include "voprof/core/serialize.hpp"
#include "voprof/core/trainer.hpp"
#include "voprof/util/task_pool.hpp"

namespace voprof::e2e {
namespace {

constexpr auto kMethod = model::RegressionMethod::kLms;

struct Training {
  double collect_s = 0.0;
  double fit_s = 0.0;
  std::size_t rows = 0;
  bool matches = false;  ///< models and data equal the jobs=1 reference
  [[nodiscard]] double total_s() const { return collect_s + fit_s; }
};

std::string fingerprint(const model::TrainedModels& m) {
  return model::models_to_string(m) + model::training_set_to_csv(m.data).str();
}

/// One collect + fit_models, compared with `reference` (the
/// fingerprint of Trainer::train at jobs = 1).
Training train_once(const model::Trainer& trainer,
                    const std::string& reference) {
  Training t;
  model::TrainingSet data;
  t.collect_s = timed_call("core", "collect", [&] { data = trainer.collect(); });
  t.rows = data.size();
  std::optional<model::TrainedModels> models;
  t.fit_s = timed_call("core", "fit_models", [&] {
    models.emplace(model::Trainer::fit_models(std::move(data), kMethod,
                                              trainer.config().seed));
  });
  t.matches = fingerprint(*models) == reference;
  return t;
}

/// Train until `seconds` have passed (at least `min_count` times).
std::vector<Training> train_for(const model::Trainer& trainer,
                                const std::string& reference, double seconds,
                                std::size_t min_count) {
  std::vector<Training> out;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (out.size() < min_count || now_ns() < end) {
    out.push_back(train_once(trainer, reference));
  }
  return out;
}

std::vector<double> column(const std::vector<Training>& ts,
                           double (*get)(const Training&)) {
  std::vector<double> out;
  for (const Training& t : ts) out.push_back(get(t));
  return out;
}

double total_of(const Training& t) { return t.total_s(); }
double collect_of(const Training& t) { return t.collect_s; }
double fit_of(const Training& t) { return t.fit_s; }

}  // namespace

Report run_train(const RunConfig& cfg) {
  Report rep;
  const int jobs = static_cast<int>(util::TaskPool::default_jobs());
  model::TrainerConfig tc;
  tc.seed = cfg.seed;
  tc.jobs = jobs;
  if (cfg.smoke) tc.duration = util::seconds(10.0);
  const model::Trainer trainer(tc);
  const std::size_t min_count = cfg.smoke ? 1 : 3;

  // Set-up, several times: construct a Trainer and train once. The
  // first is cold (thread pool, first-touch memory) and runs before the
  // jobs = 1 reference warms anything up.
  std::vector<double> setups;
  std::vector<std::string> setup_results;
  for (int k = 0; k < (cfg.smoke ? 1 : 3); ++k) {
    const std::int64_t t0 = now_ns();
    const model::Trainer fresh(tc);
    setup_results.push_back(fingerprint(
        model::Trainer::fit_models(fresh.collect(), kMethod, tc.seed)));
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  model::TrainerConfig serial = tc;
  serial.jobs = 1;
  std::string reference;
  const double serial_s = timed_call("core", "train_jobs1", [&] {
    reference = fingerprint(model::Trainer(serial).train(kMethod));
  });

  const double measure_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const Counters before = read_counters();
  const std::vector<Training> plain =
      train_for(trainer, reference, measure_s, min_count);
  const Counters after = read_counters();

  std::vector<Training> traced;
  Traced tr;
  if (cfg.trace) {
    tr = run_traced(rep,
                    cfg.work_dir + "/trace-train-" + std::to_string(cfg.seed) +
                        ".json",
                    [&] {
                      traced = train_for(trainer, reference, measure_s,
                                         min_count);
                    });
  }

  std::size_t mismatches = 0;
  for (const std::string& r : setup_results) mismatches += r != reference;
  for (const Training& t : plain) mismatches += !t.matches;
  for (const Training& t : traced) mismatches += !t.matches;
  rep.attempted = setups.size() + plain.size() + traced.size();
  rep.failed = mismatches;
  rep.mismatch = mismatches > 0;

  const double train_s = median_of(column(plain, total_of));
  rep.heading("train: collect + fit_models (LMS), jobs=" +
              std::to_string(jobs) + ", untraced");
  rep.row("train_s", train_s, "s", "median, n=" + std::to_string(plain.size()));
  rep.row("collect_s", median_of(column(plain, collect_of)), "s");
  rep.row("fit_s", median_of(column(plain, fit_of)), "s");
  rep.row("train_jobs1_s", serial_s, "s", "Trainer::train at jobs=1, n=1");
  EndToEnd e;
  e.setup_s = median_of(setups);
  e.setup_is = "new Trainer + one training, median of " +
               std::to_string(setups.size()) + ", the first cold";
  e.peak_rss_mib = peak_rss_mib("self");
  e.rss_of = "driver process";
  e.op_p50_ms = train_s * 1e3;
  e.op_is = "one training";
  e.work_per_s = static_cast<double>(plain.front().rows) / train_s;
  e.work_is = "training rows per second, median training";
  put_end_to_end(rep, e, !cfg.trace);
  if (!cfg.trace) return rep;

  const double traced_events = delta(tr.before, tr.after, "engine.events_fired");
  const double sim_span_us = span_total(tr.spans, "trainer", "collect_run").us;
  std::map<std::string, double> layer;
  counter_layers(layer, before, after, static_cast<double>(plain.size()),
                 train_s, jobs);
  layer["core.fit_s"] = median_of(column(plain, fit_of));
  layer["core.collect_s"] = median_of(column(plain, collect_of));
  layer["core.rows"] = static_cast<double>(plain.front().rows);
  layer["xensim.ns_per_event"] =
      traced_events > 0 ? sim_span_us * 1e3 / traced_events : 0.0;
  layer["runner.scaling"] = serial_s / train_s;
  layer["obs.trace_overhead"] = median_of(column(traced, total_of)) / train_s;
  layer["obs.unattributed_share"] = tr.unattributed_share();
  put_per_layer(rep, layer);
  return rep;
}

}  // namespace voprof::e2e
