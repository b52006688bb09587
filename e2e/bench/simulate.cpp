/// \file simulate.cpp
/// The `simulate` workload: the four shipped scenarios, each through
/// run_scenario_replicated with a fixed replication count at jobs =
/// nproc, the benchmark's seed overriding each spec's seed. Every
/// result is checked against a jobs = 1 run of the same spec.

#include <array>
#include <string>
#include <vector>

#include "layers.hpp"
#include "report.hpp"
#include "voprof/scenario/scenario.hpp"
#include "voprof/serve/service.hpp"
#include "voprof/util/rng.hpp"
#include "voprof/util/task_pool.hpp"

namespace voprof::e2e {
namespace {

constexpr std::array<const char*, 4> kScenarios = {
    "noisy_neighbour", "trace_replay", "intra_pm_traffic",
    "single_vm_cpu_sweep"};

/// One run over the scenario set: per-scenario wall and serialized
/// result (the voprof-api-1 `simulate` result object).
struct Pass {
  std::array<double, kScenarios.size()> wall_s{};
  std::array<std::string, kScenarios.size()> result;
  std::size_t mismatches = 0;  ///< results differing from the reference
  [[nodiscard]] double total_s() const {
    double t = 0.0;
    for (double w : wall_s) t += w;
    return t;
  }
};

/// Run the set; compare with `reference` unless it is null.
Pass run_pass(const std::vector<scenario::ScenarioSpec>& specs,
              std::size_t replications, int jobs, const Pass* reference) {
  Pass p;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    scenario::ReplicatedScenarioResult result;
    p.wall_s[i] = timed_call("scenario", kScenarios[i], [&] {
      result = scenario::run_scenario_replicated(specs[i], replications, jobs);
    });
    p.result[i] = serve::simulate_result_json(result).dump(0);
    if (reference != nullptr && p.result[i] != reference->result[i]) {
      ++p.mismatches;
    }
  }
  if (reference != nullptr) p.result = {};
  return p;
}

std::vector<Pass> run_for(const std::vector<scenario::ScenarioSpec>& specs,
                          std::size_t replications, int jobs,
                          const Pass& reference, double seconds,
                          std::size_t min_count) {
  std::vector<Pass> out;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (out.size() < min_count || now_ns() < end) {
    out.push_back(run_pass(specs, replications, jobs, &reference));
  }
  return out;
}

}  // namespace

std::uint64_t scenario_seed(std::uint64_t seed, std::uint64_t index) {
  return util::seed_for(seed, index) % 1'000'000'007ULL;
}

Report run_simulate(const RunConfig& cfg) {
  Report rep;
  const int jobs = static_cast<int>(util::TaskPool::default_jobs());
  const std::size_t replications = cfg.smoke ? 2 : 16;
  const std::size_t min_count = cfg.smoke ? 1 : 3;

  // Set-up, several times: load the specs and run the set once. The
  // first is cold.
  std::vector<scenario::ScenarioSpec> specs;
  std::vector<double> setups;
  std::vector<Pass> setup_passes;
  for (int k = 0; k < (cfg.smoke ? 1 : 3); ++k) {
    const std::int64_t t0 = now_ns();
    specs.clear();
    for (std::size_t i = 0; i < kScenarios.size(); ++i) {
      specs.push_back(scenario::ScenarioSpec::load(
          cfg.scenarios_dir + "/" + kScenarios[i] + ".conf"));
      specs.back().seed = scenario_seed(cfg.seed, i);
    }
    setup_passes.push_back(run_pass(specs, replications, jobs, nullptr));
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const Pass reference = run_pass(specs, replications, 1, nullptr);

  double sim_s_per_pass = 0.0;
  for (const auto& s : specs) {
    sim_s_per_pass +=
        (s.warmup_s + s.duration_s) * static_cast<double>(replications);
  }

  const double measure_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const Counters before = read_counters();
  const std::vector<Pass> plain =
      run_for(specs, replications, jobs, reference, measure_s, min_count);
  const Counters after = read_counters();

  std::vector<Pass> traced;
  Traced tr;
  if (cfg.trace) {
    tr = run_traced(rep,
                    cfg.work_dir + "/trace-simulate-" +
                        std::to_string(cfg.seed) + ".json",
                    [&] {
                      traced = run_for(specs, replications, jobs, reference,
                                       measure_s, min_count);
                    });
  }

  std::size_t mismatches = 0;
  for (const Pass& p : setup_passes) {
    for (std::size_t i = 0; i < kScenarios.size(); ++i) {
      mismatches += p.result[i] != reference.result[i];
    }
  }
  for (const Pass& p : plain) mismatches += p.mismatches;
  for (const Pass& p : traced) mismatches += p.mismatches;
  rep.attempted = kScenarios.size() *
                  (setup_passes.size() + plain.size() + traced.size());
  rep.failed = mismatches;
  rep.mismatch = mismatches > 0;

  std::vector<double> pass_s;
  for (const Pass& p : plain) pass_s.push_back(p.total_s());
  const double pass_median = median_of(pass_s);
  const double sim_per_wall = sim_s_per_pass / pass_median;
  rep.heading("simulate: 4 scenarios x " + std::to_string(replications) +
              " replications, jobs=" + std::to_string(jobs) + ", untraced");
  rep.row("sim_s_per_wall_s", sim_per_wall, "s/s",
          "median pass, n=" + std::to_string(plain.size()));
  std::map<std::string, double> layer;
  for (std::size_t i = 0; i < kScenarios.size(); ++i) {
    std::vector<double> w;
    for (const Pass& p : plain) w.push_back(p.wall_s[i]);
    const std::string name = std::string("scenario.") + kScenarios[i] + "_s";
    layer[name] = median_of(w);
    rep.row(name, layer[name], "s", "median");
  }
  rep.row("pass_jobs1_s", reference.total_s(), "s", "jobs=1 pass, n=1");
  EndToEnd e;
  e.setup_s = median_of(setups);
  e.setup_is = "load specs + one pass, median of " +
               std::to_string(setups.size()) + ", the first cold";
  e.peak_rss_mib = peak_rss_mib("self");
  e.rss_of = "driver process";
  e.op_p50_ms = pass_median * 1e3;
  e.op_is = "one pass over the scenario set";
  e.work_per_s = sim_per_wall;
  e.work_is = "simulated seconds per second, median pass";
  put_end_to_end(rep, e, !cfg.trace);
  if (!cfg.trace) return rep;

  const double traced_events = delta(tr.before, tr.after, "engine.events_fired");
  std::vector<double> traced_s;
  for (const Pass& p : traced) traced_s.push_back(p.total_s());
  counter_layers(layer, before, after, static_cast<double>(plain.size()),
                 pass_median, jobs);
  layer["xensim.ns_per_event"] =
      traced_events > 0
          ? span_total(tr.spans, "scenario", "run_scenario").us * 1e3 /
                traced_events
          : 0.0;
  layer["runner.scaling"] = reference.total_s() / pass_median;
  layer["obs.trace_overhead"] = median_of(traced_s) / pass_median;
  layer["obs.unattributed_share"] = tr.unattributed_share();
  put_per_layer(rep, layer);
  return rep;
}

}  // namespace voprof::e2e
