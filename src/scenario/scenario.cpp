#include "voprof/scenario/scenario.hpp"

#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "voprof/obs/metrics.hpp"
#include "voprof/obs/trace.hpp"
#include "voprof/runner/runner.hpp"
#include "voprof/util/assert.hpp"
#include "voprof/util/numeric.hpp"
#include "voprof/util/rng.hpp"
#include "voprof/util/table.hpp"
#include "voprof/util/task_pool.hpp"
#include "voprof/util/csv.hpp"
#include "voprof/workloads/hogs.hpp"
#include "voprof/workloads/trace.hpp"
#include "voprof/xensim/engine.hpp"

namespace voprof::scenario {

util::Result<ScenarioSpec> ScenarioSpec::parse_result(
    const std::string& text) {
  util::Result<util::IniDocument> parsed = util::IniDocument::parse_result(text);
  if (!parsed.ok()) return parsed.error();
  const util::IniDocument doc = std::move(parsed).take();

  const auto fail = [](const std::string& section, const std::string& msg) {
    return util::Error{util::Errc::kValidation, msg, section};
  };

  // The typed section accessors (get_int/get_double/unique) report
  // malformed values through ContractViolation; fold those into the
  // Result surface as parse errors.
  try {
    ScenarioSpec spec;

    const util::IniSection& cluster = doc.unique("cluster");
    const int seed = cluster.get_int("seed", 42);
    if (seed < 0) return fail("[cluster]", "seed must be >= 0");
    spec.seed = static_cast<std::uint64_t>(seed);
    spec.machines = cluster.get_int("machines", 1);
    if (spec.machines < 1) return fail("[cluster]", "machines must be >= 1");
    const std::string sched = cluster.get_or("scheduler", "macro");
    if (sched == "macro") {
      spec.scheduler = sim::SchedulerMode::kMacro;
    } else if (sched == "micro") {
      spec.scheduler = sim::SchedulerMode::kMicro;
    } else {
      return fail("[cluster]", "scheduler must be macro|micro, got: " + sched);
    }

    if (doc.has_kind("run")) {
      const util::IniSection& run = doc.unique("run");
      spec.duration_s = run.get_double("duration", 60.0);
      spec.warmup_s = run.get_double("warmup", 0.0);
    }
    if (!(spec.duration_s > 0.0)) {
      return fail("[run]", "duration must be > 0, got " +
                               util::format_double(spec.duration_s));
    }
    if (!(spec.warmup_s >= 0.0)) {
      return fail("[run]", "warmup must be >= 0, got " +
                               util::format_double(spec.warmup_s));
    }

    for (const util::IniSection* vm : doc.of_kind("vm")) {
      VmEntry e;
      e.name = vm->name;
      if (e.name.empty()) return fail("[vm]", "sections need a name");
      const std::string section = "[vm " + e.name + "]";
      e.machine = vm->get_int("machine", 0);
      if (e.machine < 0 || e.machine >= spec.machines) {
        return fail(section, "machine index " + std::to_string(e.machine) +
                                 " out of range [0, " +
                                 std::to_string(spec.machines) + ")");
      }
      e.cpu_pct = vm->get_double("cpu", 0.0);
      e.mem_mib = vm->get_double("mem", 0.0);
      e.io_blocks = vm->get_double("io", 0.0);
      e.bw_kbps = vm->get_double("bw", 0.0);
      if (e.cpu_pct < 0 || e.mem_mib < 0 || e.io_blocks < 0 || e.bw_kbps < 0) {
        return fail(section, "workload levels must be >= 0");
      }
      e.trace_path = vm->get_or("trace", "");
      e.trace_interval_s = vm->get_double("trace_interval", 1.0);
      if (!e.trace_path.empty() &&
          (e.cpu_pct != 0 || e.mem_mib != 0 || e.io_blocks != 0 ||
           e.bw_kbps != 0)) {
        return fail(section, "trace and steady levels are exclusive");
      }
      if (!(e.trace_interval_s > 0.0)) {
        return fail(section, "trace_interval must be > 0");
      }
      e.bw_target_machine =
          vm->get_int("bw_target_machine", sim::NetTarget::kExternal);
      e.bw_target_vm = vm->get_or("bw_target_vm", "");
      if ((e.bw_target_machine == sim::NetTarget::kExternal) !=
          e.bw_target_vm.empty()) {
        return fail(section, "bw_target_machine and bw_target_vm go together");
      }
      // VM names are a namespace of their own: bw targets and request
      // APIs address guests by name, so a duplicate name is ambiguous
      // even across machines.
      for (const auto& other : spec.vms) {
        if (other.name == e.name) {
          return fail(section,
                      "duplicate VM name (already declared on machine " +
                          std::to_string(other.machine) + ")");
        }
      }
      spec.vms.push_back(std::move(e));
    }
    if (spec.vms.empty()) {
      return fail("[vm]", "scenario needs at least one [vm] section");
    }

    for (const util::IniSection* m : doc.of_kind("monitor")) {
      const int idx = m->get_int("machine", 0);
      if (idx < 0 || idx >= spec.machines) {
        return fail("[monitor]", "machine index " + std::to_string(idx) +
                                     " out of range [0, " +
                                     std::to_string(spec.machines) + ")");
      }
      spec.monitored_machines.push_back(idx);
    }
    if (spec.monitored_machines.empty()) {
      spec.monitored_machines.push_back(0);  // monitor the first machine
    }

    // Cross-validate bw targets.
    for (const auto& vm : spec.vms) {
      if (vm.bw_target_machine == sim::NetTarget::kExternal) continue;
      const std::string section = "[vm " + vm.name + "]";
      if (vm.bw_target_machine < 0 || vm.bw_target_machine >= spec.machines) {
        return fail(section, "bw_target_machine " +
                                 std::to_string(vm.bw_target_machine) +
                                 " out of range [0, " +
                                 std::to_string(spec.machines) + ")");
      }
      bool found = false;
      for (const auto& other : spec.vms) {
        if (other.name == vm.bw_target_vm &&
            other.machine == vm.bw_target_machine) {
          found = true;
          break;
        }
      }
      if (!found) {
        return fail(section, "bw target '" + vm.bw_target_vm +
                                 "' not found on machine " +
                                 std::to_string(vm.bw_target_machine));
      }
    }
    return spec;
  } catch (const util::ContractViolation& e) {
    return util::Error{util::Errc::kParse, e.what(), "scenario"};
  }
}

util::Result<ScenarioSpec> ScenarioSpec::load_result(const std::string& path) {
  std::ifstream f(path);
  if (!f.good()) {
    return util::Error{util::Errc::kIo, "cannot open scenario", path};
  }
  std::ostringstream os;
  os << f.rdbuf();
  util::Result<ScenarioSpec> parsed = parse_result(os.str());
  if (!parsed.ok()) {
    util::Error err = parsed.error();
    err.context = path + ": " + err.context;
    return err;
  }
  return parsed;
}

ScenarioSpec ScenarioSpec::parse(const std::string& text) {
  return parse_result(text).value_or_throw();
}

ScenarioSpec ScenarioSpec::load(const std::string& path) {
  return load_result(path).value_or_throw();
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  VOPROF_WALL_SPAN("scenario", "run_scenario");
  static obs::Counter& runs =
      obs::Registry::global().counter("scenario.runs");
  runs.add();
  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, spec.seed);
  for (int i = 0; i < spec.machines; ++i) {
    sim::MachineSpec mspec;
    mspec.scheduler = spec.scheduler;
    cluster.add_machine(mspec);
  }
  std::uint64_t wl_seed = spec.seed + 1000;
  for (const auto& vm : spec.vms) {
    sim::VmSpec vspec;
    vspec.name = vm.name;
    sim::DomU& dom =
        cluster.machine(static_cast<std::size_t>(vm.machine)).add_vm(vspec);
    sim::NetTarget trace_target;
    if (vm.bw_target_machine != sim::NetTarget::kExternal) {
      trace_target = sim::NetTarget{vm.bw_target_machine, vm.bw_target_vm};
    }
    if (!vm.trace_path.empty()) {
      dom.attach(std::make_unique<wl::TraceWorkload>(
          wl::trace_from_csv(
              util::CsvDocument::load_result(vm.trace_path).value_or_throw(),
              "vm_", vm.trace_interval_s),
          trace_target, /*loop=*/true));
    } else if (vm.cpu_pct > 0 || vm.mem_mib > 0 || vm.io_blocks > 0 ||
               vm.bw_kbps > 0) {
      wl::MixedWorkload::Levels levels;
      levels.cpu_pct = vm.cpu_pct;
      levels.mem_mib = vm.mem_mib;
      levels.io_blocks_per_s = vm.io_blocks;
      levels.bw_kbps = vm.bw_kbps;
      sim::NetTarget target;
      if (vm.bw_target_machine != sim::NetTarget::kExternal) {
        target = sim::NetTarget{vm.bw_target_machine, vm.bw_target_vm};
      }
      dom.attach(
          std::make_unique<wl::MixedWorkload>(levels, target, ++wl_seed));
    }
  }

  engine.run_for(util::seconds(spec.warmup_s));
  std::vector<std::unique_ptr<mon::MonitorScript>> monitors;
  std::vector<int> monitored;
  for (int idx : spec.monitored_machines) {
    monitors.push_back(std::make_unique<mon::MonitorScript>(
        engine, cluster.machine(static_cast<std::size_t>(idx))));
    monitors.back()->start();
    monitored.push_back(idx);
  }
  engine.run_for(util::seconds(spec.duration_s));
  ScenarioResult result;
  for (std::size_t i = 0; i < monitors.size(); ++i) {
    monitors[i]->stop();
    result.reports.emplace(monitored[i], monitors[i]->report());
  }
  return result;
}

ReplicatedScenarioResult run_scenario_replicated(const ScenarioSpec& spec,
                                                 std::size_t replications,
                                                 int jobs) {
  return run_scenario_replicated(spec, replications, jobs,
                                 std::function<bool()>{});
}

ReplicatedScenarioResult run_scenario_replicated(
    const ScenarioSpec& spec, std::size_t replications, int jobs,
    const std::function<bool()>& keep_going) {
  VOPROF_REQUIRE_MSG(replications >= 1,
                     "run_scenario_replicated needs replications >= 1");

  // One independent run per replication, seeded purely from the
  // replication index so any worker may execute it. SweepRunner wraps
  // the same TaskPool discipline (index-ordered parallel_map) and adds
  // the "runner" spans/counters, so a traced replicated scenario shows
  // the fan-out alongside the per-replication sim timelines.
  runner::RunOptions run_opts;
  run_opts.jobs = jobs;
  runner::SweepRunner sweep(run_opts);
  const std::vector<std::optional<ScenarioResult>> runs = sweep.map(
      replications,
      [&spec, &keep_going](std::size_t rep) -> std::optional<ScenarioResult> {
        if (keep_going && !keep_going()) return std::nullopt;
        ScenarioSpec rep_spec = spec;
        rep_spec.seed = util::seed_for(spec.seed, rep);
        return run_scenario(rep_spec);
      });

  // Fold each run's samples into per-run stats, then merge those in
  // replication order — the same reduction a serial loop performs.
  // Replications skipped by keep_going contribute nothing and are not
  // counted, so `replications` in the result reports completed runs.
  ReplicatedScenarioResult out;
  for (const std::optional<ScenarioResult>& run : runs) {
    if (!run.has_value()) continue;
    ++out.replications;
    for (const auto& [machine, report] : run->reports) {
      for (const std::string& key : report.keys()) {
        const mon::SeriesSet& s = report.series(key);
        ReplicatedScenarioResult::EntityStats& agg = out.stats[machine][key];
        agg.cpu.merge(s.cpu.stats());
        agg.mem.merge(s.mem.stats());
        agg.io.merge(s.io.stats());
        agg.bw.merge(s.bw.stats());
      }
    }
  }
  return out;
}

std::string ReplicatedScenarioResult::summary() const {
  std::ostringstream os;
  for (const auto& [machine, entities] : stats) {
    util::AsciiTable t("machine " + std::to_string(machine) + " (" +
                       std::to_string(replications) + " replications)");
    t.set_header({"entity", "CPU(%)", "CPU sd", "MEM(MiB)", "I/O(blk/s)",
                  "BW(Kb/s)"});
    for (const auto& [key, s] : entities) {
      t.add_row({key, util::fmt(s.cpu.mean(), 2), util::fmt(s.cpu.stddev(), 2),
                 util::fmt(s.mem.mean(), 1), util::fmt(s.io.mean(), 2),
                 util::fmt(s.bw.mean(), 2)});
    }
    os << t.str() << '\n';
  }
  return os.str();
}

std::string ScenarioResult::summary() const {
  std::ostringstream os;
  for (const auto& [machine, report] : reports) {
    util::AsciiTable t("machine " + std::to_string(machine));
    t.set_header({"entity", "CPU(%)", "MEM(MiB)", "I/O(blk/s)", "BW(Kb/s)"});
    for (const auto& key : report.keys()) {
      const mon::UtilSample u = report.mean(key);
      t.add_row({key, util::fmt(u.cpu_pct, 2), util::fmt(u.mem_mib, 1),
                 util::fmt(u.io_blocks_per_s, 2), util::fmt(u.bw_kbps, 2)});
    }
    os << t.str() << '\n';
  }
  return os.str();
}

}  // namespace voprof::scenario
