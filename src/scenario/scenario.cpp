#include "voprof/scenario/scenario.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "voprof/obs/metrics.hpp"
#include "voprof/obs/trace.hpp"
#include "voprof/runner/runner.hpp"
#include "voprof/util/assert.hpp"
#include "voprof/util/cli.hpp"
#include "voprof/util/csv.hpp"
#include "voprof/util/ini.hpp"
#include "voprof/util/numeric.hpp"
#include "voprof/util/rng.hpp"
#include "voprof/util/table.hpp"
#include "voprof/util/task_pool.hpp"
#include "voprof/workloads/hogs.hpp"
#include "voprof/workloads/trace.hpp"
#include "voprof/xensim/engine.hpp"

namespace voprof::scenario {

namespace {

constexpr auto kInt = util::FlagSpec::Kind::kInteger;
constexpr auto kNum = util::FlagSpec::Kind::kNumber;
constexpr auto kNonNeg = util::FlagSpec::Bound::kNonNegative;
constexpr auto kPos = util::FlagSpec::Bound::kPositive;

/// The keys of each section kind (scenario.hpp lists them).
const std::map<std::string, std::vector<util::FlagSpec>>& section_keys() {
  static const std::map<std::string, std::vector<util::FlagSpec>> table = {
      {"cluster",
       {{"seed", kInt, kNonNeg}, {"machines", kInt, kPos},
        {"scheduler", util::FlagSpec::Kind::kText,
         util::FlagSpec::Bound::kNone, false, {"macro", "micro"}}}},
      {"monitor", {{"machine", kInt, kNonNeg}}},
      {"run", {{"duration", kNum, kPos}, {"warmup", kNum, kNonNeg}}},
      {"vm",
       {{"machine", kInt, kNonNeg}, {"cpu", kNum, kNonNeg},
        {"mem", kNum, kNonNeg}, {"io", kNum, kNonNeg}, {"bw", kNum, kNonNeg},
        {"bw_target_machine", kInt, kNonNeg}, {"bw_target_vm"}, {"trace"},
        {"trace_interval", kNum, kPos}}}};
  return table;
}

util::Error invalid(const std::string& section, std::string message) {
  return util::Error{util::Errc::kValidation, std::move(message), section};
}

/// The points of a VM's `trace` CSV (path relative to the working
/// directory); errors name the file.
util::Result<std::vector<wl::TracePoint>> load_trace(const std::string& path,
                                                     double interval_s) {
  const util::Result<util::CsvDocument> csv =
      util::CsvDocument::load_result(path);
  util::Result<std::vector<wl::TracePoint>> points =
      csv.ok() ? wl::trace_from_csv(csv.value(), "vm_", interval_s)
               : csv.error();
  if (points.ok()) return points;
  util::Error err = points.error();
  err.message = "trace " + path + ": " + err.message;
  if (csv.ok()) err.message += " (" + err.context + ")";
  return err;
}

util::Result<ScenarioSpec> parse_spec(const std::string& text,
                                      bool may_read_traces) {
  const util::Result<std::vector<util::IniSection>> parsed =
      util::parse_ini(text);
  if (!parsed.ok()) return parsed.error();
  const std::vector<util::IniSection>& sections = parsed.value();
  const auto label = [&sections](std::size_t i) {
    const util::IniSection& s = sections[i];
    return "[" + s.kind + (s.name.empty() ? "" : " " + s.name) + "]";
  };

  // Every section checked against its kind's keys first: after this,
  // reading a value cannot fail.
  std::vector<util::CliArgs> keys;
  std::map<std::string, int> count;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const auto kind = section_keys().find(sections[i].kind);
    if (kind == section_keys().end()) {
      std::string valid;
      for (const auto& [k, unused] : section_keys()) {
        valid += (valid.empty() ? "" : ", ") + k;
      }
      return invalid(label(i), "unknown section kind '" + sections[i].kind +
                                   "' (valid: " + valid + ")");
    }
    if (++count[kind->first] > 1 && (kind->first == "cluster" ||
                                     kind->first == "run")) {
      return invalid(label(i), "more than one [" + kind->first + "] section");
    }
    util::Result<util::CliArgs> checked =
        util::CliArgs::check(sections[i].entries, kind->second);
    if (!checked.ok()) return invalid(label(i), checked.error().message);
    keys.push_back(std::move(checked).take());
  }
  if (count["cluster"] == 0) {
    return invalid("[cluster]", "scenario needs a [cluster] section");
  }
  if (count["vm"] == 0) {
    return invalid("[vm]", "scenario needs at least one [vm] section");
  }

  ScenarioSpec spec;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (sections[i].kind != "cluster") continue;
    spec.seed = static_cast<std::uint64_t>(keys[i].get_int("seed", 42));
    spec.machines = keys[i].get_int("machines", 1);
    spec.scheduler = keys[i].get_or("scheduler", "macro") == "micro"
                         ? sim::SchedulerMode::kMicro
                         : sim::SchedulerMode::kMacro;
  }
  const auto machine_error = [&spec](int index) {
    return "machine index " + std::to_string(index) + " out of range [0, " +
           std::to_string(spec.machines) + ")";
  };
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const util::CliArgs& a = keys[i];
    if (sections[i].kind == "run") {
      spec.duration_s = a.get_double("duration", 60.0);
      spec.warmup_s = a.get_double("warmup", 0.0);
    } else if (sections[i].kind == "monitor") {
      const int idx = a.get_int("machine", 0);
      if (idx >= spec.machines) {
        return invalid(label(i), machine_error(idx));
      }
      spec.monitored_machines.push_back(idx);
    }
    if (sections[i].kind != "vm") continue;
    ScenarioSpec::VmEntry e;
    e.name = sections[i].name;
    if (e.name.empty()) return invalid("[vm]", "sections need a name");
    e.machine = a.get_int("machine", 0);
    if (e.machine >= spec.machines) {
      return invalid(label(i), machine_error(e.machine));
    }
    e.cpu_pct = a.get_double("cpu", 0.0);
    e.mem_mib = a.get_double("mem", 0.0);
    e.io_blocks = a.get_double("io", 0.0);
    e.bw_kbps = a.get_double("bw", 0.0);
    if (e.cpu_pct > 100.0) {
      return invalid(label(i), "cpu must be <= 100, got " +
                                   util::format_double(e.cpu_pct));
    }
    if (a.has("trace")) {
      if (e.cpu_pct != 0 || e.mem_mib != 0 || e.io_blocks != 0 ||
          e.bw_kbps != 0) {
        return invalid(label(i), "trace and steady levels are exclusive");
      }
      if (!may_read_traces) {
        return invalid(label(i),
                       "key 'trace' names a file, which only a scenario "
                       "loaded from a file may do");
      }
      util::Result<std::vector<wl::TracePoint>> trace =
          load_trace(a.get("trace"), a.get_double("trace_interval", 1.0));
      if (!trace.ok()) return invalid(label(i), trace.error().message);
      e.trace = std::move(trace).take();
    }
    e.bw_target_machine =
        a.get_int("bw_target_machine", sim::NetTarget::kExternal);
    e.bw_target_vm = a.get_or("bw_target_vm", "");
    if ((e.bw_target_machine == sim::NetTarget::kExternal) !=
        e.bw_target_vm.empty()) {
      return invalid(label(i),
                     "bw_target_machine and bw_target_vm go together");
    }
    // VM names are a namespace of their own: bw targets and request
    // APIs address guests by name, so a duplicate name is ambiguous
    // even across machines.
    for (const auto& other : spec.vms) {
      if (other.name == e.name) {
        return invalid(label(i),
                       "duplicate VM name (already declared on machine " +
                           std::to_string(other.machine) + ")");
      }
    }
    spec.vms.push_back(std::move(e));
  }
  if (spec.monitored_machines.empty()) {
    spec.monitored_machines.push_back(0);  // monitor the first machine
  }

  // Cross-validate bw targets.
  for (const auto& vm : spec.vms) {
    if (vm.bw_target_machine == sim::NetTarget::kExternal) continue;
    if (vm.bw_target_machine >= spec.machines) {
      return invalid("[vm " + vm.name + "]",
                     "bw_target_" + machine_error(vm.bw_target_machine));
    }
    if (std::none_of(spec.vms.begin(), spec.vms.end(), [&vm](const auto& o) {
          return o.name == vm.bw_target_vm &&
                 o.machine == vm.bw_target_machine;
        })) {
      return invalid("[vm " + vm.name + "]",
                     "bw target '" + vm.bw_target_vm +
                         "' not found on machine " +
                         std::to_string(vm.bw_target_machine));
    }
  }
  return spec;
}

}  // namespace

util::Result<ScenarioSpec> ScenarioSpec::parse_result(
    const std::string& text) {
  return parse_spec(text, /*may_read_traces=*/false);
}

util::Result<ScenarioSpec> ScenarioSpec::load_result(const std::string& path) {
  return util::load_file_result(path, [](const std::string& text) {
    return parse_spec(text, /*may_read_traces=*/true);
  });
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
    if (!vm.trace.empty()) {
      dom.attach(std::make_unique<wl::TraceWorkload>(vm.trace, trace_target,
                                                     /*loop=*/true));
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
