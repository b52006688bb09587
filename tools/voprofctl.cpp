/// \file voprofctl.cpp
/// Command-line front-end for the voprof pipeline — the workflow a
/// cloud operator would actually run: train the Sec. V models on the
/// simulated testbed (or fit them from an observation CSV), predict PM
/// utilization, profile a workload cell, replay RUBiS and scenarios,
/// and run or query the voprofd daemon. Commands, their flags and their
/// usage text are declared in tools/ctl_flags.cpp (`voprofctl help`
/// prints them); tools/command_line.hpp is the exit-code contract.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_diff.hpp"
#include "command_line.hpp"
#include "ctl_flags.hpp"
#include "harness.hpp"
#include "trace_cmd.hpp"
#include "voprof/core/diagnostics.hpp"
#include "voprof/monitor/script.hpp"
#include "voprof/obs/trace.hpp"
#include "voprof/rubis/deployment.hpp"
#include "voprof/util/cli.hpp"
#include "voprof/util/numeric.hpp"
#include "voprof/util/table.hpp"
#include "voprof/voprof.hpp"
#include "voprof/workloads/levels.hpp"
#include "voprof/xensim/cluster.hpp"

namespace {

using namespace voprof;

// CliArgs::parse has checked --method and --kind against the choices
// the flag table (tools/ctl_flags.cpp) declares.
model::RegressionMethod method_of(const util::CliArgs& args,
                                  const char* fallback) {
  return args.get_or("method", fallback) == "ols"
             ? model::RegressionMethod::kOls
             : model::RegressionMethod::kLms;
}

wl::WorkloadKind kind_of(const util::CliArgs& args) {
  const std::string& name = args.get("kind");
  if (name == "mem") return wl::WorkloadKind::kMem;
  if (name == "io") return wl::WorkloadKind::kIo;
  if (name == "bw") return wl::WorkloadKind::kBw;
  return wl::WorkloadKind::kCpu;
}

/// Print an input or output failure the uniform way and signal exit 1.
int loader_error(const util::Error& err) {
  std::cerr << "voprofctl: " << err.to_string() << '\n';
  return 1;
}

/// A flag value the library would reject: exit 1 with a validation
/// error naming the flag, before any work runs.
int flag_error(const std::string& flag, const std::string& message) {
  return loader_error({util::Errc::kValidation, message, "--" + flag});
}

/// Exit 1 with the error of a failed file operation, else 0. Outputs
/// are checked with util::check_writable before any work runs, so an
/// unwritable path fails at once rather than after a long sweep.
int failed(const util::Result<bool>& done) {
  return done.ok() ? 0 : loader_error(done.error());
}

/// The observation CSV named by --observations.
util::Result<model::TrainingSet> load_observations(const util::CliArgs& args) {
  util::Result<util::CsvDocument> csv =
      util::CsvDocument::load_result(args.get("observations"));
  if (!csv.ok()) return csv.error();
  return model::training_set_from_csv(csv.value());
}

model::TrainerConfig trainer_config(const util::CliArgs& args) {
  model::TrainerConfig cfg;
  cfg.duration = util::seconds(args.get_double("duration", 60.0));
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  cfg.jobs = args.get_int("jobs", 1);
  return cfg;
}

int cmd_train(const util::CliArgs& args) {
  if (const int rc = failed(util::check_writable(args.get("out")))) return rc;
  const model::Trainer trainer(trainer_config(args));
  const auto method = method_of(args, "lms");
  std::cout << "training (" << args.get_or("method", "lms")
            << ", full Table II sweep x {1,2,4} VMs)...\n";
  const model::TrainedModels models = trainer.train(method);
  if (const int rc = failed(model::save_models_file(models, args.get("out"))))
    return rc;
  std::cout << "wrote " << args.get("out") << " ("
            << models.data.size() << " observations)\n";
  const model::LinearFit& cpu =
      models.single.fit_for(model::MetricIndex::kCpu);
  std::printf("PM-CPU fit: R^2 %.4f, rms %.3f\n", cpu.r_squared,
              cpu.residual_rms);
  return 0;
}

int cmd_export_trace(const util::CliArgs& args) {
  if (const int rc = failed(util::check_writable(args.get("out")))) return rc;
  const model::Trainer trainer(trainer_config(args));
  std::cout << "collecting observations...\n";
  const model::TrainingSet data = trainer.collect();
  if (const int rc =
          failed(model::training_set_to_csv(data).save(args.get("out"))))
    return rc;
  std::cout << "wrote " << args.get("out") << " (" << data.size()
            << " rows)\n";
  return 0;
}

int cmd_fit(const util::CliArgs& args) {
  if (const int rc = failed(util::check_writable(args.get("out")))) return rc;
  util::Result<model::TrainingSet> loaded = load_observations(args);
  if (!loaded.ok()) return loader_error(loaded.error());
  const model::TrainingSet data = std::move(loaded).take();
  const model::TrainedModels models =
      model::Trainer::fit_models(data, method_of(args, "lms"));
  if (const int rc = failed(model::save_models_file(models, args.get("out"))))
    return rc;
  std::cout << "fitted " << data.size() << " observations -> "
            << args.get("out") << '\n';
  return 0;
}

int cmd_predict(const util::CliArgs& args) {
  util::Result<model::TrainedModels> loaded =
      model::load_models_file_result(args.get("models"));
  if (!loaded.ok()) return loader_error(loaded.error());
  const model::TrainedModels models = std::move(loaded).take();
  const model::UtilVec sum{args.get_double("cpu", 0.0),
                           args.get_double("mem", 0.0),
                           args.get_double("io", 0.0),
                           args.get_double("bw", 0.0)};
  const int n = args.get_int("vms", 1);
  const std::string format = args.get_or("format", "table");

  if (format == "json") {
    // The exact voprof-api-1 `predict` result object: scripted callers
    // get identical bytes whether they ask the CLI or the daemon.
    std::cout << serve::predict_result_json(models, sum, n).dump(0) << '\n';
    return 0;
  }
  const model::UtilVec pm = models.multi.predict(sum, n);
  const double pm_cpu = models.multi.predict_pm_cpu_indirect(sum, n);
  const double dom0 = models.multi.predict_dom0_cpu(sum, n);
  const double hyp = models.multi.predict_hyp_cpu(sum, n);
  if (format == "csv") {
    std::cout << "metric,vm_sum,pm_predicted\n"
              << "cpu," << util::format_double(sum.cpu) << ','
              << util::format_double(pm_cpu) << '\n'
              << "mem," << util::format_double(sum.mem) << ','
              << util::format_double(pm.mem) << '\n'
              << "io," << util::format_double(sum.io) << ','
              << util::format_double(pm.io) << '\n'
              << "bw," << util::format_double(sum.bw) << ','
              << util::format_double(pm.bw) << '\n'
              << "dom0_cpu,0," << util::format_double(dom0) << '\n'
              << "hyp_cpu,0," << util::format_double(hyp) << '\n';
    return 0;
  }
  util::AsciiTable t("predicted PM utilization for " + std::to_string(n) +
                     " co-located VM(s)");
  t.set_header({"metric", "sum of VMs", "predicted PM", "overhead"});
  t.add_row({"CPU (%)", util::fmt(sum.cpu, 2), util::fmt(pm_cpu, 2),
             util::fmt(dom0, 2) + " Dom0 + " + util::fmt(hyp, 2) + " hyp"});
  t.add_row({"MEM (MiB)", util::fmt(sum.mem, 1), util::fmt(pm.mem, 1),
             util::fmt(pm.mem - sum.mem, 1)});
  t.add_row({"I/O (blk/s)", util::fmt(sum.io, 1), util::fmt(pm.io, 1),
             util::fmt(pm.io - sum.io, 1)});
  t.add_row({"BW (Kb/s)", util::fmt(sum.bw, 1), util::fmt(pm.bw, 1),
             util::fmt(pm.bw - sum.bw, 1)});
  std::cout << t.str();
  return 0;
}

int cmd_profile(const util::CliArgs& args) {
  const wl::WorkloadKind kind = kind_of(args);
  const double value = args.get_double("value", 50.0);
  if (kind == wl::WorkloadKind::kCpu && value > wl::kMaxCpuPct) {
    return flag_error("value", "a cpu workload is at most " +
                                   util::fmt(wl::kMaxCpuPct, 0) +
                                   " % of one VCPU");
  }
  const int n_vms = args.get_int("vms", 1);
  const double duration = args.get_double("duration", 60.0);

  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{},
                       static_cast<std::uint64_t>(args.get_int("seed", 42)));
  sim::PhysicalMachine& pm = cluster.add_machine(sim::MachineSpec{});
  for (int i = 0; i < n_vms; ++i) {
    sim::VmSpec spec;
    spec.name = "vm" + std::to_string(i + 1);
    pm.add_vm(spec).attach(wl::make_workload_value(
        kind, value, sim::NetTarget{}, 7 + static_cast<std::uint64_t>(i)));
  }
  mon::MonitorScript monitor(engine, pm);
  const mon::MeasurementReport& report =
      monitor.measure(util::seconds(duration));

  const std::string format = args.get_or("format", "table");
  if (format == "csv") {
    // Full per-second series, same schema as `simulate --series-out`.
    std::cout << mon::report_to_csv(report).str();
    return 0;
  }
  if (format == "json") {
    util::Json entities = util::Json::object();
    for (const auto& key : report.keys()) {
      const mon::UtilSample u = report.mean(key);
      util::Json e = util::Json::object();
      e.set("cpu", u.cpu_pct);
      e.set("mem", u.mem_mib);
      e.set("io", u.io_blocks_per_s);
      e.set("bw", u.bw_kbps);
      entities.set(key, std::move(e));
    }
    std::cout << entities.dump(0) << '\n';
    return 0;
  }
  util::AsciiTable t(wl::kind_name(kind) + " @ " + util::fmt(value, 2) +
                     " " + wl::kind_unit(kind) + " x " +
                     std::to_string(n_vms) + " VM(s), " +
                     util::fmt(duration, 0) + " s");
  t.set_header({"entity", "CPU(%)", "MEM(MiB)", "I/O(blk/s)", "BW(Kb/s)"});
  for (const auto& key : report.keys()) {
    const mon::UtilSample u = report.mean(key);
    t.add_row({key, util::fmt(u.cpu_pct, 2), util::fmt(u.mem_mib, 1),
               util::fmt(u.io_blocks_per_s, 2), util::fmt(u.bw_kbps, 2)});
  }
  std::cout << t.str();
  return 0;
}

int cmd_inspect(const util::CliArgs& args) {
  model::BootstrapConfig cfg;
  cfg.method = method_of(args, "ols");
  cfg.resamples = args.get_int("resamples", 200);
  if (cfg.resamples < model::kMinResamples) {
    return flag_error("resamples", "must be at least " +
                                       std::to_string(model::kMinResamples));
  }
  util::Result<model::TrainingSet> loaded = load_observations(args);
  if (!loaded.ok()) return loader_error(loaded.error());
  const model::TrainingSet data = std::move(loaded).take();
  if (data.with_vm_count(1).size() < model::kMinBootstrapRows) {
    return loader_error({util::Errc::kValidation,
                         "too few single-VM rows to bootstrap (need " +
                             std::to_string(model::kMinBootstrapRows) + ")",
                         args.get("observations")});
  }
  std::cout << "bootstrapping " << cfg.resamples << " resamples over "
            << data.with_vm_count(1).size() << " single-VM rows...\n";
  std::cout << model::diagnostics_table(
      model::bootstrap_single_vm(data, cfg));
  return 0;
}

int cmd_simulate(const util::CliArgs& args) {
  util::Result<scenario::ScenarioSpec> loaded =
      scenario::ScenarioSpec::load_result(args.get("scenario"));
  if (!loaded.ok()) return loader_error(loaded.error());
  scenario::ScenarioSpec spec = std::move(loaded).take();
  if (args.has("seed")) {
    spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  }
  const int replications = args.get_int("replications", 1);
  const std::string format = args.get_or("format", "table");

  if (format == "json") {
    // Same aggregation (and exact bytes) as the daemon's `simulate` op.
    const scenario::ReplicatedScenarioResult result =
        scenario::run_scenario_replicated(
            spec, static_cast<std::size_t>(replications),
            args.get_int("jobs", 1));
    std::cout << serve::simulate_result_json(result).dump(2) << '\n';
    return 0;
  }
  if (format == "csv") {
    const scenario::ReplicatedScenarioResult result =
        scenario::run_scenario_replicated(
            spec, static_cast<std::size_t>(replications),
            args.get_int("jobs", 1));
    std::cout << "machine,entity,cpu_mean,cpu_stddev,mem_mean,io_mean,"
                 "bw_mean,samples\n";
    for (const auto& [machine, entities] : result.stats) {
      for (const auto& [key, s] : entities) {
        std::cout << machine << ',' << key << ','
                  << util::format_double(s.cpu.mean()) << ','
                  << util::format_double(s.cpu.stddev()) << ','
                  << util::format_double(s.mem.mean()) << ','
                  << util::format_double(s.io.mean()) << ','
                  << util::format_double(s.bw.mean()) << ','
                  << s.cpu.count() << '\n';
      }
    }
    return 0;
  }

  // Only a single replication's table run writes the series.
  const bool series = replications == 1 && args.has("series-out");
  if (series) {
    if (const int rc = failed(util::check_writable(args.get("series-out"))))
      return rc;
  }
  std::cout << "running scenario: " << spec.machines << " machine(s), "
            << spec.vms.size() << " VM(s), "
            << util::fmt(spec.duration_s, 0) << " s\n\n";
  if (replications > 1) {
    const scenario::ReplicatedScenarioResult result =
        scenario::run_scenario_replicated(
            spec, static_cast<std::size_t>(replications),
            args.get_int("jobs", 1));
    std::cout << result.summary();
  } else {
    const scenario::ScenarioResult result = scenario::run_scenario(spec);
    std::cout << result.summary();
    if (series) {
      // Export the first monitored machine's full series.
      const auto& [machine, report] = *result.reports.begin();
      if (const int rc =
              failed(mon::report_to_csv(report).save(args.get("series-out"))))
        return rc;
      std::cout << "wrote machine " << machine << " series to "
                << args.get("series-out") << '\n';
    }
  }
  return 0;
}

int cmd_request(const tools::CommandLine& cl, const util::CliArgs& args) {
  util::Json params = util::Json::object();
  if (args.has("params")) {
    util::Result<util::Json> parsed =
        util::Json::parse_result(args.get("params"));
    if (!parsed.ok()) {
      cl.fail("--params is not valid JSON: " + parsed.error().to_string());
    }
    if (!parsed.value().is_object()) cl.fail("--params must be a JSON object");
    params = std::move(parsed).take();
  }
  util::Json req = util::Json::object();
  req.set("api", serve::kApiVersion);
  req.set("id", args.get_or("id", "ctl"));
  req.set("op", args.get("op"));
  if (args.has("deadline-ms")) {
    req.set("deadline_ms", args.get_int("deadline-ms", 0));
  }
  req.set("params", std::move(params));

  util::Result<serve::LineClient> connected =
      serve::LineClient::connect(args.get("socket"));
  if (!connected.ok()) return loader_error(connected.error());
  serve::LineClient client = std::move(connected).take();
  util::Result<std::string> response =
      client.roundtrip(req.dump(0), args.get_int("timeout-ms", 60000));
  if (!response.ok()) return loader_error(response.error());
  std::cout << response.value() << '\n';

  // Exit code mirrors the response's ok flag so scripts can branch
  // without parsing JSON.
  const util::Result<util::Json> doc =
      util::Json::parse_result(response.value());
  const util::Json* ok = doc.ok() ? doc.value().find("ok") : nullptr;
  return ok != nullptr && ok->is_bool() && ok->as_bool() ? 0 : 1;
}

int cmd_serve(const tools::CommandLine& cl, const util::CliArgs& args) {
  const util::Result<serve::DaemonConfig> config =
      serve::daemon_config_from_args(args);
  if (!config.ok()) cl.fail(config.error().message);
  return serve::daemon_main(config.value());
}

int cmd_trace(const tools::CommandLine& cl, const util::CliArgs& args) {
  const std::string& sub = args.operands()[0];
  const std::string& file = args.operands()[1];
  if (sub != "summary" && sub != "top" && sub != "export") {
    cl.fail("unknown trace subcommand '" + sub + "'");
  }
  const util::Result<tools::TraceSummary> loaded =
      tools::summarize_trace_file(file);
  if (!loaded.ok()) return loader_error(loaded.error());
  const tools::TraceSummary& summary = loaded.value();
  if (sub == "summary") {
    std::cout << tools::format_trace_summary(summary);
  } else if (sub == "top") {
    std::cout << tools::format_trace_top(summary, args.get_int("limit", 10));
  } else if (args.has("out")) {
    if (const int rc = failed(util::write_file_result(
            args.get("out"), tools::trace_spans_csv(summary))))
      return rc;
    std::cout << "wrote " << summary.spans.size() << " span rows to "
              << args.get("out") << '\n';
  } else {
    std::cout << tools::trace_spans_csv(summary);
  }
  return 0;
}

int cmd_version() {
  const bench::harness::EnvInfo env = bench::harness::capture_env();
  std::cout << "voprofctl (voprof " << env.git_describe << ")\n"
            << "  compiler:      " << env.compiler << '\n'
            << "  build type:    " << env.build_type << '\n'
            << "  cxx flags:     " << env.cxx_flags << '\n'
            << "  sanitizers:    "
            << (env.sanitizers.empty() ? "none" : env.sanitizers) << '\n'
            << "  observability: "
            << (obs::kObsCompiled ? "compiled in" : "compiled out") << '\n'
            << "  os/threads:    " << env.os << '/' << env.hardware_threads
            << '\n';
  return 0;
}

int cmd_rubis(const util::CliArgs& args) {
  util::Result<model::TrainedModels> loaded =
      model::load_models_file_result(args.get("models"));
  if (!loaded.ok()) return loader_error(loaded.error());
  const model::TrainedModels models = std::move(loaded).take();
  const int clients = args.get_int("clients", 500);
  const double duration = args.get_double("duration", 120.0);

  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, 4242);
  cluster.add_machine(sim::MachineSpec{});
  cluster.add_machine(sim::MachineSpec{});
  cluster.add_machine(sim::MachineSpec{});
  rubis::DeployOptions opt;
  opt.clients = clients;
  const rubis::RubisInstance inst = rubis::deploy_rubis(cluster, 0, 1, 2, opt);
  engine.run_for(util::seconds(10.0));
  mon::MonitorScript mon1(engine, cluster.machine(0));
  mon::MonitorScript mon2(engine, cluster.machine(1));
  mon1.start();
  mon2.start();
  const double mark = inst.client->completed();
  engine.run_for(util::seconds(duration));
  mon1.stop();
  mon2.stop();
  std::printf("throughput: %.1f req/s at %d clients\n",
              (inst.client->completed() - mark) / duration, clients);

  const model::Predictor predictor(models.multi);
  const auto e1 = predictor.evaluate(mon1.report(), {inst.web_vm});
  const auto e2 = predictor.evaluate(mon2.report(), {inst.db_vm});
  util::AsciiTable t("prediction accuracy (90th percentile error)");
  t.set_header({"PM", "CPU err(%)", "BW err(%)"});
  t.add_row({"PM1 (web)",
             util::fmt(e1.of(model::MetricIndex::kCpu).error_at_fraction(0.9), 2),
             util::fmt(e1.of(model::MetricIndex::kBw).error_at_fraction(0.9), 2)});
  t.add_row({"PM2 (db)",
             util::fmt(e2.of(model::MetricIndex::kCpu).error_at_fraction(0.9), 2),
             util::fmt(e2.of(model::MetricIndex::kBw).error_at_fraction(0.9), 2)});
  std::cout << t.str();
  return 0;
}

int cmd_bench_diff(const util::CliArgs& args) {
  const double threshold = args.get_double("threshold", 0.25);
  const util::Result<tools::BenchDiffReport> report = tools::bench_diff_files(
      args.get("baseline"), args.get("current"), threshold);
  if (!report.ok()) {
    // Input problems get a distinct exit code so CI can tell a broken
    // gate from a real perf regression.
    std::cerr << "voprofctl: " << report.error().to_string() << '\n';
    return tools::kBenchDiffExitError;
  }
  std::cout << tools::format_bench_diff(report.value(), threshold);
  return tools::bench_diff_exit_code(report.value(),
                                     args.has("report-improvement"));
}

int dispatch(const tools::CommandLine& cl, const std::string& cmd,
             const util::CliArgs& args) {
  if (cmd == "train") return cmd_train(args);
  if (cmd == "export-trace") return cmd_export_trace(args);
  if (cmd == "fit") return cmd_fit(args);
  if (cmd == "predict") return cmd_predict(args);
  if (cmd == "profile") return cmd_profile(args);
  if (cmd == "rubis") return cmd_rubis(args);
  if (cmd == "inspect") return cmd_inspect(args);
  if (cmd == "simulate") return cmd_simulate(args);
  if (cmd == "bench-diff") return cmd_bench_diff(args);
  if (cmd == "serve") return cmd_serve(cl, args);
  if (cmd == "request") return cmd_request(cl, args);
  if (cmd == "trace") return cmd_trace(cl, args);
  if (cmd == "version") return cmd_version();
  std::cout << cl.usage;  // help
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<std::string> words(argv + 1, argv + argc);
    const tools::CommandEntry* entry =
        words.empty() ? nullptr : tools::find_command(words.front());
    tools::CommandLine cl{"voprofctl", tools::voprofctl_usage(), {}, 0};
    if (entry != nullptr) {
      cl.flags = entry->flags;
      cl.operands = entry->operands;
    } else if (!words.empty() && !words.front().starts_with("-")) {
      cl.fail("unknown command '" + words.front() + "'");
    }
    const util::CliArgs args =
        cl.parse_or_exit({words.begin() + (entry != nullptr ? 1 : 0),
                          words.end()});
    if (entry == nullptr) cl.fail("missing command");

    const int rc = dispatch(cl, entry->name, args);

    // The command line enabled the collector (--trace-out or
    // VOPROF_TRACE); write the file once the command has finished.
    auto& collector = obs::TraceCollector::global();
    if (collector.enabled()) {
      const std::string path = collector.path();
      const std::size_t events = collector.size();
      if (collector.write_file()) {
        std::cout << "wrote trace (" << events << " events) to " << path
                  << '\n';
      }
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "voprofctl: " << e.what() << '\n';
    return 1;
  }
}
