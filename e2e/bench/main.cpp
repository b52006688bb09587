/// \file main.cpp
/// voprof-bench: one workload run of the voprof end-to-end benchmark.
///
///   voprof-bench --workload train|simulate|serve --seed N --seconds S
///                --trace 0|1 [--smoke] [--voprofd PATH] [--work-dir DIR]
///                [--scenarios DIR]
///   voprof-bench --self-test
///
/// Prints a table, then as its last line one JSON object with the keys
/// correct, attempted, failed and metrics: the end-to-end metrics with
/// --trace 0, the per-layer metrics with --trace 1. Exits 1 when a
/// correctness check fails, 2 on a usage or run error.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "report.hpp"
#include "voprof/util/json.hpp"
#include "voprof/util/stats.hpp"

namespace voprof::e2e {

void Report::row(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "  %-30s %14.6g %-6s", name.c_str(), value,
                unit.c_str());
  table.push_back(buf + (note.empty() ? "" : "  " + note));
}

void Report::heading(const std::string& text) { table.push_back("# " + text); }

void put_end_to_end(Report& rep, const EndToEnd& e, bool result) {
  rep.heading("end to end");
  rep.row("setup_s", e.setup_s, "s", e.setup_is);
  rep.row("peak_rss_mib", e.peak_rss_mib, "MiB", e.rss_of);
  rep.row("op_p50_ms", e.op_p50_ms, "ms", e.op_is);
  rep.row("work_per_s", e.work_per_s, "1/s", e.work_is);
  rep.row("fail_frac",
          static_cast<double>(rep.failed) / static_cast<double>(rep.attempted),
          "ratio", "failed / attempted");
  if (result) {
    rep.metrics["setup_s"] = {e.setup_s, "s"};
    rep.metrics["peak_rss_mib"] = {e.peak_rss_mib, "MiB"};
    rep.metrics["op_p50_ms"] = {e.op_p50_ms, "ms"};
    rep.metrics["work_per_s"] = {e.work_per_s, "1/s"};
  }
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"core.fit_s", "s"},
      {"core.collect_s", "s"},
      {"core.rows", "count"},
      {"xensim.events", "count"},
      {"xensim.ns_per_event", "ns"},
      {"xensim.machine_ticks", "count"},
      {"xensim.credit_ticks", "count"},
      {"monitor.samples", "count"},
      {"runner.cells", "count"},
      {"runner.task_cpu_s", "s"},
      {"runner.busy_share", "ratio"},
      {"runner.scaling", "ratio"},
      {"runner.model_cache_hits", "count"},
      {"runner.model_cache_misses", "count"},
      {"scenario.noisy_neighbour_s", "s"},
      {"scenario.trace_replay_s", "s"},
      {"scenario.intra_pm_traffic_s", "s"},
      {"scenario.single_vm_cpu_sweep_s", "s"},
      {"serve.service_ms_mean", "ms"},
      {"serve.transport_ms_mean", "ms"},
      {"serve.completed", "count"},
      {"serve.rejected_overloaded", "count"},
      {"serve.timed_out", "count"},
      {"serve.gen_late_ms_p99", "ms"},
      {"obs.trace_overhead", "ratio"},
      {"obs.unattributed_share", "ratio"},
  };
  return kMetrics;
}

void put_per_layer(Report& rep, const std::map<std::string, double>& values) {
  rep.heading("per-layer metrics (traced run)");
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = values.find(name);
    const double v = it == values.end() ? 0.0 : it->second;
    rep.metrics[name] = {v, unit};
    rep.row(name, v, unit);
  }
}

void self_time_rows(Report& rep, const std::string& title,
                    const std::map<std::string, double>& self_ms) {
  double total = 0.0;
  for (const auto& [cat, ms] : self_ms) total += ms;
  rep.heading(title);
  for (const auto& [cat, ms] : self_ms) {
    char note[48];
    std::snprintf(note, sizeof note, "%5.1f%% of span self time",
                  total > 0.0 ? 100.0 * ms / total : 0.0);
    rep.row("self." + cat, ms, "ms", note);
  }
}

double peak_rss_mib(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double median_of(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : util::median(xs);
}

namespace {

int usage(const std::string& why) {
  std::cerr << "voprof-bench: " << why
            << "\nusage: voprof-bench --workload train|simulate|serve "
               "--seed N --seconds S --trace 0|1 [--smoke]\n"
               "       [--voprofd PATH] [--work-dir DIR] [--scenarios DIR]\n"
               "       voprof-bench --self-test\n";
  return 2;
}

std::string result_line(const Report& rep) {
  util::Json metrics = util::Json::object();
  for (const auto& [name, m] : rep.metrics) {
    util::Json entry = util::Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(name, std::move(entry));
  }
  util::Json out = util::Json::object();
  out.set("correct", !rep.mismatch);
  out.set("attempted", static_cast<unsigned long>(rep.attempted));
  out.set("failed", static_cast<unsigned long>(rep.failed));
  out.set("metrics", std::move(metrics));
  return out.dump(0);
}

}  // namespace
}  // namespace voprof::e2e

int main(int argc, char** argv) {
  using namespace voprof::e2e;
  RunConfig cfg;
#ifdef VOPROF_BENCH_VOPROFD
  cfg.voprofd = VOPROF_BENCH_VOPROFD;
#endif
  bool have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--self-test") {
        const int failures = run_self_tests();
        std::cout << (failures == 0 ? "self-test: all passed\n"
                                    : "self-test: failures\n");
        return failures == 0 ? 0 : 1;
      }
      if (flag == "--smoke") {
        cfg.smoke = true;
        continue;
      }
      if (i + 1 >= argc) return usage(flag + " needs a value");
      const std::string value = argv[++i];
      if (flag == "--workload") {
        cfg.workload = value;
      } else if (flag == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace is 0 or 1");
        cfg.trace = value == "1";
        have_trace = true;
      } else if (flag == "--voprofd") {
        cfg.voprofd = value;
      } else if (flag == "--work-dir") {
        cfg.work_dir = value;
      } else if (flag == "--scenarios") {
        cfg.scenarios_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed flag value");
  }
  if (!have_trace || !(cfg.seconds > 0.0) || !std::isfinite(cfg.seconds)) {
    return usage("--trace and a positive --seconds are required");
  }

  Report rep;
  try {
    if (cfg.workload == "train") {
      rep = run_train(cfg);
    } else if (cfg.workload == "simulate") {
      rep = run_simulate(cfg);
    } else if (cfg.workload == "serve") {
      rep = run_serve(cfg);
    } else {
      return usage("unknown workload '" + cfg.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "voprof-bench: " << cfg.workload << " failed: " << e.what()
              << '\n';
    return 2;
  }
  for (const std::string& line : rep.table) std::cout << line << '\n';
  std::cout << result_line(rep) << std::endl;
  return rep.mismatch ? 1 : 0;
}
