/// \file serve.cpp
/// The `serve` workload: a spawned `voprofd --jobs 2` with its default
/// config, driven by the open-loop generator over two connections.
///   1. cold: one `predict`, which trains the models (the set-up);
///      then serial predicts, one outstanding per connection, in short
///      slices before every later phase and after the last one;
///   2. ladder: seeded predicts at 2k, 10k and 20k req/s, then a
///      geometric search for the highest rate meeting the limit,
///      between two closed-loop saturation phases;
///   3. mixed: predicts at 10k req/s beside `simulate` requests for
///      noisy_neighbour.conf (1 replication) at 20 req/s.
/// Sampled predict responses and every simulate response must be
/// byte-identical to the library's serialization in-process.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ladder.hpp"
#include "layers.hpp"
#include "report.hpp"
#include "serve_load.hpp"
#include "voprof/runner/runner.hpp"
#include "voprof/scenario/scenario.hpp"
#include "voprof/serve/api.hpp"
#include "voprof/serve/service.hpp"
#include "voprof/serve/socket.hpp"
#include "voprof/util/rng.hpp"
#include "voprof/util/stats.hpp"
#include "voprof/util/task_pool.hpp"

namespace voprof::e2e {
namespace {

constexpr int kConnections = 2;
constexpr int kDaemonJobs = 2;
constexpr double kMixedPredictRate = 10000.0;
constexpr double kSimulateRate = 20.0;
constexpr std::array<double, 3> kFixedRates = {2000.0, 10000.0, 20000.0};
constexpr std::size_t kInputs = 256;
/// Outstanding predicts per connection in the saturation phase; two
/// connections stay below the daemon's default queue capacity (64).
constexpr std::size_t kWindow = 16;
/// Length of one serial slice, as a share of the run's seconds.
constexpr double kSerialSlice = 0.01;

std::vector<PredictInput> make_inputs(std::uint64_t seed) {
  constexpr std::array<int, 3> kVms = {1, 2, 4};
  util::Rng rng(util::seed_for(seed, 0x73657276ULL));
  std::vector<PredictInput> out(kInputs);
  for (PredictInput& in : out) {
    in.vms = kVms[rng.uniform_int(kVms.size())];
    const double v = in.vms;
    in.sum = {v * static_cast<double>(5 + rng.uniform_int(91)),
              v * static_cast<double>(64 + rng.uniform_int(449)),
              v * static_cast<double>(rng.uniform_int(151)),
              v * static_cast<double>(rng.uniform_int(2001))};
    util::Json p = util::Json::object();
    p.set("cpu", in.sum.cpu);
    p.set("mem", in.sum.mem);
    p.set("io", in.sum.io);
    p.set("bw", in.sum.bw);
    p.set("vms", in.vms);
    in.params = p.dump(0);
  }
  return out;
}

/// The scenario INI text with its [cluster] seed replaced.
std::string with_seed(const std::string& ini, std::uint64_t seed) {
  std::istringstream in(ini);
  std::ostringstream out;
  std::string section;
  bool done = false;
  for (std::string line; std::getline(in, line);) {
    const std::size_t first = line.find_first_not_of(" \t");
    const std::string body = first == std::string::npos ? "" : line.substr(first);
    if (!body.empty() && body.front() == '[') section = body;
    const bool is_seed = section.rfind("[cluster]", 0) == 0 &&
                         body.rfind("seed", 0) == 0 &&
                         body.find('=') != std::string::npos;
    if (is_seed && !done) {
      out << "seed = " << seed << '\n';
      done = true;
    } else {
      out << line << '\n';
    }
  }
  if (!done) throw std::runtime_error("scenario has no [cluster] seed line");
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The library's answers, computed in-process on the same models.
struct Expected {
  const model::TrainedModels& models;
  const std::vector<PredictInput>& inputs;
  util::Json simulate_result;

  [[nodiscard]] std::string predict(const std::string& id,
                                    std::size_t input) const {
    return serve::ok_response(
        id, serve::predict_result_json(models, inputs[input].sum,
                                       inputs[input].vms));
  }
  /// Served responses that differ from the library. Error responses
  /// are counted as failures elsewhere, not as mismatches.
  [[nodiscard]] std::size_t mismatches(const PhaseResult& r) const {
    std::size_t n = 0;
    const auto ok = [](const std::string& line) {
      return line.find("\"ok\":true") != std::string::npos;
    };
    for (const auto& s : r.predict_samples) {
      if (ok(s.line) && s.line != predict(s.id, s.input)) ++n;
    }
    for (const auto& s : r.simulate_responses) {
      if (ok(s.line) && s.line != serve::ok_response(s.id, simulate_result)) {
        ++n;
      }
    }
    return n;
  }
};

struct Harness {
  const RunConfig& cfg;
  const Expected& expected;
  Report& rep;
  int spawned = 0;
  double peak_rss = 0.0;

  Daemon::Options options(bool traced) {
    Daemon::Options o;
    o.exe = cfg.voprofd;
    o.jobs = kDaemonJobs;
    o.socket = cfg.work_dir + "/voprofd-" + std::to_string(::getpid()) +
               "-" + std::to_string(spawned++) + ".sock";
    o.log = cfg.work_dir + "/voprofd.log";
    if (traced) {
      const std::string seed = std::to_string(cfg.seed);
      o.trace_out = cfg.work_dir + "/trace-voprofd-" + seed + ".json";
      o.metrics_out = cfg.work_dir + "/metrics-voprofd-" + seed + ".json";
    }
    return o;
  }

  /// Spawn a daemon and send its cold first predict. Returns the
  /// daemon; *seconds is the time from spawn to that response.
  std::unique_ptr<Daemon> cold_start(const Daemon::Options& o,
                                     double* seconds) {
    const std::int64_t t0 = now_ns();
    auto daemon = std::make_unique<Daemon>(o);
    util::Result<serve::LineClient> client =
        serve::LineClient::connect(o.socket);
    if (!client.ok()) throw std::runtime_error(client.error().to_string());
    const util::Result<std::string> resp = client.value().roundtrip(
        "{\"id\":\"cold\",\"op\":\"predict\",\"params\":" +
            expected.inputs[0].params + "}",
        120000);
    *seconds = static_cast<double>(now_ns() - t0) / 1e9;
    ++rep.attempted;
    if (!resp.ok()) {
      ++rep.failed;
    } else if (resp.value() != expected.predict("cold", 0)) {
      ++rep.failed;
      rep.mismatch = true;
    }
    return daemon;
  }

  void stop(Daemon& d) {
    peak_rss = std::max(peak_rss, peak_rss_mib(std::to_string(d.pid())));
    if (d.stop() != 0) {
      ++rep.failed;
      rep.heading("voprofd did not drain cleanly; see " + cfg.work_dir +
                  "/voprofd.log");
    }
  }

  PhaseResult run(OpenLoop& gen, const Phase& phase) {
    PhaseResult r;
    timed_call("serve", "phase." + phase.name, [&] { r = gen.run(phase); });
    const std::size_t bad = expected.mismatches(r);
    rep.attempted += r.attempted;
    rep.failed += r.failed() + bad;
    if (bad > 0) rep.mismatch = true;
    return r;
  }
};

/// Mean daemon `serve/predict` span, leaving out the first one: the
/// cold predict that trained the models.
double warm_predict_ms(const std::vector<Span>& spans) {
  std::vector<const Span*> predicts;
  for (const Span& sp : spans) {
    if (sp.cat == "serve" && sp.name == "predict") predicts.push_back(&sp);
  }
  if (predicts.size() < 2) return 0.0;
  const auto cold = std::min_element(
      predicts.begin(), predicts.end(),
      [](const Span* a, const Span* b) { return a->ts_us < b->ts_us; });
  double us = 0.0;
  for (const Span* sp : predicts) us += static_cast<double>(sp->dur_us);
  us -= static_cast<double>((*cold)->dur_us);
  return us / 1e3 / static_cast<double>(predicts.size() - 1);
}

RateOutcome outcome_of(double rate, const PhaseResult& r) {
  RateOutcome o;
  o.rate = rate;
  o.latency = summarize(r.predict_ms);
  o.failed = r.failed();
  o.late_p99_ms = summarize(r.late_ms).p99_ms;
  o.backlog_grew = r.backlog_grew;
  return o;
}

std::string rate_label(double rate) {
  return std::to_string(static_cast<long>(rate / 1000.0 + 0.5)) + "k";
}

void phase_row(Report& rep, const std::string& name, const RateOutcome& o) {
  char note[160];
  std::snprintf(note, sizeof note,
                "n=%zu p50=%.4f p99=%.4f ms late_p99=%.4f ms failed=%zu%s%s",
                o.latency.count, o.latency.p50_ms, o.latency.p99_ms,
                o.late_p99_ms, o.failed, o.backlog_grew ? " backlog" : "",
                rate_qualifies(o) ? " ok" : " MISSED");
  rep.row(name, o.rate, "req/s", note);
}

}  // namespace

Report run_serve(const RunConfig& cfg) {
  Report rep;
  const std::vector<PredictInput> inputs = make_inputs(cfg.seed);
  const std::string sim_text = with_seed(
      read_file(cfg.scenarios_dir + "/noisy_neighbour.conf"),
      scenario_seed(cfg.seed, 0));
  util::Json sim_params = util::Json::object();
  sim_params.set("scenario", sim_text);
  sim_params.set("replications", 1);

  // The daemon's default models, trained in-process for the checks.
  const serve::ServiceConfig defaults;
  const model::TrainedModels& models = runner::model_cache().get(
      model::RegressionMethod::kLms,
      util::seconds(defaults.train_duration_s), defaults.default_seed,
      static_cast<int>(util::TaskPool::default_jobs()));
  const Expected expected{
      models, inputs,
      serve::simulate_result_json(scenario::run_scenario_replicated(
          scenario::ScenarioSpec::parse(sim_text), 1, 1))};
  Harness h{cfg, expected, rep};
  const double s = cfg.seconds;

  if (!cfg.trace) {
    // Set-up, several times: spawn until the first predict succeeds.
    std::vector<double> setup;
    std::unique_ptr<Daemon> daemon;
    Daemon::Options opts;
    for (int k = 0; k < (cfg.smoke ? 1 : 3); ++k) {
      if (daemon) h.stop(*daemon);
      opts = h.options(false);
      setup.push_back(0.0);
      daemon = h.cold_start(opts, &setup.back());
    }
    OpenLoop gen(opts.socket, kConnections, inputs, sim_params.dump(0));
    RateSearch search(1.25, 2, kFixedRates[1], 400000.0);
    std::vector<RateOutcome> fixed;
    rep.heading("serve: open loop, " + std::to_string(kConnections) +
                " connections, voprofd --jobs " + std::to_string(kDaemonJobs));
    // One predict outstanding per connection: the latency of a request
    // that queues behind nothing. It is sampled in a short slice before
    // every other phase and once after the last, and the figure is the
    // median of the slice medians. A host stall of a few seconds then
    // raises only the slices it overlaps, not the figure.
    std::vector<double> serial_p50s;
    std::size_t serial_n = 0;
    const auto serial_slice = [&] {
      const LatencySummary l = summarize(
          h.run(gen, {"serial", 0.0, 0.0, kSerialSlice * s, 1}).predict_ms);
      if (l.count > 0) serial_p50s.push_back(l.p50_ms);
      serial_n += l.count;
    };
    const auto serial_then = [&](const Phase& phase) {
      serial_slice();
      return h.run(gen, phase);
    };
    std::vector<double> late;
    const auto ladder = [&](double rate, double seconds) {
      const PhaseResult r = serial_then({rate_label(rate), rate, 0.0, seconds});
      late.insert(late.end(), r.late_ms.begin(), r.late_ms.end());
      const RateOutcome o = outcome_of(rate, r);
      phase_row(rep, "ladder." + rate_label(rate), o);
      return o;
    };
    // The search starts at the top fixed rate: an idle daemon can miss
    // the limit at a low rate (slow wake-ups) yet meet it above.
    for (double rate : kFixedRates) fixed.push_back(ladder(rate, 0.15 * s));
    search.record(fixed.back().rate, rate_qualifies(fixed.back()));
    // Saturation is measured twice, around the search. The figure is
    // the upper quartile of 10 ms windows: a scheduling stall of the
    // host makes the slow windows, the upper quartile is what the daemon
    // sustains when it has its CPUs.
    const PhaseResult saturated_early =
        serial_then({"saturate", 0.0, 0.0, 0.1 * s, kWindow});
    for (int step = 0; step < (cfg.smoke ? 1 : 8) && search.next() > 0.0;
         ++step) {
      const double rate = search.next();
      search.record(rate, rate_qualifies(ladder(rate, 0.03 * s)));
    }
    const PhaseResult saturated_late =
        serial_then({"saturate", 0.0, 0.0, 0.1 * s, kWindow});
    std::vector<double> windows = saturated_early.window_rates;
    windows.insert(windows.end(), saturated_late.window_rates.begin(),
                   saturated_late.window_rates.end());
    const double saturated_rps = util::percentile(windows, 75.0);
    const PhaseResult mixed =
        serial_then({"mixed", kMixedPredictRate, kSimulateRate, 0.2 * s});
    serial_slice();
    h.stop(*daemon);
    const double serial_p50 =
        serial_p50s.empty() ? 0.0 : median_of(serial_p50s);

    const LatencySummary mixed_predict = summarize(mixed.predict_ms);
    const LatencySummary mixed_sim = summarize(mixed.simulate_ms);
    rep.row("predict_p50_ms.serial", serial_p50, "ms",
            "closed loop, 1 outstanding per connection, median of " +
                std::to_string(serial_p50s.size()) + " slices, n=" +
                std::to_string(serial_n));
    for (const RateOutcome& o : fixed) {
      const std::string k = rate_label(o.rate);
      const std::string n = "n=" + std::to_string(o.latency.count);
      rep.row("predict_p50_ms." + k, o.latency.p50_ms, "ms", n);
      rep.row("predict_p99_ms." + k, o.latency.p99_ms, "ms", n);
    }
    rep.row("predict_max_rps", search.best(), "req/s",
            "p99 <= 1 ms, no failure, generator on time, flat backlog");
    rep.row("predict_saturated_rps", saturated_rps, "req/s",
            "p75 of " + std::to_string(windows.size()) +
                " 10 ms windows, closed loop, " + std::to_string(kWindow) +
                " outstanding per connection");
    rep.row("mixed.predict_p99_ms", mixed_predict.p99_ms, "ms",
            "n=" + std::to_string(mixed_predict.count));
    rep.row("mixed.simulate_p50_ms", mixed_sim.p50_ms, "ms",
            "n=" + std::to_string(mixed_sim.count));
    rep.row("serve.gen_late_ms_p99", summarize(late).p99_ms, "ms",
            "ladder phases");
    EndToEnd e;
    e.setup_s = median_of(setup);
    e.setup_is = "spawn to first predict, median of " +
                 std::to_string(setup.size());
    e.peak_rss_mib = h.peak_rss;
    e.rss_of = "voprofd";
    e.op_p50_ms = serial_p50;
    e.op_is = "predict_p50_ms.serial";
    e.work_per_s = saturated_rps;
    e.work_is = "predict_saturated_rps";
    put_end_to_end(rep, e, true);
    return rep;
  }

  // Traced run: the same 10k phase against an untraced and a traced
  // daemon, then the mixed phase on the traced one.
  const Phase steady{"10k", 10000.0, 0.0, 0.25 * s};
  double cold_s = 0.0;
  LatencySummary untraced;
  double untraced_late_p99 = 0.0;
  {
    const Daemon::Options o = h.options(false);
    std::unique_ptr<Daemon> d = h.cold_start(o, &cold_s);
    OpenLoop gen(o.socket, kConnections, inputs, sim_params.dump(0));
    const PhaseResult r = h.run(gen, steady);
    untraced = summarize(r.predict_rtt_ms);
    untraced_late_p99 = summarize(r.late_ms).p99_ms;
    h.stop(*d);
  }
  const Daemon::Options o = h.options(true);
  const std::string client_trace = cfg.work_dir + "/trace-serve-client-" +
                                   std::to_string(cfg.seed) + ".json";
  const std::int64_t spawned_at = now_ns();
  std::unique_ptr<Daemon> d = h.cold_start(o, &cold_s);
  PhaseResult traced;
  {
    OpenLoop gen(o.socket, kConnections, inputs, sim_params.dump(0));
    (void)run_traced(rep, client_trace, [&] {
      traced = h.run(gen, steady);
      (void)h.run(gen, {"mixed", kMixedPredictRate, kSimulateRate, 0.25 * s});
    });
  }
  h.stop(*d);
  const double lifetime_s = static_cast<double>(now_ns() - spawned_at) / 1e9;
  const std::vector<Span> spans = digest_trace(
      rep, util::Json::parse(read_file(o.trace_out)), "voprofd trace");
  const Counters c = counters_from_json(
      util::Json::parse(read_file(o.metrics_out)).at("metrics"));
  const SpanTotal train = span_total(spans, "trainer", "train");
  const SpanTotal collect = span_total(spans, "trainer", "collect");
  const SpanTotal sims = span_total(spans, "scenario", "run_scenario");
  const double service_ms = warm_predict_ms(spans);
  const LatencySummary rtt = summarize(traced.predict_rtt_ms);
  const double events = delta({}, c, "engine.events_fired");

  std::map<std::string, double> layer;
  counter_layers(layer, {}, c, 1.0, lifetime_s, kDaemonJobs);
  layer["core.fit_s"] = (train.us - collect.us) / 1e6;
  layer["core.collect_s"] = collect.us / 1e6;
  layer["core.rows"] = static_cast<double>(models.data.size());
  layer["xensim.ns_per_event"] =
      events > 0 ? (span_total(spans, "trainer", "collect_run").us + sims.us) *
                       1e3 / events
                 : 0.0;
  layer["scenario.noisy_neighbour_s"] =
      sims.count > 0 ? sims.us / 1e6 / static_cast<double>(sims.count) : 0.0;
  layer["serve.service_ms_mean"] = service_ms;
  layer["serve.transport_ms_mean"] = rtt.mean_ms - service_ms;
  layer["serve.completed"] = delta({}, c, "serve.completed");
  layer["serve.rejected_overloaded"] = delta({}, c, "serve.rejected_overloaded");
  layer["serve.timed_out"] = delta({}, c, "serve.timed_out");
  layer["serve.gen_late_ms_p99"] = untraced_late_p99;
  layer["obs.trace_overhead"] = rtt.mean_ms / untraced.mean_ms;
  layer["obs.unattributed_share"] =
      rtt.mean_ms > 0 ? 1.0 - service_ms / rtt.mean_ms : 0.0;

  rep.heading("serve (traced run)");
  rep.row("setup_s", cold_s, "s", "traced daemon, spawn to first predict");
  rep.row("predict_rtt_ms.untraced", untraced.mean_ms, "ms",
          "mean, n=" + std::to_string(untraced.count));
  rep.row("predict_rtt_ms.traced", rtt.mean_ms, "ms",
          "mean, n=" + std::to_string(rtt.count));
  put_per_layer(rep, layer);
  return rep;
}

}  // namespace voprof::e2e
