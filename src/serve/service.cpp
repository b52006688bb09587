#include "voprof/serve/service.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "voprof/core/serialize.hpp"
#include "voprof/core/trainer.hpp"
#include "voprof/obs/metrics.hpp"
#include "voprof/obs/trace.hpp"
#include "voprof/runner/runner.hpp"
#include "voprof/scenario/scenario.hpp"
#include "voprof/util/cli.hpp"
#include "voprof/util/units.hpp"

namespace voprof::serve {

namespace {

constexpr auto kNum = util::FlagSpec::Kind::kNumber;
constexpr auto kInt = util::FlagSpec::Kind::kInteger;
constexpr auto kNonNeg = util::FlagSpec::Bound::kNonNegative;
constexpr auto kPos = util::FlagSpec::Bound::kPositive;

bool expired(std::int64_t expires_us) {
  return obs::monotonic_us() >= expires_us;
}

// --- obs mirrors (function-local statics: registration is lazy and
// the references are process-immortal, same idiom as the runner) -----
obs::Counter& m_control() {
  static obs::Counter& c =
      obs::Registry::global().counter("serve.control_requests");
  return c;
}
obs::Gauge& m_queue_depth() {
  static obs::Gauge& g = obs::Registry::global().gauge("serve.queue_depth");
  return g;
}
obs::Histogram& m_request_ms() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "serve.request_ms", {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000,
                           5000, 10000, 30000, 60000});
  return h;
}

/// Service::Outcome names, in enum order.
constexpr std::array<const char*, Service::kOutcomeCount> kOutcomeNames = {
    "accepted",  "completed",           "failed",
    "timed_out", "rejected_overloaded", "rejected_shutting_down",
    "bad_requests"};

/// The serve.<name> counter of an outcome, registered on its first
/// count as the statics above are.
obs::Counter& outcome_counter(Service::Outcome o) {
  static std::array<std::atomic<obs::Counter*>, Service::kOutcomeCount>
      counters{};
  const auto i = static_cast<std::size_t>(o);
  obs::Counter* c = counters[i].load(std::memory_order_acquire);
  if (c == nullptr) {
    // Racing first counts get the same counter from the registry.
    c = &obs::Registry::global().counter(std::string("serve.") +
                                         kOutcomeNames[i]);
    counters[i].store(c, std::memory_order_release);
  }
  return *c;
}

/// The params each queued op accepts (docs/API.md lists them).
const std::vector<util::FlagSpec>& params_of(Op op) {
  using F = util::FlagSpec;
  static const F method{"method", F::Kind::kText, F::Bound::kNone, false,
                        {"lms", "ols"}};
  static const std::vector<F> predict = {
      method, {"cpu", kNum, kNonNeg}, {"mem", kNum, kNonNeg},
      {"io", kNum, kNonNeg}, {"bw", kNum, kNonNeg}, {"vms", kInt, kPos},
      {"train_duration_s", kNum, kPos}, {"seed", kInt, kNonNeg}};
  static const std::vector<F> simulate = {
      {"scenario", F::Kind::kText, F::Bound::kNone, true},
      {"replications", kInt, kPos}};
  static const std::vector<F> train = {
      method, {"duration_s", kNum, kPos}, {"seed", kInt, kNonNeg}};
  static const std::vector<F> sleep = {{"ms", kNum, kNonNeg}};
  static const std::vector<F> none;
  switch (op) {
    case Op::kPredict:
      return predict;
    case Op::kSimulate:
      return simulate;
    case Op::kTrain:
      return train;
    case Op::kSleep:
      return sleep;
    default:
      return none;
  }
}

/// `method` of checked params.
model::RegressionMethod method_of(const util::Json& params) {
  return params.string_or("method", "lms") == "ols"
             ? model::RegressionMethod::kOls
             : model::RegressionMethod::kLms;
}

}  // namespace

/// One return type for every handler: a result object or an
/// (ApiError, message) pair, so run_request sees each outcome as a
/// value.
struct Service::Reply {
  Reply(util::Json r) : result(std::move(r)) {}  // NOLINT(*-explicit-*)
  Reply(ApiError c, std::string m)
      : failed(true), code(c), message(std::move(m)) {}
  /// The answer of a request whose deadline passed at `where`.
  static Reply timed_out(const char* where) {
    return {ApiError::kTimedOut, std::string("deadline expired (") + where +
                                     ")"};
  }

  util::Json result;
  bool failed = false;
  ApiError code = ApiError::kInternal;
  std::string message;
};

util::Json predict_result_json(const model::TrainedModels& models,
                               const model::UtilVec& sum, int n_vms) {
  const model::UtilVec pm = models.multi.predict(sum, n_vms);
  util::Json sum_j = util::Json::object();
  sum_j.set("cpu", sum.cpu);
  sum_j.set("mem", sum.mem);
  sum_j.set("io", sum.io);
  sum_j.set("bw", sum.bw);
  util::Json pm_j = util::Json::object();
  pm_j.set("cpu", models.multi.predict_pm_cpu_indirect(sum, n_vms));
  pm_j.set("mem", pm.mem);
  pm_j.set("io", pm.io);
  pm_j.set("bw", pm.bw);
  util::Json result = util::Json::object();
  result.set("vms", n_vms);
  result.set("sum", std::move(sum_j));
  result.set("pm", std::move(pm_j));
  result.set("dom0_cpu", models.multi.predict_dom0_cpu(sum, n_vms));
  result.set("hyp_cpu", models.multi.predict_hyp_cpu(sum, n_vms));
  return result;
}

util::Json simulate_result_json(
    const scenario::ReplicatedScenarioResult& result) {
  util::Json machines = util::Json::object();
  for (const auto& [machine, entities] : result.stats) {
    util::Json entities_j = util::Json::object();
    for (const auto& [key, s] : entities) {
      util::Json e = util::Json::object();
      e.set("cpu_mean", s.cpu.mean());
      e.set("cpu_stddev", s.cpu.stddev());
      e.set("mem_mean", s.mem.mean());
      e.set("io_mean", s.io.mean());
      e.set("bw_mean", s.bw.mean());
      e.set("samples", static_cast<double>(s.cpu.count()));
      entities_j.set(key, std::move(e));
    }
    machines.set(std::to_string(machine), std::move(entities_j));
  }
  util::Json result_j = util::Json::object();
  result_j.set("replications", static_cast<double>(result.replications));
  result_j.set("machines", std::move(machines));
  return result_j;
}

util::Json metrics_json() {
  const obs::Registry::Snapshot snap = obs::Registry::global().snapshot();
  util::Json metrics = util::Json::object();
  for (const auto& e : snap.entries) {
    if (e.kind == "histogram") {
      util::Json h = util::Json::object();
      h.set("count", static_cast<double>(e.hist.count));
      h.set("mean", e.hist.mean());
      metrics.set(e.name, std::move(h));
    } else {
      metrics.set(e.name, e.value);
    }
  }
  util::Json doc = util::Json::object();
  doc.set("schema", "voprof-metrics-1");
  doc.set("metrics", std::move(metrics));
  return doc;
}

Service::Service(ServiceConfig config)
    : config_(config),
      pool_(config.jobs <= 0 ? 0 : static_cast<std::size_t>(config.jobs),
            util::TaskPool::Threading::kAlwaysThreaded) {}

Service::~Service() {
  begin_drain();
  wait_idle();
}

void Service::submit_line(const std::string& line, Responder done) {
  util::Result<Request> parsed = parse_request(line);
  if (!parsed.ok()) {
    count(Outcome::kBadRequest);
    done(error_response("", ApiError::kBadRequest,
                        parsed.error().to_string()));
    return;
  }
  submit(std::move(parsed).take(), std::move(done));
}

void Service::submit(Request req, Responder done) {
  // Control ops stay out of the queue so the daemon remains
  // observable and stoppable while the workers are saturated.
  if (req.op == Op::kStatus || req.op == Op::kDrain ||
      req.op == Op::kMetrics) {
    m_control().add();
    done(run_control(req));
    return;
  }
  if (req.op == Op::kSleep && !config_.enable_test_ops) {
    count(Outcome::kBadRequest);
    done(error_response(req.id, ApiError::kBadRequest,
                        "op 'sleep' is a diagnostics op; this server does "
                        "not enable test ops"));
    return;
  }
  if (draining_.load(std::memory_order_acquire)) {
    count(Outcome::kRejectedShuttingDown);
    done(error_response(req.id, ApiError::kShuttingDown,
                        "server is draining; no new work is admitted"));
    return;
  }

  // Admission: one atomic bound on queued + running requests. On
  // overload the count is rolled back and the caller is answered
  // immediately — submit never blocks on a full queue.
  const std::size_t prev = in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (prev >= config_.queue_capacity) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    count(Outcome::kRejectedOverloaded);
    done(error_response(
        req.id, ApiError::kOverloaded,
        "queue full (" + std::to_string(config_.queue_capacity) +
            " requests in flight); retry later"));
    return;
  }
  count(Outcome::kAccepted);
  m_queue_depth().set(static_cast<double>(prev + 1));

  const std::int64_t expires_us = expiry_for(req.deadline_ms);
  (void)pool_.submit(
      [this, req = std::move(req), expires_us, done = std::move(done)]() {
        run_request(req, expires_us, done);
      });
}

std::string Service::handle_line(const std::string& line) {
  std::promise<std::string> promise;
  std::future<std::string> response = promise.get_future();
  submit_line(line, [&promise](std::string resp) {
    promise.set_value(std::move(resp));
  });
  return response.get();
}

void Service::begin_drain() { draining_.store(true, std::memory_order_release); }

bool Service::draining() const noexcept {
  return draining_.load(std::memory_order_acquire);
}

void Service::wait_idle() {
  std::unique_lock<std::mutex> lock(idle_mutex_);
  idle_cv_.wait(lock, [this]() {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

std::size_t Service::in_flight() const noexcept {
  return in_flight_.load(std::memory_order_acquire);
}

void Service::count(Outcome o) {
  counts_[static_cast<std::size_t>(o)].fetch_add(1, std::memory_order_relaxed);
  outcome_counter(o).add();
}

Service::Stats Service::stats() const noexcept {
  Stats s;
  for (std::size_t i = 0; i < kOutcomeCount; ++i) {
    s.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return s;
}

std::int64_t Service::expiry_for(std::int64_t deadline_ms) const {
  std::int64_t ms =
      deadline_ms > 0 ? deadline_ms : config_.default_deadline_ms;
  if (ms > config_.max_deadline_ms) ms = config_.max_deadline_ms;
  return obs::monotonic_us() + ms * 1000;
}

void Service::finish_one() {
  std::lock_guard<std::mutex> lock(idle_mutex_);
  const std::size_t now = in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  m_queue_depth().set(static_cast<double>(now - 1));
  idle_cv_.notify_all();
}

void Service::run_request(const Request& req, std::int64_t expires_us,
                          const Responder& done) {
  const std::int64_t t0 = obs::monotonic_us();
  std::string response;
  if (t0 >= expires_us) {
    // Expired while queued: answer without running the work at all.
    count(Outcome::kTimedOut);
    response = error_response(req.id, ApiError::kTimedOut,
                              "deadline expired while queued");
  } else {
    try {
      VOPROF_WALL_SPAN("serve", op_name(req.op));
      Reply reply = dispatch(req, expires_us);
      if (!reply.failed) {
        count(Outcome::kCompleted);
        response = ok_response(req.id, std::move(reply.result));
      } else {
        if (reply.code == ApiError::kTimedOut) {
          count(Outcome::kTimedOut);
        } else {
          count(Outcome::kFailed);
        }
        response = error_response(req.id, reply.code, reply.message);
      }
    } catch (const std::exception& e) {
      count(Outcome::kFailed);
      response = error_response(req.id, ApiError::kInternal, e.what());
    }
  }
  m_request_ms().observe(
      static_cast<double>(obs::monotonic_us() - t0) / 1000.0);
  // Deliver BEFORE decrementing in-flight: a drainer observing zero
  // in-flight must be guaranteed every response has been handed to
  // its responder already.
  done(std::move(response));
  finish_one();
}

std::string Service::run_control(const Request& req) {
  if (req.op == Op::kDrain) {
    begin_drain();
    util::Json result = util::Json::object();
    result.set("draining", true);
    result.set("in_flight", static_cast<double>(in_flight()));
    return ok_response(req.id, std::move(result));
  }
  if (req.op == Op::kMetrics) return ok_response(req.id, metrics_json());
  return ok_response(req.id, status_json());
}

Service::Reply Service::dispatch(const Request& req,
                                std::int64_t expires_us) {
  // Checked once here: the handlers read their params without fail.
  const util::Result<bool> checked =
      util::check_params(req.params, params_of(req.op));
  if (!checked.ok()) return {ApiError::kBadRequest, checked.error().message};
  switch (req.op) {
    case Op::kPredict:
      return op_predict(req.params, expires_us);
    case Op::kSimulate:
      return op_simulate(req.params, expires_us);
    case Op::kTrain:
      return op_train(req.params, expires_us);
    case Op::kSleep:
      return op_sleep(req.params, expires_us);
    case Op::kStatus:
    case Op::kDrain:
    case Op::kMetrics:
      break;  // handled inline by submit(); unreachable here
  }
  return {ApiError::kInternal,
          std::string("op '") + op_name(req.op) + "' is not queueable"};
}

Service::Reply Service::op_predict(const util::Json& params,
                                   std::int64_t expires_us) {
  const model::UtilVec sum{
      params.number_or("cpu", 0.0), params.number_or("mem", 0.0),
      params.number_or("io", 0.0), params.number_or("bw", 0.0)};
  const int n_vms = static_cast<int>(params.number_or("vms", 1));
  const double duration_s =
      params.number_or("train_duration_s", config_.train_duration_s);
  const auto seed = static_cast<std::uint64_t>(
      params.number_or("seed", static_cast<double>(config_.default_seed)));

  // First use of a (method, duration, seed) cell trains the models;
  // afterwards the process-wide cache answers instantly. The fitted
  // coefficients are independent of inner_jobs, so responses are
  // byte-identical no matter how the daemon is parallelized.
  if (expired(expires_us)) return Reply::timed_out("before training");
  const model::TrainedModels& models = runner::model_cache().get(
      method_of(params), util::seconds(duration_s), seed, config_.inner_jobs);
  if (expired(expires_us)) return Reply::timed_out("after training");
  return predict_result_json(models, sum, n_vms);
}

Service::Reply Service::op_simulate(const util::Json& params,
                                    std::int64_t expires_us) {
  const int replications =
      static_cast<int>(params.number_or("replications", 1));
  // Parsed from text, a scenario names no file: a `trace` key is a
  // bad_request before anything is opened.
  util::Result<scenario::ScenarioSpec> parsed =
      scenario::ScenarioSpec::parse_result(params.at("scenario").as_string());
  if (!parsed.ok()) {
    return {ApiError::kBadRequest, parsed.error().to_string()};
  }
  const scenario::ScenarioSpec spec = std::move(parsed).take();

  if (expired(expires_us)) return Reply::timed_out("before simulation");
  const scenario::ReplicatedScenarioResult result =
      scenario::run_scenario_replicated(
          spec, static_cast<std::size_t>(replications), config_.inner_jobs,
          [expires_us]() { return !expired(expires_us); });
  if (result.replications < static_cast<std::size_t>(replications)) {
    return {ApiError::kTimedOut,
            "deadline expired after " + std::to_string(result.replications) +
                " of " + std::to_string(replications) + " replications"};
  }
  return simulate_result_json(result);
}

Service::Reply Service::op_train(const util::Json& params,
                                 std::int64_t expires_us) {
  const double duration_s =
      params.number_or("duration_s", config_.train_duration_s);
  const auto seed = static_cast<std::uint64_t>(
      params.number_or("seed", static_cast<double>(config_.default_seed)));

  if (expired(expires_us)) return Reply::timed_out("before training");
  const model::TrainedModels& models = runner::model_cache().get(
      method_of(params), util::seconds(duration_s), seed, config_.inner_jobs);
  if (expired(expires_us)) return Reply::timed_out("after training");

  util::Json result = util::Json::object();
  result.set("method", params.string_or("method", "lms"));
  result.set("observations", static_cast<double>(models.data.size()));
  result.set("cached_trainings",
             static_cast<double>(runner::model_cache().trainings()));
  // The serialized model text: clients can store it and later run
  // `voprofctl predict --models` offline against the same fit.
  result.set("models", model::models_to_string(models));
  return result;
}

Service::Reply Service::op_sleep(const util::Json& params,
                                 std::int64_t expires_us) {
  const double total_ms = params.number_or("ms", 0.0);
  // Sleep in small slices so an expired deadline is noticed promptly —
  // the same cooperative-checkpoint discipline the real handlers use.
  double slept_ms = 0.0;
  while (slept_ms < total_ms) {
    if (expired(expires_us)) return Reply::timed_out("mid-sleep");
    const double slice = total_ms - slept_ms < 5.0 ? total_ms - slept_ms : 5.0;
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<std::int64_t>(slice * 1000)));
    slept_ms += slice;
  }
  util::Json result = util::Json::object();
  result.set("slept_ms", total_ms);
  return result;
}

util::Json Service::status_json() const {
  const Stats s = stats();
  util::Json j = util::Json::object();
  j.set("jobs", static_cast<double>(pool_.jobs()));
  j.set("queue_capacity", static_cast<double>(config_.queue_capacity));
  j.set("in_flight", static_cast<double>(in_flight()));
  j.set("draining", draining());
  for (std::size_t i = 0; i < kOutcomeCount; ++i) {
    j.set(kOutcomeNames[i], static_cast<double>(s.counts[i]));
  }
  j.set("test_ops", config_.enable_test_ops);
  return j;
}

}  // namespace voprof::serve
