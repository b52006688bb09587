#include "voprof/serve/service.hpp"

#include <chrono>
#include <future>
#include <initializer_list>
#include <thread>
#include <utility>
#include <vector>

#include "voprof/core/serialize.hpp"
#include "voprof/core/trainer.hpp"
#include "voprof/obs/metrics.hpp"
#include "voprof/obs/trace.hpp"
#include "voprof/runner/runner.hpp"
#include "voprof/scenario/scenario.hpp"
#include "voprof/util/numeric.hpp"
#include "voprof/util/units.hpp"

namespace voprof::serve {

namespace {

/// Handler-internal control flow: handlers signal a structured API
/// failure (bad params, expired deadline, ...) by throwing; dispatch's
/// caller turns it into the wire error. Anything else escaping a
/// handler is reported as `internal`.
struct ApiFailure {
  ApiError code;
  std::string message;
};

[[noreturn]] void fail(ApiError code, std::string message) {
  throw ApiFailure{code, std::move(message)};
}

void check_deadline(std::int64_t expires_us, const char* where) {
  if (obs::monotonic_us() >= expires_us) {
    fail(ApiError::kTimedOut,
         std::string("deadline expired (") + where + ")");
  }
}

// --- obs mirrors (function-local statics: registration is lazy and
// the references are process-immortal, same idiom as the runner) -----
obs::Counter& m_accepted() {
  static obs::Counter& c = obs::Registry::global().counter("serve.accepted");
  return c;
}
obs::Counter& m_completed() {
  static obs::Counter& c = obs::Registry::global().counter("serve.completed");
  return c;
}
obs::Counter& m_failed() {
  static obs::Counter& c = obs::Registry::global().counter("serve.failed");
  return c;
}
obs::Counter& m_timed_out() {
  static obs::Counter& c = obs::Registry::global().counter("serve.timed_out");
  return c;
}
obs::Counter& m_rejected_overloaded() {
  static obs::Counter& c =
      obs::Registry::global().counter("serve.rejected_overloaded");
  return c;
}
obs::Counter& m_rejected_shutting_down() {
  static obs::Counter& c =
      obs::Registry::global().counter("serve.rejected_shutting_down");
  return c;
}
obs::Counter& m_bad_requests() {
  static obs::Counter& c =
      obs::Registry::global().counter("serve.bad_requests");
  return c;
}
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

// --- typed params access --------------------------------------------
void check_param_keys(const util::Json& params,
                      std::initializer_list<const char*> allowed) {
  if (!params.is_object()) return;  // a default-built Request has null params
  for (const auto& [key, value] : params.as_object()) {
    (void)value;
    bool known = false;
    for (const char* a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      fail(ApiError::kBadRequest, "unknown param '" + key + "'");
    }
  }
}

double num_param(const util::Json& params, const char* key, double def) {
  const util::Json* v = params.find(key);
  if (v == nullptr) return def;
  if (!v->is_number()) {
    fail(ApiError::kBadRequest,
         std::string("param '") + key + "' must be a number");
  }
  return v->as_number();
}

int int_param(const util::Json& params, const char* key, int def) {
  const double v = num_param(params, key, static_cast<double>(def));
  int i = 0;
  if (!util::exact_int(v, i)) {
    fail(ApiError::kBadRequest,
         std::string("param '") + key + "' must be an integer");
  }
  return i;
}

std::string str_param(const util::Json& params, const char* key,
                      const std::string& def) {
  const util::Json* v = params.find(key);
  if (v == nullptr) return def;
  if (!v->is_string()) {
    fail(ApiError::kBadRequest,
         std::string("param '") + key + "' must be a string");
  }
  return v->as_string();
}

model::RegressionMethod method_param(const util::Json& params) {
  const std::string name = str_param(params, "method", "lms");
  if (name == "lms") return model::RegressionMethod::kLms;
  if (name == "ols") return model::RegressionMethod::kOls;
  fail(ApiError::kBadRequest,
       "param 'method' must be lms or ols, got '" + name + "'");
}

}  // namespace

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
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    m_bad_requests().add();
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
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    m_bad_requests().add();
    done(error_response(req.id, ApiError::kBadRequest,
                        "op 'sleep' is a diagnostics op; this server does "
                        "not enable test ops"));
    return;
  }
  if (draining_.load(std::memory_order_acquire)) {
    rejected_shutting_down_.fetch_add(1, std::memory_order_relaxed);
    m_rejected_shutting_down().add();
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
    rejected_overloaded_.fetch_add(1, std::memory_order_relaxed);
    m_rejected_overloaded().add();
    done(error_response(
        req.id, ApiError::kOverloaded,
        "queue full (" + std::to_string(config_.queue_capacity) +
            " requests in flight); retry later"));
    return;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  m_accepted().add();
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

Service::Stats Service::stats() const noexcept {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.timed_out = timed_out_.load(std::memory_order_relaxed);
  s.rejected_overloaded = rejected_overloaded_.load(std::memory_order_relaxed);
  s.rejected_shutting_down =
      rejected_shutting_down_.load(std::memory_order_relaxed);
  s.bad_requests = bad_requests_.load(std::memory_order_relaxed);
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
    timed_out_.fetch_add(1, std::memory_order_relaxed);
    m_timed_out().add();
    response = error_response(req.id, ApiError::kTimedOut,
                              "deadline expired while queued");
  } else {
    try {
      VOPROF_WALL_SPAN("serve", op_name(req.op));
      util::Json result = dispatch(req, expires_us);
      completed_.fetch_add(1, std::memory_order_relaxed);
      m_completed().add();
      response = ok_response(req.id, std::move(result));
    } catch (const ApiFailure& f) {
      if (f.code == ApiError::kTimedOut) {
        timed_out_.fetch_add(1, std::memory_order_relaxed);
        m_timed_out().add();
      } else {
        failed_.fetch_add(1, std::memory_order_relaxed);
        m_failed().add();
      }
      response = error_response(req.id, f.code, f.message);
    } catch (const std::exception& e) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      m_failed().add();
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

util::Json Service::dispatch(const Request& req, std::int64_t expires_us) {
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
  fail(ApiError::kInternal,
       std::string("op '") + op_name(req.op) + "' is not queueable");
}

util::Json Service::op_predict(const util::Json& params,
                               std::int64_t expires_us) {
  check_param_keys(params, {"method", "cpu", "mem", "io", "bw", "vms",
                            "train_duration_s", "seed"});
  const model::RegressionMethod method = method_param(params);
  const model::UtilVec sum{
      num_param(params, "cpu", 0.0), num_param(params, "mem", 0.0),
      num_param(params, "io", 0.0), num_param(params, "bw", 0.0)};
  const int n_vms = int_param(params, "vms", 1);
  if (n_vms < 1) fail(ApiError::kBadRequest, "param 'vms' must be >= 1");
  const double duration_s =
      num_param(params, "train_duration_s", config_.train_duration_s);
  if (duration_s <= 0) {
    fail(ApiError::kBadRequest, "param 'train_duration_s' must be > 0");
  }
  const std::uint64_t seed = static_cast<std::uint64_t>(int_param(
      params, "seed", static_cast<int>(config_.default_seed)));

  // First use of a (method, duration, seed) cell trains the models;
  // afterwards the process-wide cache answers instantly. The fitted
  // coefficients are independent of inner_jobs, so responses are
  // byte-identical no matter how the daemon is parallelized.
  check_deadline(expires_us, "before training");
  const model::TrainedModels& models = runner::model_cache().get(
      method, util::seconds(duration_s), seed, config_.inner_jobs);
  check_deadline(expires_us, "after training");

  return predict_result_json(models, sum, n_vms);
}

util::Json Service::op_simulate(const util::Json& params,
                                std::int64_t expires_us) {
  check_param_keys(params, {"scenario", "replications"});
  const std::string text = str_param(params, "scenario", "");
  if (text.empty()) {
    fail(ApiError::kBadRequest,
         "param 'scenario' (INI text) is required for simulate");
  }
  const int replications = int_param(params, "replications", 1);
  if (replications < 1) {
    fail(ApiError::kBadRequest, "param 'replications' must be >= 1");
  }
  util::Result<scenario::ScenarioSpec> parsed =
      scenario::ScenarioSpec::parse_result(text);
  if (!parsed.ok()) {
    fail(ApiError::kBadRequest, parsed.error().to_string());
  }
  const scenario::ScenarioSpec spec = std::move(parsed).take();

  check_deadline(expires_us, "before simulation");
  const scenario::ReplicatedScenarioResult result =
      scenario::run_scenario_replicated(
          spec, static_cast<std::size_t>(replications), config_.inner_jobs,
          [expires_us]() { return obs::monotonic_us() < expires_us; });
  if (result.replications < static_cast<std::size_t>(replications)) {
    fail(ApiError::kTimedOut,
         "deadline expired after " + std::to_string(result.replications) +
             " of " + std::to_string(replications) + " replications");
  }

  return simulate_result_json(result);
}

util::Json Service::op_train(const util::Json& params,
                             std::int64_t expires_us) {
  check_param_keys(params, {"method", "duration_s", "seed"});
  const model::RegressionMethod method = method_param(params);
  const double duration_s =
      num_param(params, "duration_s", config_.train_duration_s);
  if (duration_s <= 0) {
    fail(ApiError::kBadRequest, "param 'duration_s' must be > 0");
  }
  const std::uint64_t seed = static_cast<std::uint64_t>(int_param(
      params, "seed", static_cast<int>(config_.default_seed)));

  check_deadline(expires_us, "before training");
  const model::TrainedModels& models = runner::model_cache().get(
      method, util::seconds(duration_s), seed, config_.inner_jobs);
  check_deadline(expires_us, "after training");

  util::Json result = util::Json::object();
  result.set("method", str_param(params, "method", "lms"));
  result.set("observations", static_cast<double>(models.data.size()));
  result.set("cached_trainings",
             static_cast<double>(runner::model_cache().trainings()));
  // The serialized model text: clients can store it and later run
  // `voprofctl predict --models` offline against the same fit.
  result.set("models", model::models_to_string(models));
  return result;
}

util::Json Service::op_sleep(const util::Json& params,
                             std::int64_t expires_us) {
  check_param_keys(params, {"ms"});
  const double total_ms = num_param(params, "ms", 0.0);
  if (total_ms < 0) fail(ApiError::kBadRequest, "param 'ms' must be >= 0");
  // Sleep in small slices so an expired deadline is noticed promptly —
  // the same cooperative-checkpoint discipline the real handlers use.
  double slept_ms = 0.0;
  while (slept_ms < total_ms) {
    check_deadline(expires_us, "mid-sleep");
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
  j.set("accepted", static_cast<double>(s.accepted));
  j.set("completed", static_cast<double>(s.completed));
  j.set("failed", static_cast<double>(s.failed));
  j.set("timed_out", static_cast<double>(s.timed_out));
  j.set("rejected_overloaded", static_cast<double>(s.rejected_overloaded));
  j.set("rejected_shutting_down",
        static_cast<double>(s.rejected_shutting_down));
  j.set("bad_requests", static_cast<double>(s.bad_requests));
  j.set("test_ops", config_.enable_test_ops);
  return j;
}

}  // namespace voprof::serve
