#pragma once
/// \file service.hpp
/// The transport-independent core of voprofd: admits voprof-api-1
/// requests into a bounded queue, executes them on a util::TaskPool
/// and delivers serialized responses through a callback. The daemon
/// (daemon.hpp) adds the Unix-socket transport; tests and `voprofctl`
/// exercise this class directly.
///
/// Concurrency model:
///  * Admission is a single atomic in-flight count (queued + running)
///    checked against ServiceConfig::queue_capacity. A submit that
///    would exceed the bound is rejected with `overloaded`
///    immediately, on the calling thread — the service never blocks
///    the caller on a full queue.
///  * Every admitted request carries an absolute deadline (the
///    client's deadline_ms clamped to max_deadline_ms, or the server
///    default). The deadline is re-checked when a worker picks the
///    request up — work that expired while queued is answered
///    `timed_out` without running — and at cooperative checkpoints
///    inside the long handlers (between simulate replications, between
///    sleep slices).
///  * begin_drain() flips the service into drain mode: new work is
///    rejected with `shutting_down`, everything already admitted runs
///    to completion, and wait_idle() blocks until the last response
///    has been produced. This is the SIGTERM path of voprofd.
///  * Control ops (`status`, `drain`, `metrics`) bypass the queue and
///    execute inline on the submitting thread: they stay responsive
///    while the workers are saturated, and they do not appear in the
///    accepted/completed counters.
///
/// The responder callback is invoked exactly once per request: on the
/// submitting thread for rejections and control ops, on a worker
/// thread otherwise. It must be thread-safe against the caller's own
/// context and should only hand the line to the transport.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "voprof/core/trainer.hpp"
#include "voprof/scenario/scenario.hpp"
#include "voprof/serve/api.hpp"
#include "voprof/util/json.hpp"
#include "voprof/util/task_pool.hpp"

namespace voprof::serve {

/// The `predict` result object of voprof-api-1. Shared by the daemon
/// and `voprofctl predict --format json`, so a prediction served over
/// the socket and one computed against the library in-process are
/// byte-identical for the same models and inputs.
[[nodiscard]] util::Json predict_result_json(
    const model::TrainedModels& models, const model::UtilVec& sum,
    int n_vms);

/// The `simulate` result object of voprof-api-1 (per-machine,
/// per-entity aggregate stats). Same sharing contract as above.
[[nodiscard]] util::Json simulate_result_json(
    const scenario::ReplicatedScenarioResult& result);

/// The voprof-metrics-1 document: `{"schema", "metrics"}` with every
/// obs registry metric by name (counters and gauges as numbers,
/// histograms as `{count, mean}`). The one serializer behind both the
/// `metrics` op and voprofd's `--metrics-out` snapshot.
[[nodiscard]] util::Json metrics_json();

/// Tunables of one Service instance. The defaults suit an interactive
/// daemon; tests shrink capacity/jobs to force the edge cases.
struct ServiceConfig {
  /// Worker threads executing requests (0 = all hardware threads).
  /// Workers are real threads even when jobs == 1 (the pool runs in
  /// Threading::kAlwaysThreaded mode) so submit() never executes a
  /// request inline.
  int jobs = 0;
  /// Bound on admitted-but-unfinished requests (queued + running).
  std::size_t queue_capacity = 64;
  /// Deadline applied when a request does not name one (ms).
  std::int64_t default_deadline_ms = 30000;
  /// Upper clamp on client-supplied deadlines (ms).
  std::int64_t max_deadline_ms = 600000;
  /// Training-sweep cell duration backing `predict`/`train` when the
  /// request does not override it (seconds; the paper trains on
  /// 2-minute cells).
  double train_duration_s = 120.0;
  /// Seed for trainings that do not name one.
  std::uint64_t default_seed = 42;
  /// Parallelism *inside* one request (training sweep fan-out,
  /// simulate replications). Kept at 1 so concurrent requests share
  /// the machine fairly; raise it for a single-tenant daemon.
  int inner_jobs = 1;
  /// Serve the `sleep` diagnostics op. Off in production; tests and
  /// the CI smoke enable it to hold workers busy deterministically.
  bool enable_test_ops = false;
};

class Service {
 public:
  explicit Service(ServiceConfig config = {});
  /// Drains (rejecting new work) and waits for in-flight requests.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Receives the serialized response line (no trailing newline).
  using Responder = std::function<void(std::string)>;

  /// Parse one NDJSON request line, admit it and eventually respond.
  /// Never throws and never blocks on a full queue: parse errors,
  /// overload and drain rejections invoke `done` before returning.
  void submit_line(const std::string& line, Responder done);

  /// As submit_line for an already-parsed request.
  void submit(Request req, Responder done);

  /// Blocking convenience: submit_line and wait for the response.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// Stop admitting work; already-admitted requests still complete.
  void begin_drain();
  [[nodiscard]] bool draining() const noexcept;
  /// Block until no admitted request remains unfinished.
  void wait_idle();

  /// Admitted requests not yet responded to (queued + running).
  [[nodiscard]] std::size_t in_flight() const noexcept;
  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

  /// What became of a queued-op request: admitted (kAccepted) and
  /// then kCompleted, kFailed or kTimedOut, or turned away at
  /// submit. Control ops are not counted.
  enum class Outcome : std::size_t {
    kAccepted,
    kCompleted,
    kFailed,
    kTimedOut,
    kRejectedOverloaded,
    kRejectedShuttingDown,
    kBadRequest,
  };
  static constexpr std::size_t kOutcomeCount = 7;

  /// Lifetime totals per Outcome, mirrored into the obs registry as
  /// serve.<name>, where <name> is the key the `status` op reports
  /// the total under (e.g. rejected_overloaded).
  struct Stats {
    std::array<std::uint64_t, kOutcomeCount> counts{};
    [[nodiscard]] std::uint64_t operator[](Outcome o) const noexcept {
      return counts[static_cast<std::size_t>(o)];
    }
  };
  [[nodiscard]] Stats stats() const noexcept;

 private:
  void run_request(const Request& req, std::int64_t expires_us,
                   const Responder& done);
  [[nodiscard]] std::string run_control(const Request& req);
  /// A handler's answer: its result object or the wire error.
  struct Reply;
  [[nodiscard]] Reply dispatch(const Request& req, std::int64_t expires_us);
  [[nodiscard]] Reply op_predict(const util::Json& params,
                                 std::int64_t expires_us);
  [[nodiscard]] Reply op_simulate(const util::Json& params,
                                  std::int64_t expires_us);
  [[nodiscard]] Reply op_train(const util::Json& params,
                               std::int64_t expires_us);
  [[nodiscard]] Reply op_sleep(const util::Json& params,
                               std::int64_t expires_us);
  [[nodiscard]] util::Json status_json() const;
  [[nodiscard]] std::int64_t expiry_for(std::int64_t deadline_ms) const;
  void finish_one();
  /// Count one request's outcome here and in its serve.* counter.
  void count(Outcome o);

  ServiceConfig config_;
  util::TaskPool pool_;
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> in_flight_{0};

  std::array<std::atomic<std::uint64_t>, kOutcomeCount> counts_{};

  mutable std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
};

}  // namespace voprof::serve
