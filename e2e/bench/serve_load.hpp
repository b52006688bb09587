#pragma once
/// \file serve_load.hpp
/// The serve workload's machinery: a spawned voprofd child process and
/// an open-loop request generator over persistent Unix-socket
/// connections. Every request is timed from the moment it was due to
/// be sent, so a stall also charges the requests queued behind it.

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "voprof/core/utilvec.hpp"
#include "voprof/serve/socket.hpp"

namespace voprof::e2e {

/// One voprofd child. The destructor kills and reaps a daemon that was
/// not stopped, so no exit path leaves a process behind.
class Daemon {
 public:
  struct Options {
    std::string exe;
    std::string socket;
    std::string log;          ///< daemon stdout/stderr go here
    int jobs = 2;
    std::string trace_out;    ///< empty: untraced
    std::string metrics_out;  ///< empty: no snapshot
  };

  /// Spawn the daemon and wait until its socket accepts connections.
  /// Throws std::runtime_error when it exits or stays silent.
  explicit Daemon(const Options& opts);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  /// SIGTERM, wait for the drain; returns the exit status (-1 when it
  /// had to be killed).
  int stop();

 private:
  pid_t pid_ = -1;
};

/// One seeded `predict` input and its request parameters.
struct PredictInput {
  model::UtilVec sum;
  int vms = 1;
  std::string params;  ///< compact JSON object sent as "params"
};

/// A phase of `seconds`: predicts at `predict_rate` beside simulates at
/// `simulate_rate` (either may be 0). With `window` > 0 the predicts
/// are a closed loop instead: each connection keeps `window` of them
/// outstanding, which measures the daemon's saturation throughput.
struct Phase {
  std::string name;
  double predict_rate = 0.0;
  double simulate_rate = 0.0;
  double seconds = 1.0;
  std::size_t window = 0;
};

/// Everything one phase observed, merged over its connections.
struct PhaseResult {
  std::vector<double> predict_ms;   ///< response time − due time
  std::vector<double> simulate_ms;
  std::vector<double> predict_rtt_ms;  ///< response time − send time
  std::vector<double> late_ms;      ///< send time − due time (open loop)
  /// Closed loop: completed predicts per second in each 10 ms window.
  std::vector<double> window_rates;
  bool backlog_grew = false;
  std::size_t attempted = 0;
  std::size_t overloaded = 0;
  std::size_t timed_out = 0;
  std::size_t other_errors = 0;
  std::size_t lost = 0;  ///< unsent or unanswered at the drain deadline
  /// (predict input index, request id, response line), every 32nd
  /// predict; checked against the library afterwards.
  struct Sample {
    std::size_t input = 0;
    std::string id;
    std::string line;
  };
  std::vector<Sample> predict_samples;
  std::vector<Sample> simulate_responses;  ///< all of them
  [[nodiscard]] std::size_t failed() const {
    return overloaded + timed_out + other_errors + lost;
  }
};

/// Open-loop generator over `connections` persistent connections,
/// driven from the calling thread. Requests of a phase are dealt
/// round-robin to the connections and sent on schedule, with responses
/// read in between, so the offered load does not depend on the
/// daemon's speed; only a connection at its in-flight cap holds sends
/// back, which then shows as generator lateness.
class OpenLoop {
 public:
  OpenLoop(const std::string& socket, int connections,
           const std::vector<PredictInput>& predicts,
           std::string simulate_params);

  [[nodiscard]] PhaseResult run(const Phase& phase);

 private:
  std::vector<serve::Fd> fds_;
  const std::vector<PredictInput>& predicts_;
  std::string simulate_params_;
  std::size_t phases_run_ = 0;  ///< prefixes request ids per phase
  std::size_t next_input_ = 0;  ///< rotates inputs across phases
};

}  // namespace voprof::e2e
