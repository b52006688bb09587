#pragma once
/// \file daemon.hpp
/// voprofd's transport shell: a single-threaded poll() event loop that
/// accepts Unix-socket connections, frames NDJSON request lines into
/// serve::Service and writes the responses back as they complete.
///
/// Threading: the event loop owns every socket and connection buffer;
/// Service workers never touch an fd. A worker finishing a request
/// pushes (connection id, response line) onto a mutex-protected
/// completion queue and writes one byte to a self-pipe, which wakes
/// poll(); the loop then moves the line into the connection's write
/// buffer. SIGTERM/SIGINT write to the same pipe from the (optional)
/// signal handler, so the loop has exactly one wakeup mechanism.
///
/// Shutdown: a signal, request_stop() or a `drain` request flips the
/// service into drain mode. The loop then stops accepting connections,
/// keeps serving reads/writes until every admitted request has
/// produced its response AND every response byte has been flushed,
/// writes the final metrics/trace artifacts and removes the socket.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "voprof/serve/service.hpp"
#include "voprof/serve/socket.hpp"
#include "voprof/util/cli.hpp"
#include "voprof/util/result.hpp"

namespace voprof::serve {

struct DaemonConfig {
  /// Filesystem path of the Unix-domain listening socket (required).
  std::string socket_path;
  ServiceConfig service;
  /// Handle SIGTERM/SIGINT as graceful drain. Tests that run the
  /// daemon in-process turn this off and use request_stop().
  bool install_signal_handlers = true;
  /// When non-empty, write a JSON snapshot of the obs metrics registry
  /// here during shutdown (the daemon's "final flush").
  std::string metrics_out;
  /// Reject a request line that exceeds this many bytes.
  std::size_t max_line_bytes = 1 << 20;
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind the socket and run the event loop until shutdown. Blocks;
  /// returns true after a clean drain, or Errc::kIo when the socket
  /// cannot be set up.
  [[nodiscard]] util::Result<bool> run();

  /// Thread-safe: begin a graceful drain-and-exit (same effect as
  /// SIGTERM). Safe to call before or during run().
  void request_stop();

  /// True while run() is inside the event loop (the listening socket
  /// is bound and accepting). Tests poll this before connecting.
  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  [[nodiscard]] Service& service() noexcept { return service_; }
  [[nodiscard]] const DaemonConfig& config() const noexcept {
    return config_;
  }

 private:
  struct Conn;

  void wake() noexcept;
  void accept_new_connections();
  void read_conn(int id, Conn& conn);
  void flush_conn(Conn& conn);
  void handle_completions();
  void submit_conn_line(int id, const std::string& line);
  [[nodiscard]] bool drained() const;
  void final_flush();

  DaemonConfig config_;
  Fd listen_fd_;
  Fd wake_r_;
  Fd wake_w_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};

  mutable std::mutex completions_mutex_;
  std::vector<std::pair<int, std::string>> completions_;

  std::map<int, std::unique_ptr<Conn>> conns_;
  int next_conn_id_ = 1;

  /// Declared last on purpose: the Service destructor drains the
  /// worker pool, and workers hold responders that lock
  /// completions_mutex_ — the service must die before anything a
  /// responder touches.
  Service service_;
};

/// Build a DaemonConfig from a command line parsed against the shared
/// `serve` flag set (--socket, which it declares required, --jobs,
/// --queue-capacity, --default-deadline-ms, --max-deadline-ms,
/// --train-duration, --seed, --inner-jobs, --enable-test-ops,
/// --metrics-out), whose bounds the parse has checked. A default
/// deadline above the maximum is Errc::kValidation.
[[nodiscard]] util::Result<DaemonConfig> daemon_config_from_args(
    const util::CliArgs& args);

/// Run a daemon to completion with lifecycle lines on stderr; the
/// shared implementation behind `voprofd` and `voprofctl serve`.
/// Returns a process exit code.
[[nodiscard]] int daemon_main(const DaemonConfig& config);

}  // namespace voprof::serve
