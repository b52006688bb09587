#include "voprof/serve/daemon.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <iostream>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "voprof/obs/trace.hpp"
#include "voprof/runner/runner.hpp"

namespace voprof::serve {

namespace {

/// Write end of the running daemon's wake pipe, for the signal
/// handler. One daemon per process when signal handlers are installed.
std::atomic<int> g_signal_wake_fd{-1};
/// Set by the handler, polled by the event loop each iteration.
std::atomic<bool> g_signal_stop{false};

extern "C" void voprofd_signal_handler(int) {
  g_signal_stop.store(true, std::memory_order_release);
  const int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 's';
    // Best-effort, async-signal-safe; a full pipe already wakes poll.
    [[maybe_unused]] const ssize_t rc = ::write(fd, &byte, 1);
  }
}

/// The event loop must never block in accept4: the listener from
/// listen_unix is blocking (fine for simple callers), so flip it here.
void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

/// Per-connection state, owned exclusively by the event-loop thread.
struct Daemon::Conn {
  Fd fd;
  std::string inbuf;   ///< bytes received past the last complete line
  std::string outbuf;  ///< response bytes not yet written
  /// Close once outbuf drains (oversized line / protocol giveup).
  bool close_after_flush = false;
  /// Peer closed its write end; keep the connection alive only while
  /// responses are still owed or buffered (half-close support).
  bool eof = false;
  /// Requests submitted on this connection without a delivered (or
  /// dropped) response yet. Event-loop thread only.
  int pending = 0;
};

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)), service_(config_.service) {}

Daemon::~Daemon() = default;

void Daemon::wake() noexcept {
  if (wake_w_.valid()) {
    const char byte = 'w';
    [[maybe_unused]] const ssize_t rc = ::write(wake_w_.get(), &byte, 1);
  }
}

void Daemon::request_stop() {
  stop_requested_.store(true, std::memory_order_release);
  wake();
}

bool Daemon::drained() const {
  if (service_.in_flight() != 0) return false;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    if (!completions_.empty()) return false;
  }
  for (const auto& [id, conn] : conns_) {
    (void)id;
    if (!conn->outbuf.empty()) return false;
  }
  return true;
}

util::Result<bool> Daemon::run() {
  if (config_.socket_path.empty()) {
    return util::Error{util::Errc::kValidation,
                       "daemon needs a socket path", "daemon"};
  }
  util::Result<Fd> listener =
      listen_unix(config_.socket_path, config_.listen_backlog);
  if (!listener.ok()) return listener.error();
  listen_fd_ = std::move(listener).take();
  set_nonblocking(listen_fd_.get());

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC | O_NONBLOCK) != 0) {
    return util::Error{util::Errc::kIo,
                       std::string("pipe2() failed: ") + std::strerror(errno),
                       "daemon"};
  }
  wake_r_.reset(pipe_fds[0]);
  wake_w_.reset(pipe_fds[1]);

  if (config_.install_signal_handlers) {
    g_signal_stop.store(false, std::memory_order_release);
    g_signal_wake_fd.store(wake_w_.get(), std::memory_order_relaxed);
    struct sigaction sa{};
    sa.sa_handler = voprofd_signal_handler;
    ::sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // no SA_RESTART: poll must return EINTR
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);
  }

  running_.store(true, std::memory_order_release);

  bool accepting = true;
  for (;;) {
    // A stop request (signal, request_stop or a drain op observed via
    // service_.draining) turns off admission and accept in one place.
    if (stop_requested_.load(std::memory_order_acquire) ||
        (config_.install_signal_handlers &&
         g_signal_stop.load(std::memory_order_acquire))) {
      service_.begin_drain();
    }
    if (service_.draining() && accepting) {
      accepting = false;
      listen_fd_.reset();
    }
    if (!accepting && drained()) break;

    std::vector<pollfd> pfds;
    pfds.push_back({wake_r_.get(), POLLIN, 0});
    if (accepting) pfds.push_back({listen_fd_.get(), POLLIN, 0});
    std::vector<int> pfd_conn(pfds.size(), -1);
    for (const auto& [id, conn] : conns_) {
      short events = 0;
      if (!conn->eof) events |= POLLIN;
      if (!conn->outbuf.empty()) events |= POLLOUT;
      if (events == 0) continue;
      pfds.push_back({conn->fd.get(), events, 0});
      pfd_conn.push_back(id);
    }

    // 200 ms tick: cheap insurance that drain progress (worker done,
    // nothing else happening) is noticed even if a wake byte is lost.
    const int rc = ::poll(pfds.data(), pfds.size(), 200);
    if (rc < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks the flags
      break;
    }

    for (std::size_t i = 0; i < pfds.size(); ++i) {
      const pollfd& p = pfds[i];
      if (p.revents == 0) continue;
      if (p.fd == wake_r_.get()) {
        char buf[64];
        while (::read(wake_r_.get(), buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      if (accepting && p.fd == listen_fd_.get()) {
        accept_new_connections();
        continue;
      }
      const int id = pfd_conn[i];
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Conn& conn = *it->second;
      if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0 && !conn.eof) {
        read_conn(id, conn);
      }
      if ((p.revents & POLLOUT) != 0) flush_conn(conn);
    }

    handle_completions();

    // Reap connections that are finished: flushed and told to close,
    // or peer gone with nothing left to deliver.
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn& conn = *it->second;
      const bool done_closing = conn.close_after_flush && conn.outbuf.empty();
      const bool dead_peer =
          conn.eof && conn.pending == 0 && conn.outbuf.empty();
      if (done_closing || !conn.fd.valid() || dead_peer) {
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Admission is off; wait for stragglers, deliver their responses,
  // then flush whatever the sockets will still take. (begin_drain is
  // idempotent; this also covers the poll-error exit path.)
  service_.begin_drain();
  service_.wait_idle();
  handle_completions();
  for (auto& [id, conn] : conns_) {
    (void)id;
    flush_conn(*conn);
  }
  conns_.clear();
  listen_fd_.reset();
  ::unlink(config_.socket_path.c_str());
  if (config_.install_signal_handlers) {
    g_signal_wake_fd.store(-1, std::memory_order_relaxed);
  }
  final_flush();
  running_.store(false, std::memory_order_release);
  return true;
}

void Daemon::accept_new_connections() {
  for (;;) {
    const int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (or a transient error): back to poll
    auto conn = std::make_unique<Conn>();
    conn->fd.reset(fd);
    conns_.emplace(next_conn_id_++, std::move(conn));
  }
}

void Daemon::read_conn(int id, Conn& conn) {
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(conn.fd.get(), chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.inbuf.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      conn.eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn.fd.reset();  // hard error: reaped after the poll pass
    return;
  }

  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = conn.inbuf.find('\n', start);
    if (nl == std::string::npos) break;
    std::string line = conn.inbuf.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    submit_conn_line(id, line);
  }
  conn.inbuf.erase(0, start);

  if (conn.inbuf.size() > config_.max_line_bytes) {
    conn.inbuf.clear();
    conn.outbuf += error_response(
        "", ApiError::kBadRequest,
        "request line exceeds " + std::to_string(config_.max_line_bytes) +
            " bytes");
    conn.outbuf.push_back('\n');
    conn.close_after_flush = true;
    flush_conn(conn);
  }
}

void Daemon::submit_conn_line(int id, const std::string& line) {
  auto it = conns_.find(id);
  if (it != conns_.end()) ++it->second->pending;
  // The responder may run on this thread (rejections) or on a worker;
  // both paths go through the completion queue so the event loop is
  // the only code that ever touches a connection.
  service_.submit_line(line, [this, id](std::string response) {
    {
      std::lock_guard<std::mutex> lock(completions_mutex_);
      completions_.emplace_back(id, std::move(response));
    }
    wake();
  });
}

void Daemon::handle_completions() {
  std::vector<std::pair<int, std::string>> ready;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    ready.swap(completions_);
  }
  for (auto& [id, line] : ready) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // client left; drop the response
    --it->second->pending;
    it->second->outbuf += line;
    it->second->outbuf.push_back('\n');
  }
  for (auto& [id, line] : ready) {
    auto it = conns_.find(id);
    if (it != conns_.end()) flush_conn(*it->second);
  }
}

void Daemon::flush_conn(Conn& conn) {
  while (!conn.outbuf.empty() && conn.fd.valid()) {
    const ssize_t n = ::send(conn.fd.get(), conn.outbuf.data(),
                             conn.outbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.outbuf.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    conn.fd.reset();  // peer gone; undeliverable
    conn.outbuf.clear();
    return;
  }
}

void Daemon::final_flush() {
  if (!config_.metrics_out.empty()) {
    const util::Result<bool> written = util::write_file_result(
        config_.metrics_out, metrics_json().dump(2) + '\n');
    if (!written.ok()) {
      std::cerr << "voprofd: " << written.error().to_string() << '\n';
    }
  }
  auto& collector = obs::TraceCollector::global();
  if (collector.enabled()) {
    const std::string path = collector.path();
    const util::Result<bool> written = collector.write_file();
    if (written.ok()) {
      std::cerr << "voprofd: wrote trace to " << path << '\n';
    } else {
      std::cerr << "voprofd: " << written.error().to_string() << '\n';
    }
  }
}

util::Result<DaemonConfig> daemon_config_from_args(
    const util::CliArgs& args) {
  DaemonConfig config;
  config.socket_path = args.get("socket");
  config.metrics_out = args.get_or("metrics-out", "");
  config.service.jobs = runner::options_from_cli(args).jobs;
  config.service.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue-capacity", 64));
  config.service.default_deadline_ms =
      args.get_int("default-deadline-ms", 30000);
  config.service.max_deadline_ms = args.get_int("max-deadline-ms", 600000);
  if (config.service.max_deadline_ms < config.service.default_deadline_ms) {
    return util::Error{util::Errc::kValidation,
                       "need --default-deadline-ms <= --max-deadline-ms",
                       "serve"};
  }
  config.service.train_duration_s = args.get_double("train-duration", 120.0);
  config.service.default_seed =
      static_cast<std::uint64_t>(args.get_int("seed", 42));
  config.service.inner_jobs = args.get_int("inner-jobs", 1);
  config.service.enable_test_ops = args.has("enable-test-ops");
  return config;
}

int daemon_main(const DaemonConfig& config) {
  Daemon daemon(config);
  std::cerr << "voprofd: listening on " << config.socket_path << " ("
            << daemon.service().config().queue_capacity
            << " queue slots)\n";
  util::Result<bool> outcome = daemon.run();
  if (!outcome.ok()) {
    std::cerr << "voprofd: " << outcome.error().to_string() << '\n';
    return 1;
  }
  const Service::Stats stats = daemon.service().stats();
  std::cerr << "voprofd: drained cleanly (" << stats.completed
            << " completed, " << stats.timed_out << " timed out, "
            << stats.rejected_overloaded << " rejected overloaded)\n";
  return 0;
}

}  // namespace voprof::serve
