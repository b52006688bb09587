#include "serve_load.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "ladder.hpp"
#include "layers.hpp"

extern char** environ;

namespace voprof::e2e {
namespace {

/// Per-connection cap on unanswered requests: two connections stay
/// below the daemon's default queue capacity (64), so a stall makes
/// the generator late instead of making the daemon shed load.
constexpr std::size_t kMaxInFlight = 24;
/// How long a phase waits for stragglers after its last send.
constexpr std::int64_t kDrainNs = 2'000'000'000;
/// Closer to a due time than this, the generator spins instead of
/// sleeping: waking a sleeping (virtual) CPU can take milliseconds.
constexpr std::int64_t kSpinNs = 2'000'000;
/// Width of the throughput windows of a closed-loop phase: short, so
/// that a scheduling stall of the host disturbs few of them.
constexpr std::int64_t kRateWindowNs = 10'000'000;
/// Every n-th predict response is checked byte for byte.
constexpr std::size_t kSampleEvery = 32;

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

struct Entry {
  std::int64_t due = 0;
  std::size_t conn = 0;
  bool simulate = false;
  std::size_t input = 0;
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t outstanding = 0;
  std::vector<double> in_flight;  ///< outstanding count at each send
  bool closed = false;
};

/// Request ids are "<phase>.<index>" so a straggler from an earlier
/// phase can never be matched to a request of the current one.
bool parse_id(std::string_view line, std::size_t phase, std::size_t* index,
              std::string_view* id) {
  constexpr std::string_view kKey = "\"id\":\"";
  const std::size_t at = line.find(kKey);
  if (at == std::string_view::npos) return false;
  *id = line.substr(at + kKey.size());
  *id = id->substr(0, id->find('"'));
  const char* const first = id->data();
  const char* const last = first + id->size();
  std::size_t got_phase = 0;
  const auto [dot, err] = std::from_chars(first, last, got_phase);
  if (err != std::errc() || got_phase != phase || dot == last || *dot != '.') {
    return false;
  }
  const auto [end, err2] = std::from_chars(dot + 1, last, *index);
  return err2 == std::errc() && end == last;
}

/// Write as much of the connection's pending output as the socket
/// takes; false when the connection failed.
bool flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t w = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w > 0) {
      c.out_off += static_cast<std::size_t>(w);
    } else if (w < 0 && errno == EINTR) {
      continue;
    } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else {
      return false;
    }
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

/// Read what the socket holds; false at end of stream or on error.
bool fill(Conn& c, std::vector<char>& buf) {
  for (;;) {
    const ssize_t got = ::recv(c.fd, buf.data(), buf.size(), MSG_DONTWAIT);
    if (got > 0) {
      c.in.append(buf.data(), static_cast<std::size_t>(got));
    } else if (got < 0 && errno == EINTR) {
      continue;
    } else {
      return got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
  }
}

}  // namespace

Daemon::Daemon(const Options& opts) {
  std::vector<std::string> args = {opts.exe, "--socket", opts.socket,
                                   "--jobs", std::to_string(opts.jobs)};
  if (!opts.trace_out.empty()) {
    args.insert(args.end(), {"--trace-out", opts.trace_out});
  }
  if (!opts.metrics_out.empty()) {
    args.insert(args.end(), {"--metrics-out", opts.metrics_out});
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  ::posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  ::posix_spawn_file_actions_addopen(&actions, 1, opts.log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
  ::posix_spawn_file_actions_adddup2(&actions, 1, 2);
  const int rc = ::posix_spawn(&pid_, opts.exe.c_str(), &actions, nullptr,
                               argv.data(), environ);
  ::posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + opts.exe);
  }
  const std::int64_t deadline = now_ns() + 60'000'000'000;
  while (!serve::connect_unix(opts.socket).ok()) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("voprofd exited before listening; see " +
                               opts.log);
    }
    if (now_ns() > deadline) {
      throw std::runtime_error("voprofd never listened on " + opts.socket);
    }
    sleep_ms(1);
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

int Daemon::stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  const std::int64_t deadline = now_ns() + 30'000'000'000;
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (now_ns() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return -1;
    }
    sleep_ms(1);
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

OpenLoop::OpenLoop(const std::string& socket, int connections,
                   const std::vector<PredictInput>& predicts,
                   std::string simulate_params)
    : predicts_(predicts), simulate_params_(std::move(simulate_params)) {
  for (int i = 0; i < connections; ++i) {
    util::Result<serve::Fd> fd = serve::connect_unix(socket);
    if (!fd.ok()) throw std::runtime_error(fd.error().to_string());
    fds_.push_back(std::move(fd).take());
  }
}

PhaseResult OpenLoop::run(const Phase& phase) {
  // Default timer slack (50 us) would make every due-time wait late.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::size_t phase_id = phases_run_++;
  const bool closed_loop = phase.window > 0;
  const std::int64_t t0 = now_ns() + 1'000'000;
  const std::int64_t end =
      t0 + static_cast<std::int64_t>(phase.seconds * 1e9);
  const auto count = [&](double rate) {
    return static_cast<std::size_t>(std::llround(rate * phase.seconds));
  };
  // Open loop: the whole schedule up front. Closed loop: entries are
  // appended as the windows open.
  std::vector<Entry> entries;
  for (std::size_t k = 0; !closed_loop && k < count(phase.predict_rate);
       ++k) {
    entries.push_back(
        {t0 + static_cast<std::int64_t>(static_cast<double>(k) * 1e9 /
                                        phase.predict_rate),
         k % fds_.size(), false, (next_input_++) % predicts_.size()});
  }
  for (std::size_t m = 0; m < count(phase.simulate_rate); ++m) {
    entries.push_back({t0 + static_cast<std::int64_t>(
                                (static_cast<double>(m) + 0.5) * 1e9 /
                                phase.simulate_rate),
                       m % fds_.size(), true, 0});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.due < b.due; });

  PhaseResult r;
  if (closed_loop) {
    r.window_rates.assign(
        static_cast<std::size_t>((end - t0) / kRateWindowNs), 0.0);
  }
  std::vector<std::int64_t> sent;
  std::vector<char> answered;
  std::vector<Conn> conns(fds_.size());
  for (std::size_t c = 0; c < conns.size(); ++c) conns[c].fd = fds_[c].get();
  std::vector<pollfd> pfds(conns.size());
  const std::string id_prefix = "{\"id\":\"" + std::to_string(phase_id) + ".";
  const std::int64_t drain_deadline =
      std::max(end, entries.empty() ? t0 : entries.back().due) + kDrainNs;
  std::vector<char> buf(1 << 16);
  std::size_t next = 0;
  std::size_t outstanding = 0;

  const auto send = [&](std::size_t k, std::int64_t now) {
    const Entry& e = entries[k];
    Conn& c = conns[e.conn];
    c.out += id_prefix;
    c.out += std::to_string(k);
    c.out += e.simulate ? "\",\"op\":\"simulate\",\"params\":"
                        : "\",\"op\":\"predict\",\"params\":";
    c.out += e.simulate ? simulate_params_ : predicts_[e.input].params;
    c.out += "}\n";
    sent.push_back(now);
    answered.push_back(0);
    if (!closed_loop) {
      r.late_ms.push_back(static_cast<double>(now - e.due) / 1e6);
    }
    c.in_flight.push_back(static_cast<double>(c.outstanding));
    ++c.outstanding;
    ++outstanding;
    ++r.attempted;
  };

  const auto receive = [&](Conn& c, std::int64_t t) {
    const std::string_view in = c.in;
    std::size_t start = 0;
    for (std::size_t nl; (nl = in.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      const std::string_view line = in.substr(start, nl - start);
      std::size_t k = 0;
      std::string_view id;
      if (!parse_id(line, phase_id, &k, &id) || k >= next || answered[k]) {
        continue;
      }
      answered[k] = 1;
      --c.outstanding;
      --outstanding;
      const Entry& e = entries[k];
      const double latency = static_cast<double>(t - e.due) / 1e6;
      if (line.find("\"ok\":true") != std::string_view::npos) {
        if (e.simulate) {
          r.simulate_ms.push_back(latency);
        } else {
          r.predict_ms.push_back(latency);
          r.predict_rtt_ms.push_back(static_cast<double>(t - sent[k]) / 1e6);
          const auto w = static_cast<std::size_t>((t - t0) / kRateWindowNs);
          if (t >= t0 && w < r.window_rates.size()) {
            r.window_rates[w] += 1e9 / static_cast<double>(kRateWindowNs);
          }
        }
      } else if (line.find("\"overloaded\"") != std::string_view::npos) {
        ++r.overloaded;
      } else if (line.find("\"timed_out\"") != std::string_view::npos) {
        ++r.timed_out;
      } else {
        ++r.other_errors;
      }
      if (e.simulate) {
        r.simulate_responses.push_back(
            {e.input, std::string(id), std::string(line)});
      } else if (k % kSampleEvery == 0) {
        r.predict_samples.push_back(
            {e.input, std::string(id), std::string(line)});
      }
    }
    c.in.erase(0, start);
  };

  for (;;) {
    std::int64_t now = now_ns();
    if (closed_loop && now >= t0 && now < end) {
      for (std::size_t c = 0; c < conns.size(); ++c) {
        if (conns[c].closed || conns[c].outstanding >= phase.window) continue;
        // Keep any scheduled entries after the appended ones in order.
        entries.insert(entries.begin() + static_cast<std::ptrdiff_t>(next),
                       {now, c, false, (next_input_++) % predicts_.size()});
        send(next++, now);
      }
    }
    while (next < entries.size() && entries[next].due <= now) {
      const Entry& e = entries[next];
      Conn& c = conns[e.conn];
      if (c.closed || c.outstanding >= kMaxInFlight) break;  // late, not lost
      send(next++, now);
    }
    bool any_open = false;
    for (Conn& c : conns) {
      if (!c.closed && !flush(c)) c.closed = true;
      any_open = any_open || !c.closed;
    }
    now = now_ns();
    const bool sending = next < entries.size() || (closed_loop && now < end);
    if ((!sending && outstanding == 0) || !any_open) break;
    if (now >= drain_deadline) break;
    // Sleep only when the next send is far off; spin otherwise.
    std::int64_t until = drain_deadline;
    if (closed_loop && now < end) {
      until = now;
    } else if (next < entries.size()) {
      until = entries[next].due - kSpinNs;
    }
    const std::int64_t wait = std::max<std::int64_t>(0, until - now);
    for (std::size_t c = 0; c < conns.size(); ++c) {
      pfds[c] = {conns[c].closed ? -1 : conns[c].fd,
                 static_cast<short>(POLLIN |
                                    (conns[c].out.empty() ? 0 : POLLOUT)),
                 0};
    }
    const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                      static_cast<long>(wait % 1'000'000'000)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    const std::int64_t t = now_ns();
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!fill(conns[c], buf)) conns[c].closed = true;
      receive(conns[c], t);
    }
  }
  const std::size_t unsent = entries.size() - next;
  r.attempted += unsent;  // never sent: counted as attempted and lost
  r.lost = outstanding + unsent;
  for (const Conn& c : conns) {
    r.backlog_grew = r.backlog_grew || backlog_grew(c.in_flight);
  }
  return r;
}

}  // namespace voprof::e2e
