#pragma once
/// \file trace.hpp
/// Scoped span tracing on two clocks, exported as Chrome trace-event
/// JSON (loadable in Perfetto / chrome://tracing).
///
/// Two clocks, two synthetic "processes" in the trace viewer:
///  - wall time (pid kWallPid): what the host CPU spent — trainer
///    phases, runner tasks, TaskPool jobs, bench reps. Timestamps are
///    microseconds since the collector was enabled.
///  - sim time (pid kSimPid): when things happened inside the
///    simulated cluster. The machines and the migration engine emit
///    them directly: one span per episode of scheduler contention, disk
///    throttling or NIC throttling (never one event per tick), and
///    instants for VM lifecycle and migrations. Timestamps are
///    SimMicros verbatim.
/// Both feed one TraceCollector; the exporter tags each event with its
/// clock's pid so the viewer shows them as parallel tracks.
///
/// Cost model: when the collector is disabled (the default), every
/// record path is one relaxed atomic load and a branch; when the build
/// has VOPROF_OBS off it is nothing at all. Enabling buffers events in
/// memory under a mutex — tracing is an observation mode, not a hot
/// path, and a run emits thousands of events, not millions: a traced
/// default `voprofctl train --jobs 4` writes 361 events (24 357 when
/// every contended 10 ms tick was an instant), and the end-to-end
/// benchmark's traced `train` about 28 000 (3.8 million before).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "voprof/obs/metrics.hpp"
#include "voprof/util/json.hpp"

namespace voprof::obs {

/// Raw monotonic wall clock in microseconds (not epoch-relative), the
/// sanctioned time source for instrumented modules — voprof-lint bans
/// direct steady_clock reads outside bench/ and obs/. Returns 0 when
/// the build has observability compiled out.
[[nodiscard]] std::int64_t wall_clock_us() noexcept;

/// Monotonic microseconds that work in EVERY build, including
/// -DVOPROF_OBS=OFF (unlike wall_clock_us, which folds to 0 there).
/// For *functional* time — request deadlines, socket timeouts — where
/// "observability off" must not mean "time stands still".
[[nodiscard]] std::int64_t monotonic_us() noexcept;

/// Which timeline an event belongs to (see file comment).
enum class Clock { kWall, kSim };

/// Synthetic Chrome-trace process ids for the two clocks.
inline constexpr int kWallPid = 1;
inline constexpr int kSimPid = 2;

/// Schema marker written into exported files; `voprofctl trace`
/// refuses files without it rather than misreading foreign traces.
inline constexpr const char* kTraceSchema = "voprof-trace-1";

/// One buffered trace event. Maps 1:1 onto a Chrome trace-event
/// object: ph 'X' = complete span (ts+dur), 'i' = instant.
struct TraceRecord {
  char ph = 'X';
  Clock clock = Clock::kWall;
  std::string cat;
  std::string name;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;  ///< 'X' only
  std::uint64_t tid = 0;    ///< obs::thread_id() (wall) or domain/PM id (sim)
  double value = 0.0;       ///< sim only: exported as args.value
  std::string subject;      ///< sim only: args.subject when non-empty
};

/// Process-wide event sink. Disabled by default; enabling names the
/// output file and starts the wall epoch. The destructor (or an
/// explicit write_file()) flushes buffered events plus a snapshot of
/// the metrics registry to that file.
class TraceCollector {
 public:
  /// The shared instance. A real static (not leaked): its destructor
  /// runs at exit and flushes any enabled-but-unwritten trace, so
  /// `VOPROF_TRACE=out.json app` works without app cooperation.
  [[nodiscard]] static TraceCollector& global();

  TraceCollector() = default;
  ~TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// True when events are being buffered. The hot-path guard: span
  /// helpers check this before doing any work.
  [[nodiscard]] bool enabled() const noexcept {
    if constexpr (!kObsCompiled) {
      return false;
    }
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Start collecting; events flush to `path` on write_file()/exit.
  /// No-op (stays disabled) when the build has VOPROF_OBS off.
  void enable(std::string path);
  /// Stop collecting and drop buffered events without writing.
  void disable();
  /// Reads VOPROF_TRACE; when set and non-empty, enable(its value).
  /// Idempotent. Apps and benches call this once at startup.
  void init_from_env();

  [[nodiscard]] std::string path() const;

  /// Microseconds since enable() on the wall clock (0 when disabled).
  [[nodiscard]] std::int64_t wall_now_us() const noexcept;

  /// Buffer one event; safe from any thread, no-ops when disabled.
  void complete_wall(std::string cat, std::string name, std::int64_t ts_us,
                     std::int64_t dur_us);
  /// Sim-clock events carry a numeric `value` arg, plus a `subject`
  /// arg (the VM concerned) when `subject` is non-empty.
  void complete_sim(std::string cat, std::string name, std::int64_t ts_us,
                    std::int64_t dur_us, std::uint64_t tid, double value);
  void instant_sim(std::string cat, std::string name, std::int64_t ts_us,
                   std::uint64_t tid, double value, std::string subject = {});

  /// Full export: Chrome trace-event object with traceEvents (metadata
  /// + buffered events + one 'C' counter sample per registry metric),
  /// displayTimeUnit, plus voprof extras (schema, voprofMetrics).
  [[nodiscard]] util::Json to_json() const;

  /// Write to_json() to path(); returns false (and keeps the buffer)
  /// on I/O failure. Disables the collector on success.
  bool write_file();

  [[nodiscard]] std::size_t size() const;
  /// Drop buffered events, keep enabled state and epoch. Tests only.
  void clear();

 private:
  void record(TraceRecord rec);

  mutable std::mutex mutex_;
  std::atomic<bool> enabled_{false};
  bool env_checked_ = false;
  std::string path_;
  std::int64_t epoch_us_ = 0;  ///< steady-clock us at enable()
  std::vector<TraceRecord> events_;
};

/// RAII wall-clock span: measures construction→destruction and records
/// a complete event on the calling thread's track. When the collector
/// is disabled, construction is one relaxed load and destruction a
/// branch. `cat`/`name` must outlive the span (string literals).
class WallSpan {
 public:
  WallSpan(const char* cat, const char* name) noexcept;
  ~WallSpan();
  WallSpan(const WallSpan&) = delete;
  WallSpan& operator=(const WallSpan&) = delete;

 private:
  const char* cat_ = nullptr;
  const char* name_ = nullptr;
  std::int64_t start_us_ = 0;
  bool active_ = false;
};

}  // namespace voprof::obs

/// Span covering the rest of the enclosing scope. Two-level expansion
/// so __LINE__ pastes into a unique variable name.
#define VOPROF_OBS_CONCAT_(a, b) a##b
#define VOPROF_OBS_CONCAT(a, b) VOPROF_OBS_CONCAT_(a, b)
#define VOPROF_WALL_SPAN(cat, name) \
  ::voprof::obs::WallSpan VOPROF_OBS_CONCAT(voprof_span_, __LINE__)(cat, name)
