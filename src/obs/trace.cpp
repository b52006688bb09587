#include "voprof/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "voprof/util/result.hpp"

namespace voprof::obs {

namespace {

std::int64_t steady_us() {
  // The one sanctioned direct steady_clock read outside bench/: every
  // other module times itself through WallSpan, which lands here.
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

util::Json record_to_json(const TraceRecord& rec) {
  util::Json e = util::Json::object();
  e.set("name", rec.name);
  e.set("cat", rec.cat);
  e.set("ph", std::string(1, rec.ph));
  e.set("pid", rec.clock == Clock::kWall ? kWallPid : kSimPid);
  e.set("tid", static_cast<double>(rec.tid));
  e.set("ts", static_cast<double>(rec.ts_us));
  if (rec.ph == 'X') {
    e.set("dur", static_cast<double>(rec.dur_us));
  }
  if (rec.clock == Clock::kSim) {
    util::Json args = util::Json::object();
    args.set("value", rec.value);
    if (!rec.subject.empty()) {
      args.set("subject", rec.subject);
    }
    e.set("args", args);
  }
  return e;
}

util::Json metadata_event(int pid, const char* label) {
  util::Json e = util::Json::object();
  e.set("name", "process_name");
  e.set("ph", "M");
  e.set("pid", pid);
  e.set("tid", 0);
  util::Json args = util::Json::object();
  args.set("name", label);
  e.set("args", args);
  return e;
}

}  // namespace

std::int64_t wall_clock_us() noexcept {
  if constexpr (!kObsCompiled) {
    return 0;
  }
  return steady_us();
}

std::int64_t monotonic_us() noexcept { return steady_us(); }

TraceCollector& TraceCollector::global() {
  // A true static (unlike Registry::global()): the destructor is the
  // flush-at-exit path for VOPROF_TRACE. The registry it snapshots is
  // immortal, so ordering against other statics is safe.
  static TraceCollector instance;
  return instance;
}

TraceCollector::~TraceCollector() {
  if (enabled()) {
    write_file();
  }
}

void TraceCollector::enable(std::string path) {
  if constexpr (!kObsCompiled) {
    (void)path;
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  path_ = std::move(path);
  epoch_us_ = steady_us();
  events_.clear();
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceCollector::disable() {
  std::lock_guard<std::mutex> lock(mutex_);
  enabled_.store(false, std::memory_order_relaxed);
  events_.clear();
  path_.clear();
}

void TraceCollector::init_from_env() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (env_checked_) {
      return;
    }
    env_checked_ = true;
  }
  const char* path = std::getenv("VOPROF_TRACE");
  if (path != nullptr && *path != '\0') {
    enable(path);
  }
}

std::string TraceCollector::path() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return path_;
}

std::int64_t TraceCollector::wall_now_us() const noexcept {
  if (!enabled()) {
    return 0;
  }
  return steady_us() - epoch_us_;
}

void TraceCollector::record(TraceRecord rec) {
  if (!enabled()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(rec));
}

void TraceCollector::complete_wall(std::string cat, std::string name,
                                   std::int64_t ts_us, std::int64_t dur_us) {
  record({.ph = 'X', .clock = Clock::kWall, .cat = std::move(cat),
          .name = std::move(name), .ts_us = ts_us, .dur_us = dur_us,
          .tid = thread_id(), .value = 0.0, .subject = {}});
}

void TraceCollector::complete_sim(std::string cat, std::string name,
                                  std::int64_t ts_us, std::int64_t dur_us,
                                  std::uint64_t tid, double value) {
  record({.ph = 'X', .clock = Clock::kSim, .cat = std::move(cat),
          .name = std::move(name), .ts_us = ts_us, .dur_us = dur_us,
          .tid = tid, .value = value, .subject = {}});
}

void TraceCollector::instant_sim(std::string cat, std::string name,
                                 std::int64_t ts_us, std::uint64_t tid,
                                 double value, std::string subject) {
  record({.ph = 'i', .clock = Clock::kSim, .cat = std::move(cat),
          .name = std::move(name), .ts_us = ts_us, .dur_us = 0, .tid = tid,
          .value = value, .subject = std::move(subject)});
}

util::Json TraceCollector::to_json() const {
  util::Json events = util::Json::array();
  events.push_back(metadata_event(kWallPid, "wall clock"));
  events.push_back(metadata_event(kSimPid, "sim clock"));

  std::int64_t counter_ts = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& rec : events_) {
      events.push_back(record_to_json(rec));
      if (rec.clock == Clock::kWall) {
        counter_ts = std::max(counter_ts, rec.ts_us + rec.dur_us);
      }
    }
  }

  // One 'C' sample per registry metric at the end of the wall
  // timeline, so Perfetto draws final counter values as flat tracks,
  // and voprofMetrics with the full structured snapshot for tooling.
  const Registry::Snapshot snap = Registry::global().snapshot();
  util::Json metrics = util::Json::object();
  for (const auto& entry : snap.entries) {
    util::Json c = util::Json::object();
    c.set("name", entry.name);
    c.set("cat", metric_category(entry.name));
    c.set("ph", "C");
    c.set("pid", kWallPid);
    c.set("tid", 0);
    c.set("ts", static_cast<double>(counter_ts));
    util::Json cargs = util::Json::object();
    cargs.set("value", entry.value);
    c.set("args", cargs);
    events.push_back(c);

    util::Json m = util::Json::object();
    m.set("kind", entry.kind);
    m.set("value", entry.value);
    if (entry.kind == "histogram") {
      util::Json bounds = util::Json::array();
      for (double b : entry.hist.bounds) {
        bounds.push_back(b);
      }
      util::Json counts = util::Json::array();
      for (std::uint64_t n : entry.hist.counts) {
        counts.push_back(static_cast<double>(n));
      }
      m.set("bounds", bounds);
      m.set("counts", counts);
      m.set("count", static_cast<double>(entry.hist.count));
      m.set("sum", entry.hist.sum);
    }
    metrics.set(entry.name, m);
  }

  util::Json doc = util::Json::object();
  doc.set("traceEvents", events);
  doc.set("displayTimeUnit", "ms");
  doc.set("schema", kTraceSchema);
  doc.set("voprofMetrics", metrics);
  return doc;
}

bool TraceCollector::write_file() {
  std::string out_path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out_path = path_;
  }
  if (out_path.empty()) {
    return false;
  }
  if (!util::write_file_result(out_path, to_json().dump(0) + '\n').ok()) {
    return false;
  }
  disable();
  return true;
}

std::size_t TraceCollector::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void TraceCollector::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
}

WallSpan::WallSpan(const char* cat, const char* name) noexcept {
  auto& collector = TraceCollector::global();
  if (collector.enabled()) {
    cat_ = cat;
    name_ = name;
    start_us_ = collector.wall_now_us();
    active_ = true;
  }
}

WallSpan::~WallSpan() {
  if (!active_) {
    return;
  }
  auto& collector = TraceCollector::global();
  if (collector.enabled()) {
    const std::int64_t end_us = collector.wall_now_us();
    collector.complete_wall(cat_, name_, start_us_, end_us - start_us_);
  }
}

}  // namespace voprof::obs
