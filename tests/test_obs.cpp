// Observability layer: metric registry semantics, lock-free writer
// correctness under a real TaskPool fan-out and on more threads than
// a Counter has shards (the TSan job runs this binary via
// `ctest -L concurrency`), and the Chrome-trace writer — whose output
// must be the exact voprof-trace-1 text, round-trip through util::Json
// and cost constant memory however many events it streams.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "voprof/obs/metrics.hpp"
#include "voprof/obs/trace.hpp"
#include "voprof/util/assert.hpp"
#include "voprof/util/json.hpp"
#include "voprof/util/task_pool.hpp"

namespace {

using namespace voprof;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// Peak resident set size of this process so far, in KiB.
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// ASan keeps freed blocks in a quarantine (256 MiB by default), so
// under it every short-lived allocation of a write adds to peak RSS.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsan = true;
#elif defined(__has_feature)
constexpr bool kAsan = __has_feature(address_sanitizer);
#else
constexpr bool kAsan = false;
#endif

TEST(Metrics, CounterCountsAndResets) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeSetAndHighWater) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  obs::Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.set_max(2.0);  // below the mark: no change
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.set_max(7.25);
  EXPECT_DOUBLE_EQ(g.value(), 7.25);
}

TEST(Metrics, HistogramBucketsAndOverflow) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  obs::Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(1.0);    // bucket 0 (inclusive upper bound)
  h.observe(5.0);    // bucket 1
  h.observe(1000.0); // overflow
  h.observe(std::nan(""));  // NaN is filed under overflow, not bucket 0
  const obs::Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 0u);
  EXPECT_EQ(s.counts[3], 2u);
  EXPECT_EQ(s.count, 5u);
}

TEST(Metrics, HistogramRejectsUnsortedBounds) {
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), util::ContractViolation);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), util::ContractViolation);
}

TEST(Metrics, RegistryDeduplicatesByName) {
  auto& reg = obs::Registry::global();
  obs::Counter& a = reg.counter("test_obs.dedup");
  obs::Counter& b = reg.counter("test_obs.dedup");
  EXPECT_EQ(&a, &b);
  obs::Histogram& h1 = reg.histogram("test_obs.dedup_hist", {1.0, 2.0});
  obs::Histogram& h2 = reg.histogram("test_obs.dedup_hist", {99.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);  // first registration wins
}

TEST(Metrics, SnapshotIsSortedAndTyped) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  auto& reg = obs::Registry::global();
  reg.counter("test_obs.zz_counter").add(3);
  reg.gauge("test_obs.aa_gauge").set(1.5);
  const obs::Registry::Snapshot snap = reg.snapshot();
  ASSERT_GE(snap.entries.size(), 2u);
  for (std::size_t i = 1; i < snap.entries.size(); ++i) {
    EXPECT_LT(snap.entries[i - 1].name, snap.entries[i].name);
  }
  bool saw_counter = false;
  bool saw_gauge = false;
  for (const auto& e : snap.entries) {
    if (e.name == "test_obs.zz_counter") {
      saw_counter = true;
      EXPECT_EQ(e.kind, "counter");
      EXPECT_DOUBLE_EQ(e.value, 3.0);
    }
    if (e.name == "test_obs.aa_gauge") {
      saw_gauge = true;
      EXPECT_EQ(e.kind, "gauge");
      EXPECT_DOUBLE_EQ(e.value, 1.5);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
}

TEST(Metrics, CategoryIsDottedPrefix) {
  EXPECT_EQ(obs::metric_category("engine.events_fired"), "engine");
  EXPECT_EQ(obs::metric_category("nodot"), "nodot");
  EXPECT_EQ(obs::metric_category("a.b.c"), "a");
}

// The lock-free contract: concurrent writers through a TaskPool lose
// no increments and no observations once the pool has joined.
TEST(MetricsConcurrency, CountersExactUnderParallelWriters) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  auto& counter = obs::Registry::global().counter("test_obs.par_counter");
  auto& gauge = obs::Registry::global().gauge("test_obs.par_gauge");
  auto& hist = obs::Registry::global().histogram("test_obs.par_hist",
                                                 {10.0, 100.0, 1000.0});
  counter.reset();
  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kPerTask = 1000;
  util::TaskPool pool(4);
  (void)pool.parallel_map(kTasks, [&](std::size_t task) {
    for (std::uint64_t i = 0; i < kPerTask; ++i) {
      counter.add();
      gauge.set_max(static_cast<double>(task));
      hist.observe(static_cast<double>(i));
    }
    return 0;
  });
  EXPECT_EQ(counter.value(), kTasks * kPerTask);
  EXPECT_DOUBLE_EQ(gauge.value(), static_cast<double>(kTasks - 1));
  const obs::Histogram::Snapshot s = hist.snapshot();
  EXPECT_EQ(s.count, kTasks * kPerTask);
  // Sum of 0..999 per task, accumulated via the CAS loop.
  const double expected_sum =
      static_cast<double>(kTasks) * (kPerTask - 1) * kPerTask / 2.0;
  EXPECT_DOUBLE_EQ(s.sum, expected_sum);
}

/// Run `body(i)` for every i in [0, n) on n distinct threads at once:
/// each task waits at a rendezvous until all n have started, so no
/// pool worker runs two of them. Fresh workers take fresh
/// obs::thread_id()s, so with n > Counter::kShards threads must share
/// shards.
template <typename Body>
void run_on_distinct_threads(std::size_t n, Body body) {
  util::TaskPool pool(n, util::TaskPool::Threading::kAlwaysThreaded);
  std::atomic<std::size_t> arrived{0};
  pool.parallel_for_each(n, [&](std::size_t i) {
    arrived.fetch_add(1, std::memory_order_acq_rel);
    while (arrived.load(std::memory_order_acquire) < n) {
      std::this_thread::yield();
    }
    body(i);
  });
}

// Threads beyond the shard count share a slot through the atomic add;
// the total is still exact once they join.
TEST(MetricsConcurrency, CounterExactWithMoreThreadsThanShards) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }
  obs::Counter counter;
  // One thread more than there are shards: at least two share a slot.
  constexpr std::size_t kThreads = obs::Counter::kShards + 1;
  constexpr std::uint64_t kLight = 1000;
  constexpr std::uint64_t kHeavy = 1000000;
  std::vector<std::uint64_t> ids(kThreads);
  std::atomic<std::size_t> named{0};
  std::atomic<std::uint64_t> expected{0};
  run_on_distinct_threads(kThreads, [&](std::size_t t) {
    ids[t] = obs::thread_id();
    named.fetch_add(1, std::memory_order_acq_rel);
    while (named.load(std::memory_order_acquire) < kThreads) {
      std::this_thread::yield();
    }
    // The threads that share a shard hammer it together while the
    // others finish quickly, so the shared slot sees concurrent adds.
    const std::uint64_t shard = ids[t] % obs::Counter::kShards;
    const auto sharers = std::count_if(
        ids.begin(), ids.end(), [shard](std::uint64_t id) {
          return id % obs::Counter::kShards == shard;
        });
    const std::uint64_t n = sharers > 1 ? kHeavy : kLight;
    for (std::uint64_t i = 0; i < n; ++i) counter.add();
    expected.fetch_add(n, std::memory_order_relaxed);
    EXPECT_EQ(obs::thread_id(), ids[t]);  // stable for the thread's life
  });
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "every thread gets its own id";
  EXPECT_GE(expected.load(), 2 * kHeavy) << "no two threads shared a shard";
  EXPECT_EQ(counter.value(), expected.load());
}

// value() sums the shards while writers run; every shard only grows,
// so two successive reads never go backwards.
TEST(MetricsConcurrency, CounterValueNeverDecreasesWhileWritersRun) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }
  obs::Counter counter;
  constexpr std::size_t kWriters = 4;
  constexpr std::uint64_t kPerWriter = 200000;
  std::atomic<std::size_t> done{0};
  // Writers start only once the reader reads, so the reads always
  // overlap the writes however the threads are scheduled.
  std::atomic<bool> reading{false};
  std::uint64_t reads = 0;
  std::uint64_t decreases = 0;
  run_on_distinct_threads(kWriters + 1, [&](std::size_t t) {
    if (t < kWriters) {
      while (!reading.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (std::uint64_t i = 0; i < kPerWriter; ++i) counter.add();
      done.fetch_add(1, std::memory_order_release);
      return;
    }
    std::uint64_t last = 0;
    while (done.load(std::memory_order_acquire) < kWriters) {
      const std::uint64_t now = counter.value();
      if (now < last) ++decreases;
      last = now;
      ++reads;
      reading.store(true, std::memory_order_release);
    }
  });
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(decreases, 0u);
  EXPECT_EQ(counter.value(), kWriters * kPerWriter);
}

// reset_all() zeroes every shard, so writes after it count from zero
// in value() and in the registry snapshot alike.
TEST(MetricsConcurrency, ResetAllThenParallelWritesAreExact) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }
  auto& registry = obs::Registry::global();
  auto& counter = registry.counter("test_obs.reset_counter");
  constexpr std::size_t kThreads = 6;
  constexpr std::uint64_t kPerThread = 5000;
  const auto write = [&counter](std::size_t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add();
  };
  const auto snapshot_value = [&registry] {
    for (const auto& e : registry.snapshot().entries) {
      if (e.name == "test_obs.reset_counter") return e.value;
    }
    return -1.0;
  };

  run_on_distinct_threads(kThreads, write);
  EXPECT_GE(counter.value(), kThreads * kPerThread);
  registry.reset_all();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(snapshot_value(), 0.0);

  run_on_distinct_threads(kThreads, write);
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_EQ(snapshot_value(), static_cast<double>(kThreads * kPerThread));
}

TEST(Trace, DisabledCollectorRecordsNothing) {
  auto& col = obs::TraceCollector::global();
  col.disable();
  EXPECT_FALSE(col.enabled());
  col.complete_wall("cat", "name", 0, 10);
  { VOPROF_WALL_SPAN("cat", "span"); }
  EXPECT_EQ(col.size(), 0u);
}

TEST(Trace, ExportedJsonIsValidAndTagged) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  auto& col = obs::TraceCollector::global();
  const std::string path = temp_path("test_obs_trace.json");
  col.enable(path);
  ASSERT_TRUE(col.enabled());
  col.complete_wall("testcat", "wall_span", 5, 10);
  col.complete_sim("simcat", "sim_span", 100, 50, /*tid=*/3, 7.5);
  col.instant_sim("simcat", "blip", 120, /*tid=*/3, 2.5, "vm1");
  { VOPROF_WALL_SPAN("testcat", "scoped"); }
  EXPECT_EQ(col.size(), 4u);

  ASSERT_TRUE(col.write_file().ok());
  EXPECT_FALSE(col.enabled());  // flushing disables

  const util::Json doc = util::Json::parse_result(slurp(path)).value();
  EXPECT_EQ(doc.at("schema").as_string(), obs::kTraceSchema);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").as_array();
  // 2 process-name metadata + 4 recorded (+ a counter sample per
  // registry metric, 0 when this test runs with an empty registry).
  EXPECT_GE(events.size(), 6u);
  bool saw_wall = false;
  bool saw_sim = false;
  bool saw_instant = false;
  for (const util::Json& e : events) {
    const std::string ph = e.at("ph").as_string();
    if (ph == "M") continue;
    const int pid = static_cast<int>(e.at("pid").as_number());
    EXPECT_TRUE(pid == obs::kWallPid || pid == obs::kSimPid);
    const std::string name = e.at("name").as_string();
    if (name == "wall_span") {
      saw_wall = true;
      EXPECT_EQ(ph, "X");
      EXPECT_EQ(pid, obs::kWallPid);
      EXPECT_DOUBLE_EQ(e.at("dur").as_number(), 10.0);
      EXPECT_EQ(e.find("args"), nullptr);  // wall spans carry no args
    }
    if (name == "sim_span") {
      saw_sim = true;
      EXPECT_EQ(ph, "X");
      EXPECT_EQ(pid, obs::kSimPid);
      EXPECT_DOUBLE_EQ(e.at("ts").as_number(), 100.0);
      EXPECT_DOUBLE_EQ(e.at("args").at("value").as_number(), 7.5);
      EXPECT_EQ(e.at("args").find("subject"), nullptr);  // none was set
    }
    if (name == "blip") {
      saw_instant = true;
      EXPECT_EQ(ph, "i");
      EXPECT_DOUBLE_EQ(e.at("args").at("value").as_number(), 2.5);
      EXPECT_EQ(e.at("args").at("subject").as_string(), "vm1");
    }
  }
  EXPECT_TRUE(saw_wall);
  EXPECT_TRUE(saw_sim);
  EXPECT_TRUE(saw_instant);
  // The full metrics snapshot rides along for `voprofctl trace`.
  EXPECT_TRUE(doc.at("voprofMetrics").is_object());
  std::remove(path.c_str());
}

TEST(Trace, WritesExactEventText) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  auto& col = obs::TraceCollector::global();
  const std::string path = temp_path("test_obs_golden.json");
  col.enable(path);
  col.complete_wall("wallcat", "w", 5, 10);
  col.complete_sim("simcat", "s", 100, 50, /*tid=*/3, 7.5);
  col.instant_sim("vm", "vm-created", 120, /*tid=*/4, 0.25, "vm\"1\n");
  const util::Json doc = col.to_json();
  ASSERT_TRUE(col.write_file().ok());

  const std::string text = slurp(path);
  const std::string events =
      R"({"traceEvents":[)"
      R"({"name":"process_name","ph":"M","pid":1,"tid":0,)"
      R"("args":{"name":"wall clock"}},)"
      R"({"name":"process_name","ph":"M","pid":2,"tid":0,)"
      R"("args":{"name":"sim clock"}},)"
      R"({"name":"w","cat":"wallcat","ph":"X","pid":1,"tid":)" +
      std::to_string(obs::thread_id()) +
      R"(,"ts":5,"dur":10},)"
      R"({"name":"s","cat":"simcat","ph":"X","pid":2,"tid":3,"ts":100,)"
      R"("dur":50,"args":{"value":7.5}},)"
      R"({"name":"vm-created","cat":"vm","ph":"i","pid":2,"tid":4,)"
      R"("ts":120,"args":{"value":0.25,"subject":"vm\"1\n"}})";
  EXPECT_EQ(text.substr(0, events.size()), events);
  // A counter sample per registered metric, then the document tail.
  EXPECT_NE(text.find(R"(],"displayTimeUnit":"ms",)"
                      R"("schema":"voprof-trace-1","voprofMetrics":{)"),
            std::string::npos);
  // to_json() is the parse of the same text, and dumps back to it.
  EXPECT_EQ(doc.dump(0) + '\n', text);
  std::remove(path.c_str());
}

TEST(Trace, FailedWriteIsAnError) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }
  if (!std::ifstream("/dev/full")) {
    GTEST_SKIP() << "no /dev/full to fail the write";
  }

  auto& col = obs::TraceCollector::global();
  col.enable("/dev/full");
  col.complete_wall("testcat", "span", 0, 1);
  const util::Result<bool> written = col.write_file();
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.error().code, util::Errc::kIo);
  EXPECT_EQ(written.error().context, "/dev/full");
  EXPECT_FALSE(col.enabled());  // not retried at exit
}

TEST(Trace, WritingTakesConstantMemory) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  auto& col = obs::TraceCollector::global();
  const std::string path = temp_path("test_obs_large.json");
  col.enable(path);
  constexpr std::size_t kEvents = 250000;
  for (std::size_t i = 0; i < kEvents; ++i) {
    col.complete_wall("testcat", "span", static_cast<std::int64_t>(i), 1);
  }
  ASSERT_EQ(col.size(), kEvents);
  const long before_kib = peak_rss_kib();
  ASSERT_TRUE(col.write_file().ok());
  const long growth_kib = peak_rss_kib() - before_kib;
  if (!kAsan) {
    EXPECT_LE(growth_kib, 16 * 1024) << "peak RSS grew by " << growth_kib
                                     << " KiB while writing";
  }

  const util::Result<util::Json> doc = util::Json::parse_result(slurp(path));
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  EXPECT_EQ(doc.value().at("traceEvents").as_array().size() -
                doc.value().at("voprofMetrics").as_object().size(),
            kEvents + 2);
  std::remove(path.c_str());
}

TEST(TraceConcurrency, ParallelSpansAllArrive) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  auto& col = obs::TraceCollector::global();
  const std::string path = temp_path("test_obs_trace_par.json");
  col.enable(path);
  constexpr std::size_t kTasks = 200;
  util::TaskPool pool(4);
  (void)pool.parallel_map(kTasks, [&](std::size_t) {
    VOPROF_WALL_SPAN("testcat", "par_span");
    return 0;
  });
  // TaskPool itself traces its jobs, so expect at least the explicit
  // spans; every recorded event must carry a valid thread id.
  EXPECT_GE(col.size(), kTasks);
  const util::Json doc = col.to_json();
  std::size_t spans = 0;
  for (const util::Json& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    if (e.at("name").as_string() != "par_span") continue;
    ++spans;
    EXPECT_GE(e.at("tid").as_number(), 1.0);
  }
  EXPECT_EQ(spans, kTasks);
  col.disable();  // drop the buffer; nothing written to disk
  std::remove(path.c_str());
}

TEST(Trace, WallClockIsMonotonic) {
  const std::int64_t a = obs::wall_clock_us();
  const std::int64_t b = obs::wall_clock_us();
  if constexpr (obs::kObsCompiled) {
    EXPECT_GE(b, a);
  } else {
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 0);
  }
}

}  // namespace
