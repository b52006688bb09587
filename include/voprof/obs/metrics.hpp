#pragma once
/// \file metrics.hpp
/// Low-overhead metrics registry: named counters, gauges and
/// fixed-bucket histograms that engine, scheduler, machine, monitor,
/// TaskPool and the sweep runner register into. The paper's method is
/// concurrent observation — knowing what every layer was doing while
/// the numbers moved — and this registry is the simulator-internal
/// analogue: inspectable on demand, and cheap enough to leave on
/// because the hot writers never share a cache line.
///
/// Concurrency contract: registration (Registry::counter & friends)
/// takes a mutex and returns a reference that stays valid for the
/// process lifetime; the write paths (Counter::add, Gauge::set,
/// Histogram::observe) are lock-free relaxed atomics, safe from any
/// thread. Counter::add goes to the calling thread's shard (see
/// Counter), so parallel workers bumping the same counter on every
/// simulated tick do not contend; Gauge and Histogram are one shared
/// atomic each and have no per-tick writers. Reads (value(),
/// snapshots) sum the shards and are only guaranteed to be exact once
/// concurrent writers have quiesced (e.g. after a TaskPool join);
/// while writers run, successive reads of one counter never decrease.
/// The reader never blocks a writer either way.
///
/// Zero-cost when disabled: building with -DVOPROF_OBS=OFF compiles
/// every write path to nothing (kObsCompiled folds to false below), so
/// the hot loops carry no atomics at all.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace voprof::obs {

#if defined(VOPROF_OBS) && VOPROF_OBS
inline constexpr bool kObsCompiled = true;
#else
inline constexpr bool kObsCompiled = false;
#endif

namespace detail {
/// Backing store of thread_id(); 0 until the thread first asks.
inline thread_local std::uint64_t t_thread_id = 0;
/// Slow path of thread_id(): hand the calling thread the next id.
std::uint64_t assign_thread_id() noexcept;
}  // namespace detail

/// Stable per-thread id: the calling thread's registration order,
/// starting at 1 (the main thread is whoever asks first). The one
/// per-thread registration in obs — it names wall-clock trace tracks
/// and picks each thread's Counter shard. After the first call it is
/// one thread-local read.
[[nodiscard]] inline std::uint64_t thread_id() noexcept {
  const std::uint64_t id = detail::t_thread_id;
  return id != 0 ? id : detail::assign_thread_id();
}

/// Monotonic event count (events fired, samples taken, cells run...).
///
/// Sharded per thread: add() bumps the calling thread's cache-line
/// slot (thread_id() round-robin over kShards), and value()/reset()
/// sum/zero every slot. Threads beyond kShards share a slot through
/// the atomic add, which stays exact and is merely contended. Cost:
/// kShards cache lines (1 KiB) per registered counter.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::uint64_t n = 1) noexcept {
    if constexpr (kObsCompiled) {
      shards_[thread_id() % kShards].value.fetch_add(
          n, std::memory_order_relaxed);
    } else {
      (void)n;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const Shard& s : shards_) {
      sum += s.value.load(std::memory_order_relaxed);
    }
    return sum;
  }
  void reset() noexcept {
    for (Shard& s : shards_) {
      s.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, kShards> shards_{};
};

/// Last-written (or high-water) double value.
class Gauge {
 public:
  void set(double v) noexcept {
    if constexpr (kObsCompiled) {
      value_.store(v, std::memory_order_relaxed);
    } else {
      (void)v;
    }
  }
  /// Raise the gauge to `v` if larger (high-water mark, e.g. max heap
  /// depth). Lock-free CAS; no-op once the mark is reached.
  void set_max(double v) noexcept {
    if constexpr (kObsCompiled) {
      double cur = value_.load(std::memory_order_relaxed);
      while (v > cur &&
             !value_.compare_exchange_weak(cur, v,
                                           std::memory_order_relaxed)) {
      }
    } else {
      (void)v;
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i],
/// plus one implicit overflow bucket. Bucket layout is fixed at
/// registration so observe() is a search plus one relaxed increment.
class Histogram {
 public:
  /// \param upper_bounds  strictly increasing bucket upper bounds.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  struct Snapshot {
    std::vector<double> bounds;          ///< as registered
    std::vector<std::uint64_t> counts;   ///< bounds.size() + 1 (overflow last)
    std::uint64_t count = 0;             ///< total observations
    double sum = 0.0;                    ///< sum of observed values
    [[nodiscard]] double mean() const noexcept {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
  };
  [[nodiscard]] Snapshot snapshot() const;
  void reset() noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds_+1 cells
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Process-wide name -> metric map. Names are dotted,
/// "<category>.<what>" (e.g. "engine.events_fired"); the category
/// prefix groups metrics in trace exports and `voprofctl trace`.
class Registry {
 public:
  /// The shared instance every component registers into. Intentionally
  /// immortal (never destroyed), so metric references held by
  /// function-local statics stay valid during process teardown.
  [[nodiscard]] static Registry& global();

  /// Find-or-create; the returned reference lives forever. Re-lookups
  /// of the same name return the same object, so concurrent components
  /// share one metric.
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  /// First registration fixes the bucket bounds; later calls with the
  /// same name return the existing histogram regardless of bounds.
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     std::vector<double> upper_bounds);

  struct Snapshot {
    struct Entry {
      std::string name;
      std::string kind;  ///< "counter" | "gauge" | "histogram"
      double value = 0.0;
      Histogram::Snapshot hist;  ///< histogram entries only
    };
    std::vector<Entry> entries;  ///< sorted by name
  };
  [[nodiscard]] Snapshot snapshot() const;

  /// Zero every metric, keeping registrations (and thus outstanding
  /// references) intact. Tests only.
  void reset_all();

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Category prefix of a dotted metric name ("engine.events_fired" ->
/// "engine"); the whole name when it has no dot.
[[nodiscard]] std::string metric_category(const std::string& name);

}  // namespace voprof::obs
