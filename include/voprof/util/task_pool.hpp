#pragma once
/// \file task_pool.hpp
/// Fixed-size worker pool for the deterministic parallel experiment
/// runner (voprof::runner). Simulation tasks are pure functions of an
/// explicit seed, so the pool only has to guarantee that (a) every
/// task runs exactly once, (b) results land at their task index, and
/// (c) exceptions propagate — then sweep results are bit-identical
/// regardless of worker count or scheduling order.
///
/// This is the ONLY place in the repository that constructs threads;
/// voprof-lint's raw-thread rule rejects std::thread elsewhere so all
/// parallelism stays observable and bounded in one layer.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace voprof::util {

class TaskPool {
 public:
  /// How a single-job pool executes work. The sweep runner wants the
  /// historical serial path (inline at submit time, bit-identical to
  /// the pre-pool code); a server wants submit() to never block on the
  /// task itself, even with one worker.
  enum class Threading {
    kInlineWhenSerial,  ///< jobs <= 1: no threads, run at submit time
    kAlwaysThreaded,    ///< always spawn jobs worker threads (>= 1)
  };

  /// `jobs` is the total parallelism: with kInlineWhenSerial (the
  /// default), jobs <= 1 creates NO worker threads and runs every task
  /// inline at submit time (the serial path, byte-identical to the
  /// pre-pool code); jobs = 0 is resolved to default_jobs().
  explicit TaskPool(std::size_t jobs = 0,
                    Threading threading = Threading::kInlineWhenSerial);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Resolved parallelism (>= 1).
  [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }
  /// Hardware concurrency with a floor of 1 (the --jobs default).
  [[nodiscard]] static std::size_t default_jobs() noexcept;

  /// Run `fn` on a worker (or inline when jobs() == 1); the returned
  /// future delivers the result or rethrows the task's exception.
  template <typename Fn>
  [[nodiscard]] auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn&>> {
    using R = std::invoke_result_t<Fn&>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    if (workers_.empty()) {
      const long long t0 = note_task_begin();
      (*task)();
      note_task_end(t0, /*inline_task=*/true);
    } else {
      enqueue([task]() { (*task)(); });
    }
    return fut;
  }

  /// Evaluate fn(i) for every i in [0, n). Blocks until all tasks
  /// finished; rethrows the exception of the lowest failing index
  /// (deterministic choice — later tasks still run to completion).
  /// Every task has finished before anything is rethrown, so `fn` may
  /// refer to the caller's locals.
  template <typename Fn>
  void parallel_for_each(std::size_t n, Fn&& fn) {
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(submit([&fn, i]() { fn(i); }));
    }
    for (auto& f : futures) f.wait();
    for (auto& f : futures) f.get();
  }

  /// parallel_for_each that collects fn(i) into a vector ordered by
  /// task index — the ordering (and thus any downstream aggregation
  /// or CSV row order) never depends on scheduling. Like
  /// parallel_for_each, it rethrows only after every task finished.
  template <typename Fn>
  [[nodiscard]] auto parallel_map(std::size_t n, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    std::vector<std::future<R>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(submit([&fn, i]() { return fn(i); }));
    }
    for (auto& f : futures) f.wait();
    std::vector<R> out;
    out.reserve(n);
    for (auto& f : futures) out.push_back(f.get());
    return out;
  }

 private:
  /// A queued task plus its enqueue timestamp (obs wall clock, us),
  /// feeding the taskpool.queue_wait_ms histogram.
  struct Job {
    std::function<void()> fn;
    long long enqueued_us = 0;
  };

  void enqueue(std::function<void()> job);
  void worker_loop();

  /// Observability hooks (non-template so the obs headers stay out of
  /// this header). begin returns the obs wall clock, or 0 when the
  /// build has observability off; end records duration, task count and
  /// a "taskpool" span when a trace is being collected.
  static long long note_task_begin();
  static void note_task_end(long long begin_us, bool inline_task);

  std::size_t jobs_ = 1;
  std::vector<std::thread> workers_;
  std::vector<Job> queue_;  // FIFO via head index
  std::size_t queue_head_ = 0;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace voprof::util
