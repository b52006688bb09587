#include "voprof/util/task_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace voprof::util {
namespace {

TEST(TaskPool, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(TaskPool::default_jobs(), 1u);
  TaskPool pool;
  EXPECT_EQ(pool.jobs(), TaskPool::default_jobs());
}

TEST(TaskPool, SerialPoolRunsInline) {
  TaskPool pool(1);
  EXPECT_EQ(pool.jobs(), 1u);
  // submit() on a serial pool executes before returning.
  bool ran = false;
  auto fut = pool.submit([&ran]() { ran = true; });
  EXPECT_TRUE(ran);
  fut.get();
}

TEST(TaskPool, SubmitReturnsValue) {
  TaskPool pool(4);
  auto fut = pool.submit([]() { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(TaskPool, ParallelMapOrdersResultsByIndex) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    TaskPool pool(jobs);
    const std::vector<std::size_t> out =
        pool.parallel_map(100, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(TaskPool, ParallelForEachVisitsEveryIndexOnce) {
  TaskPool pool(4);
  std::vector<std::atomic<int>> visits(257);
  pool.parallel_for_each(visits.size(), [&visits](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(TaskPool, ExceptionPropagatesFromSubmit) {
  TaskPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(TaskPool, ParallelForEachThrowsLowestFailingIndex) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    TaskPool pool(jobs);
    try {
      pool.parallel_for_each(64, [](std::size_t i) {
        if (i == 7 || i == 31) {
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      // Futures are drained in index order, so the lowest failing
      // index wins no matter which worker failed first.
      EXPECT_STREQ(e.what(), "task 7");
    }
  }
}

TEST(TaskPool, ParallelMapStillCompletesAfterThrow) {
  TaskPool pool(4);
  EXPECT_THROW(pool.parallel_map(16,
                                 [](std::size_t i) -> int {
                                   if (i == 3) throw std::logic_error("x");
                                   return static_cast<int>(i);
                                 }),
               std::logic_error);
  // The pool survives and accepts new work afterwards.
  const std::vector<int> out =
      pool.parallel_map(8, [](std::size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 28);
}

TEST(TaskPool, RethrowsOnlyAfterEveryTaskFinished) {
  // Task 0 fails at once while the others still run. The callers'
  // lambdas refer to their frames, so nothing may be rethrown (and the
  // frame unwound) before the last task is done.
  TaskPool pool(4);
  std::atomic<int> finished{0};
  const auto task = [&finished](std::size_t i) -> int {
    if (i == 0) throw std::logic_error("first");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished.fetch_add(1);
    return 0;
  };
  EXPECT_THROW((void)pool.parallel_map(8, task), std::logic_error);
  EXPECT_EQ(finished.load(), 7);
  finished = 0;
  EXPECT_THROW(pool.parallel_for_each(8, [&task](std::size_t i) { task(i); }),
               std::logic_error);
  EXPECT_EQ(finished.load(), 7);
}

TEST(TaskPool, ManyMoreTasksThanWorkers) {
  TaskPool pool(3);
  std::atomic<long> sum{0};
  pool.parallel_for_each(1000, [&sum](std::size_t i) {
    sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 999L * 1000 / 2);
}

TEST(TaskPool, ZeroTasksIsANoOp) {
  TaskPool pool(2);
  const std::vector<int> out =
      pool.parallel_map(0, [](std::size_t) { return 1; });
  EXPECT_TRUE(out.empty());
  pool.parallel_for_each(0, [](std::size_t) { FAIL(); });
}

}  // namespace
}  // namespace voprof::util
