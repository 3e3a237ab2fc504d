#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace ncl {
namespace {

TEST(ThreadPoolTest, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  pool.Submit([&] { value = 42; }).get();
  EXPECT_EQ(value, 42);
}

TEST(ThreadPoolTest, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter, 100);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(3);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
  std::atomic<int> calls{0};
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForComputesCorrectSum) {
  ThreadPool pool(8);
  const size_t n = 10000;
  std::vector<long long> results(n);
  pool.ParallelFor(n, [&](size_t i) { results[i] = static_cast<long long>(i); });
  long long total = std::accumulate(results.begin(), results.end(), 0LL);
  EXPECT_EQ(total, static_cast<long long>(n) * (n - 1) / 2);
}

TEST(ThreadPoolTest, MinimumOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> v{0};
  pool.ParallelFor(5, [&](size_t) { ++v; });
  EXPECT_EQ(v, 5);
}

TEST(ThreadPoolTest, DestructionDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { ++counter; });
    }
    // Destructor joins after the queue drains.
  }
  EXPECT_EQ(counter, 50);
}

TEST(ThreadPoolTest, NestedSubmitFromParallelForBody) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  // The body itself is cheap; this exercises contention on the cursor.
  pool.ParallelFor(64, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter, 64);
}

// Regression: a throwing iteration used to propagate out of a worker's
// future.get() while the remaining futures were abandoned, terminating the
// process once a second worker also threw. ParallelFor must join every
// worker, then rethrow the first exception on the calling thread.
TEST(ThreadPoolTest, ParallelForRethrowsIterationException) {
  ThreadPool pool(4);
  std::atomic<int> started{0};
  EXPECT_THROW(
      pool.ParallelFor(128,
                       [&](size_t i) {
                         ++started;
                         if (i == 7) throw std::runtime_error("iteration 7");
                       }),
      std::runtime_error);
  // At least the throwing iteration ran; later iterations may be skipped.
  EXPECT_GE(started.load(), 1);
}

TEST(ThreadPoolTest, ParallelForExceptionMessagePreserved) {
  ThreadPool pool(3);
  try {
    pool.ParallelFor(16, [&](size_t i) {
      if (i == 3) throw std::runtime_error("boom at 3");
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 3");
  }
}

TEST(ThreadPoolTest, ParallelForUsableAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(32, [](size_t) { throw std::runtime_error("die"); }),
      std::runtime_error);
  // The pool and its workers must survive the failed run intact.
  std::vector<std::atomic<int>> hits(256);
  pool.ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForExceptionCancelsRemainingWork) {
  // With a single worker plus the calling thread, an early throw must stop
  // the sweep instead of grinding through every remaining index.
  ThreadPool pool(1);
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.ParallelFor(100000,
                                [&](size_t) {
                                  ++executed;
                                  throw std::runtime_error("first");
                                }),
               std::runtime_error);
  // Cancellation is cooperative: a few iterations may start before every
  // thread observes the flag, but nowhere near the full range.
  EXPECT_LT(executed.load(), 100);
}

TEST(ParallelForOnCoresTest, CoversEveryIndexOnceWithValidWorkerIds) {
  std::vector<std::atomic<int>> hits(1000);
  std::vector<std::atomic<int>> per_worker(NumCores());
  ParallelForOnCores(hits.size(), [&](size_t worker, size_t i) {
    ASSERT_LT(worker, per_worker.size());
    ++per_worker[worker];
    ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h, 1);
  int total = 0;
  for (const auto& w : per_worker) total += w;
  EXPECT_EQ(total, 1000);
}

TEST(ParallelForOnCoresTest, ZeroAndOne) {
  ParallelForOnCores(0, [](size_t, size_t) { FAIL() << "must not be called"; });
  std::atomic<int> calls{0};
  ParallelForOnCores(1, [&](size_t worker, size_t i) {
    EXPECT_EQ(worker, 0u);  // one iteration runs on the calling thread
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForOnCoresTest, RethrowsFirstExceptionAfterJoining) {
  std::atomic<int> executed{0};
  try {
    ParallelForOnCores(100000, [&](size_t, size_t i) {
      ++executed;
      if (i % 2 == 0) throw std::runtime_error("boom");
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_LT(executed.load(), 1000);  // the rest of the sweep was skipped
}

}  // namespace
}  // namespace ncl
