#include "util/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace ncl {
namespace {

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
