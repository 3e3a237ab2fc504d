// Fixed-size thread pool with a ParallelFor helper, and ParallelForOnCores,
// a fork-join loop for one-off setup work.
//
// The paper's online linker evaluates the encode-decode probability of the
// k candidate concepts on ten threads (Appendix B.1); ThreadPool provides
// that parallelism for Phase II scoring and for batched training.
// ParallelForOnCores spreads serving setup (the concept-encoding warm-up,
// the ngram index's posting sort) over every core without a pool.
//
// Observability: every pool publishes to the global metrics registry —
// `ncl.pool.queue_depth` (gauge), `ncl.pool.queue_wait_us` and
// `ncl.pool.task_run_us` (histograms), `ncl.pool.tasks` (counter) — and
// each executed task runs under an `ncl.pool.task` trace span.

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ncl {

/// \brief A fixed pool of worker threads executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Create a pool with `num_threads` workers (minimum 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; the returned future resolves when it completes.
  std::future<void> Submit(std::function<void()> task);

  /// Run fn(i) for every i in [0, count), distributing across the pool and
  /// blocking until all iterations finish. fn must be thread-safe. If any
  /// iteration throws, the remaining unstarted iterations are cancelled,
  /// every participating task is still awaited, and the first exception is
  /// rethrown on the calling thread.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  /// A queued task plus its enqueue time (for the queue-wait histogram).
  struct QueuedTask {
    std::packaged_task<void()> task;
    std::chrono::steady_clock::time_point enqueued;
  };

  std::vector<std::thread> workers_;
  std::queue<QueuedTask> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Threads ParallelForOnCores runs on: std::thread::hardware_concurrency(),
/// or 1 when that is unknown.
size_t NumCores();

/// \brief Run fn(worker, i) for every i in [0, count) on up to NumCores()
/// threads: the calling thread (worker 0) plus helpers started for this
/// call and joined before it returns. Threads take indices from a shared
/// cursor; `worker` < NumCores() names the executing thread, so callers can
/// give each one its own scratch. Unlike ThreadPool::ParallelFor it records
/// no metrics or trace spans, so the helpers run nothing but `fn`. If an
/// iteration throws, the remaining ones are skipped and the first exception
/// is rethrown on the calling thread once every helper has joined.
void ParallelForOnCores(size_t count,
                        const std::function<void(size_t worker, size_t i)>& fn);

}  // namespace ncl
