#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <system_error>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ncl {

namespace {

/// Registry handles resolved once per process (all pools share the metrics:
/// serving runs one pool, and per-pool naming would leak pool lifetimes).
struct PoolMetrics {
  obs::Gauge* queue_depth;
  obs::Histogram* queue_wait_us;
  obs::Histogram* task_run_us;
  obs::Counter* tasks;
};

const PoolMetrics& GetPoolMetrics() {
  static const PoolMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return PoolMetrics{registry.GetGauge("ncl.pool.queue_depth"),
                       registry.GetHistogram("ncl.pool.queue_wait_us"),
                       registry.GetHistogram("ncl.pool.task_run_us"),
                       registry.GetCounter("ncl.pool.tasks")};
  }();
  return metrics;
}

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(QueuedTask{std::move(packaged), std::chrono::steady_clock::now()});
  }
  GetPoolMetrics().queue_depth->Increment();
  cv_.notify_one();
  return future;
}

void ThreadPool::ParallelFor(size_t count, const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  if (count == 1 || workers_.size() == 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // Shared atomic cursor: workers steal indices until exhausted. The calling
  // thread participates too, so the pool is never idle-blocked on itself.
  //
  // Exception safety: `body` captures `fn` (and this frame's state) by
  // reference, so the calling frame must never unwind while worker copies
  // are still running. The body therefore swallows exceptions into the
  // shared state — guaranteeing `f.get()` below never throws and every
  // future is awaited — and the first exception is rethrown only after all
  // participants finished. A thrown iteration also cancels the remaining
  // unstarted iterations.
  struct SharedState {
    std::atomic<size_t> cursor{0};
    std::atomic<bool> cancelled{false};
    std::mutex error_mutex;
    std::exception_ptr error;
  };
  auto state = std::make_shared<SharedState>();
  auto body = [state, count, &fn] {
    while (!state->cancelled.load(std::memory_order_relaxed)) {
      size_t i = state->cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      try {
        fn(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(state->error_mutex);
          if (!state->error) state->error = std::current_exception();
        }
        state->cancelled.store(true, std::memory_order_relaxed);
      }
    }
  };
  size_t helpers = std::min(workers_.size(), count - 1);
  std::vector<std::future<void>> futures;
  futures.reserve(helpers);
  for (size_t i = 0; i < helpers; ++i) futures.push_back(Submit(body));
  body();
  for (auto& f : futures) f.get();
  if (state->error) std::rethrow_exception(state->error);
}

void ThreadPool::WorkerLoop() {
  while (true) {
    QueuedTask queued;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      queued = std::move(tasks_.front());
      tasks_.pop();
    }
    const PoolMetrics& metrics = GetPoolMetrics();
    metrics.queue_depth->Decrement();
    metrics.queue_wait_us->RecordMicros(MicrosSince(queued.enqueued));
    const auto run_start = std::chrono::steady_clock::now();
    {
      NCL_TRACE_SPAN("ncl.pool.task");
      queued.task();
    }
    metrics.task_run_us->RecordMicros(MicrosSince(run_start));
    metrics.tasks->Increment();
  }
}

size_t NumCores() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

void ParallelForOnCores(size_t count,
                        const std::function<void(size_t worker, size_t i)>& fn) {
  const size_t workers = std::min(count, NumCores());
  std::atomic<size_t> cursor{0};
  std::atomic<bool> cancelled{false};
  std::mutex error_mutex;
  std::exception_ptr error;
  auto body = [&](size_t worker) {
    try {
      while (!cancelled.load(std::memory_order_relaxed)) {
        const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) break;
        fn(worker, i);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
      cancelled.store(true, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(workers);
  for (size_t worker = 1; worker < workers; ++worker) {
    try {
      helpers.emplace_back(body, worker);
    } catch (const std::system_error&) {
      break;  // no more threads: the ones started share the work
    }
  }
  body(0);
  for (std::thread& helper : helpers) helper.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace ncl
