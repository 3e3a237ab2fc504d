#include "util/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace ncl {

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
