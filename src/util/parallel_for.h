// ParallelForOnCores, a fork-join loop that spreads one-off setup work (the
// concept-encoding warm-up, the ngram index's posting sort) over every
// core. Serving traffic runs in parallel on the serving shards instead
// (src/serve).

#pragma once

#include <cstddef>
#include <functional>

namespace ncl {

/// Threads ParallelForOnCores runs on: std::thread::hardware_concurrency(),
/// or 1 when that is unknown.
size_t NumCores();

/// \brief Run fn(worker, i) for every i in [0, count) on up to NumCores()
/// threads: the calling thread (worker 0) plus helpers started for this
/// call and joined before it returns. Threads take indices from a shared
/// cursor; `worker` < NumCores() names the executing thread, so callers can
/// give each one its own scratch. The helpers run nothing but `fn`. If an
/// iteration throws, the remaining ones are skipped and the first exception
/// is rethrown on the calling thread once every helper has joined.
void ParallelForOnCores(size_t count,
                        const std::function<void(size_t worker, size_t i)>& fn);

}  // namespace ncl
