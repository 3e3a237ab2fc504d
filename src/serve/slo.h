// ncl::serve SLO watchdog — rolling-window latency / error-budget tracking,
// a stall detector, and a slow-request log for the LinkingService.
//
// The cumulative `ncl.serve.*` histograms answer "how has the service done
// since start"; operating it needs "is the service healthy *right now*":
//
//   * SloWatchdog records each completed request into an instance-local
//     registry (so two services never mix windows) and evaluates the
//     samples one obs::MetricsSampler takes of it every `check_interval_ms`,
//     as the sampler's per-sample step on the sampler's thread. Windowed
//     p50/p99, error rate and remaining error budget are published as
//     `ncl.serve.slo.*` gauges; a window whose p99 exceeds
//     `latency_target_us` or whose error rate exceeds `error_budget_pct`
//     increments the violation counters and logs one structured warning.
//
//   * The stall detector watches shard progress through a caller-supplied
//     probe (queue depth, queue capacity, shard passes taken). A queue
//     pinned at capacity while the pass counter stays frozen for
//     `stall_deadline_multiple` consecutive checks means every shard is
//     wedged — the strongest signal available without preempting threads —
//     and logs a structured `slo_stall` warning plus the
//     `ncl.serve.slo.stalls` counter.
//
//   * SlowRequestLog keeps the N slowest completed requests with their full
//     stage breakdown (RequestTimings) and query text. The hot-path Offer is
//     one relaxed threshold load + branch for the common (not slow) case.
//
// Recording costs when the watchdog is attached: one histogram record and
// one counter increment per request — the same wait-free primitives as the
// global registry, so they honour obs::SetMetricsEnabled. A service with
// `SloConfig::enabled == false` constructs neither the watchdog nor the
// log; its per-request cost is a null check.
//
// Lock order: the sampler's lock, then the watchdog's, then whatever the
// probe takes (LinkingService's queue mutex). window() takes only the
// watchdog's lock.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/sampler.h"
#include "util/status.h"

namespace ncl {
class JsonWriter;
}

namespace ncl::serve {

/// Per-request stage breakdown returned with every LinkResult and captured
/// by the slow-request log. (Defined here, below LinkingService in the
/// dependency order, so slo.h need not include linking_service.h.)
struct RequestTimings {
  double queue_wait_us = 0.0;  ///< admission -> dispatcher drained it
  double batch_form_us = 0.0;  ///< drained -> shard began the slice
  double candgen_us = 0.0;     ///< Phase I: rewrite + candidate retrieval
  double ed_us = 0.0;          ///< Phase II: encode-decode scoring share
  double rank_us = 0.0;        ///< ranking
  double total_us = 0.0;       ///< admission -> completion (queue + service)
};

/// Watchdog knobs. The defaults suit a service whose requests complete in
/// tens of milliseconds; serve-eval and bench_serve override them.
struct SloConfig {
  /// Master switch: off constructs no watchdog and no slow log.
  bool enabled = false;
  /// Rolling-window p99 target. A window (one check interval) whose p99
  /// exceeds this counts one latency violation.
  double latency_target_us = 100000.0;
  /// Allowed failed-request percentage per window; beyond it the window
  /// counts one error-budget breach.
  double error_budget_pct = 1.0;
  /// Watchdog evaluation period (must be > 0; clamped to
  /// obs::MetricsSampler::kMaxIntervalMs).
  int64_t check_interval_ms = 200;
  /// Stall deadline as a multiple of the check interval: a queue pinned at
  /// capacity with no completed batch for this many consecutive checks is
  /// declared stalled (must be > 0).
  int64_t stall_deadline_multiple = 5;
  /// Slowest-request log size (0 disables the log).
  size_t slow_log_n = 8;
};

/// One slow-request log entry.
struct SlowRequest {
  uint64_t request_id = 0;
  double total_us = 0.0;
  RequestTimings timings;
  std::string query;  ///< space-joined query tokens
};

/// \brief Bounded keep-the-slowest log with a lock-free fast reject.
class SlowRequestLog {
 public:
  /// `capacity` bounds the entries kept; none are allocated up front, so a
  /// capacity far above the request count costs nothing.
  explicit SlowRequestLog(size_t capacity) : capacity_(capacity) {}

  /// Consider one completed request. Cheap when the log is full and
  /// `total_us` does not beat the current floor: one relaxed load + branch.
  void Offer(uint64_t request_id, double total_us, const RequestTimings& t,
             const std::vector<std::string>& query);

  /// Entries sorted slowest-first.
  std::vector<SlowRequest> Snapshot() const;

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  /// Admission floor: the smallest total_us in a *full* log (0 until full).
  /// Monotone under Offer, so a stale read only admits a request that then
  /// loses the min-heap comparison under the mutex — never drops one.
  std::atomic<double> floor_us_{0.0};
  mutable std::mutex mutex_;
  std::vector<SlowRequest> heap_;  ///< min-heap by total_us
};

/// Point-in-time view of the watchdog's last evaluated window plus its
/// lifetime violation counts.
struct SloWindowStats {
  uint64_t window_requests = 0;
  uint64_t window_errors = 0;
  double window_p50_us = 0.0;
  double window_p99_us = 0.0;
  double error_rate_pct = 0.0;
  double budget_remaining_pct = 100.0;  ///< of the per-window error budget
  uint64_t latency_violations = 0;      ///< lifetime count of bad windows
  uint64_t error_budget_breaches = 0;
  uint64_t stalls = 0;
  uint64_t windows_evaluated = 0;
};

/// \brief The watchdog: wait-free per-request recording, evaluation on its
/// sampler's thread, `ncl.serve.slo.*` metrics, structured warnings.
class SloWatchdog {
 public:
  /// Shard-progress reading for the stall detector.
  struct Probe {
    size_t queue_depth = 0;
    size_t queue_capacity = 0;
    uint64_t batches = 0;  ///< shard passes taken from the queue
  };

  /// \param probe called from the sampler's thread each check; must be
  ///        thread-safe and non-blocking (LinkingService passes a stats()
  ///        reader). An empty function disables stall detection.
  SloWatchdog(SloConfig config, std::function<Probe()> probe);

  SloWatchdog(const SloWatchdog&) = delete;
  SloWatchdog& operator=(const SloWatchdog&) = delete;

  /// Stop the sampler's thread. Idempotent; implied by the destructor.
  void Stop() { sampler_.Stop(); }

  /// Record one finished request (wait-free; called from shard threads).
  void RecordRequest(double e2e_us, bool ok);

  /// Take and evaluate one window synchronously (tests; also useful for a
  /// final evaluation after Drain so short runs still produce a window).
  void EvaluateNow() { sampler_.SampleNow(); }

  SloWindowStats window() const;
  const SloConfig& config() const { return config_; }

  /// Append the SLO report ({"window": {...}, "violations": {...}}) to an
  /// open JSON document.
  void AppendJson(JsonWriter* writer) const;

 private:
  /// The sampler's per-sample step: one window.
  void Evaluate(const obs::TimeseriesSample& sample);

  const SloConfig config_;
  const std::function<Probe()> probe_;

  /// Instance-local request feed, so two services do not mix windows.
  obs::MetricsRegistry registry_;
  obs::Histogram* const latency_;
  obs::Counter* const ok_;
  obs::Counter* const errors_;

  mutable std::mutex mutex_;  ///< guards window_ and the stall countdown
  SloWindowStats window_;
  uint64_t prev_batches_ = 0;
  int64_t pinned_checks_ = 0;  ///< consecutive checks with a frozen, full queue

  /// Declared last: its thread starts after, and is joined before, every
  /// member Evaluate reads.
  obs::MetricsSampler sampler_;
};

}  // namespace ncl::serve
