// ncl::obs time-series sampling — a background thread that snapshots the
// metrics registry every `interval_ms`, converts the cumulative snapshot
// into *interval deltas* (counter increments and rates, windowed histogram
// quantiles from log2-bucket deltas, gauge levels), and keeps the most
// recent `max_samples` points in a bounded in-memory ring.
//
// Cumulative snapshots answer "what happened since the process started";
// the sampler answers "what is happening *now*": a latency regression or a
// queue building up shows in the windowed p99 / rate series immediately,
// while the cumulative histogram dilutes it against hours of history. Each
// sample reads the registry under the sampler's lock, so samples land in
// the order they were read. An optional per-sample step sees each new
// sample on the same thread and lock; the serving-side SLO watchdog
// (src/serve/slo.h) evaluates its rolling windows that way.
//
// The sampler never blocks metric writers: MetricsRegistry::Snapshot reads
// the same relaxed atomics the writers update, so hot paths keep their
// wait-free contract while the sampler runs (pinned by the concurrent
// hammer test and the bench_serve overhead measurement).
//
// Export: WriteJson emits a TIMESERIES_*.json document —
//   {"interval_ms": .., "samples": [{"t_ms": .., "dt_ms": ..,
//     "counters": {name: {"delta": n, "rate_per_s": r}},
//     "gauges": {name: v},
//     "histograms": {name: {"count": n, "mean": m, "p50": .., "p99": ..}}},
//    ...]}
// Histograms appear in a sample only when the interval recorded data;
// counters and gauges appear in every sample so series stay rectangular.

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace ncl {
class JsonWriter;
}

namespace ncl::obs {

/// One histogram's activity inside a single sampling interval.
struct WindowedHistogram {
  uint64_t count = 0;  ///< samples recorded during the interval
  double mean = 0.0;   ///< mean of the interval's samples (from sum deltas)
  double p50 = 0.0;    ///< windowed quantiles from the bucket deltas
  double p99 = 0.0;
};

/// One point of the time series: the registry's change over one interval.
struct TimeseriesSample {
  double t_ms = 0.0;   ///< end of the interval, since sampler start
  double dt_ms = 0.0;  ///< actual interval length (scheduling may stretch it)
  /// Counter increments over the interval, with per-second rates.
  std::vector<std::pair<std::string, uint64_t>> counter_deltas;
  std::vector<std::pair<std::string, double>> counter_rates;
  /// Gauge levels at sample time (gauges are instantaneous, not deltas).
  std::vector<std::pair<std::string, double>> gauges;
  /// Histograms that recorded at least one sample during the interval.
  std::vector<std::pair<std::string, WindowedHistogram>> histograms;
};

/// \brief Background registry sampler with a bounded in-memory ring.
///
/// Construction starts the thread; Stop() (or destruction) joins it. The
/// ring holds the newest `max_samples` points — older ones are dropped and
/// counted (`dropped_samples`), so a long-running service bounds its
/// telemetry memory at max_samples * O(live metrics).
class MetricsSampler {
 public:
  /// Longest sampling period, one hour (like serve::kMaxRequestDeadline):
  /// the constructor clamps longer ones, whose nanosecond count would
  /// overflow the background thread's timed wait.
  static constexpr int64_t kMaxIntervalMs = 3'600'000;

  struct Config {
    /// Sampling period. Sub-millisecond serving ticks still aggregate well
    /// at 100–1000 ms; the floor is 1 ms, the ceiling kMaxIntervalMs.
    int64_t interval_ms = 1000;
    /// Ring bound: newest samples kept (must be > 0).
    size_t max_samples = 600;
    /// When non-empty, only metrics whose name starts with this prefix are
    /// included (e.g. "ncl.serve." for a serving dashboard).
    std::string prefix;
  };

  /// Starts sampling `registry` (must outlive the sampler) immediately.
  /// `step`, when set, runs on each new sample on the thread that took it,
  /// with the sampler's lock held, so it must not call back into the sampler.
  /// The single-argument form uses a default Config (defined out of line:
  /// a `Config()` default argument would need the nested class complete).
  explicit MetricsSampler(MetricsRegistry* registry = &MetricsRegistry::Global());
  MetricsSampler(MetricsRegistry* registry, Config config,
                 std::function<void(const TimeseriesSample&)> step = {});
  ~MetricsSampler();

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// Stop the background thread. Idempotent; implied by the destructor.
  void Stop();

  /// Take one sample right now (in addition to the schedule). Used by tests
  /// and by exporters that want a final flush before WriteJson.
  void SampleNow();

  size_t sample_count() const;
  uint64_t dropped_samples() const;
  const Config& config() const { return config_; }

  /// The ring's current contents, oldest first.
  std::vector<TimeseriesSample> Samples() const;

  /// The ring as a standalone TIMESERIES JSON document.
  std::string ToJson() const;

  /// Write ToJson() to `path`, newline-terminated. Returns a descriptive
  /// IOError (path + errno) on open/write failure.
  Status WriteJson(const std::string& path) const;

 private:
  void Loop();
  /// Read the registry, diff it against prev_ into a sample, and run the
  /// step on it; requires mutex_ held.
  void SampleLocked();
  void AppendJsonLocked(JsonWriter* json) const;

  MetricsRegistry* const registry_;
  const Config config_;
  const std::function<void(const TimeseriesSample&)> step_;

  mutable std::mutex mutex_;
  std::condition_variable cv_stop_;
  bool stopping_ = false;  ///< guarded by mutex_
  MetricsSnapshot prev_;
  double prev_ms_ = 0.0;
  std::deque<TimeseriesSample> samples_;
  uint64_t dropped_ = 0;

  std::chrono::steady_clock::time_point start_;
  std::thread thread_;
};

}  // namespace ncl::obs
