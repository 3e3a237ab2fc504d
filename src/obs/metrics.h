// ncl::obs metrics — a process-wide registry of named counters, gauges and
// log-bucketed histograms for the online linker, the trainer and the caches.
//
// Design contract (the hot path is Phase II scoring at serving rates):
//   * Recording is wait-free: one relaxed atomic RMW per operation, no locks,
//     no allocation. A process-global enable flag (one relaxed load + branch)
//     lets benches measure the instrumentation's own cost.
//   * Handles (`Counter*` / `Gauge*` / `Histogram*`) are resolved once —
//     typically into a function-local static at the instrumentation site —
//     and stay valid for the life of the process; registration takes a mutex
//     but happens off the hot path.
//   * Snapshots are read concurrently with writers (relaxed loads); values
//     within one snapshot are therefore only approximately simultaneous,
//     which is the usual monitoring trade-off.
//
// Naming scheme: `ncl.<subsystem>.<metric>[_<unit>]`, e.g.
// `ncl.link.score_us`, `ncl.concept_cache.hits`, `ncl.serve.queue_depth`.
// Units are suffixes (`_us` microseconds); unsuffixed metrics are counts.
//
// Export: `MetricsSnapshot` renders aligned tables (util/table_writer) for
// humans and JSON (util/json_writer, same style as the BENCH_*.json files)
// for machines — see `ncl_cli --metrics-json` and bench_fig11.

#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace ncl {
class JsonWriter;
}

namespace ncl::obs {

namespace internal {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace internal

/// True when metric recording is active (the default). Disabled metrics cost
/// one relaxed load + branch per call site.
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Toggle recording globally. Only flip while the process is quiescent
/// (gauge increment/decrement pairs straddling a toggle would skew) — the
/// overhead bench does so between interleaved measurement rounds.
void SetMetricsEnabled(bool enabled);

/// \brief Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Instantaneous level that can move both ways (queue depth, last
/// epoch loss). Double-valued so one type covers depths and losses.
class Gauge {
 public:
  void Set(double value) {
    if (!MetricsEnabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(double delta) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1.0); }
  void Decrement() { Add(-1.0); }

  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log2 bucket count shared by Histogram and the snapshot/export types
/// (declared here so HistogramStats can carry raw buckets without needing
/// Histogram's definition first).
inline constexpr size_t kHistogramBuckets = 64;

/// Aggregated view of one histogram at snapshot time. Carries the raw
/// log2 bucket counts alongside the precomputed quantiles so offline
/// tooling (and the MetricsSampler) can compute interval-delta quantiles:
/// subtracting two snapshots' bucket arrays yields the distribution of
/// samples recorded *between* them.
struct HistogramStats {
  uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  uint64_t min = 0;
  uint64_t max = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::array<uint64_t, kHistogramBuckets> buckets{};
};

/// Quantile estimate from log2 bucket counts (`total` = their sum): walk the
/// cumulative distribution to the target rank and interpolate linearly
/// inside the landing bucket. Bucket b covers [2^(b-1), 2^b), bucket 0 holds
/// zeros — the same layout Histogram records into.
double HistogramBucketQuantile(
    const std::array<uint64_t, kHistogramBuckets>& counts, uint64_t total,
    double q);

/// \brief Log2-bucketed histogram of non-negative integer samples
/// (typically microseconds).
///
/// Bucket b holds samples in [2^(b-1), 2^b) (bucket 0 holds zeros), so 64
/// buckets cover the whole uint64 range with ≤ 2x relative quantile error —
/// plenty for latency work where regressions of interest are 10%+. Record is
/// one relaxed fetch_add on the bucket plus sum/count/min/max updates.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = kHistogramBuckets;

  void Record(uint64_t value) {
    if (!MetricsEnabled()) return;
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    UpdateMin(value);
    UpdateMax(value);
  }

  /// Convenience for stopwatch readings: clamps negatives to zero, rounds.
  void RecordMicros(double us) {
    Record(us <= 0.0 ? 0 : static_cast<uint64_t>(us + 0.5));
  }

  /// Aggregate the current contents (concurrent-writer tolerant).
  HistogramStats Stats() const;

  /// Per-bucket counts (index i covers [LowerBound(i), UpperBound(i))).
  std::array<uint64_t, kNumBuckets> BucketCounts() const;

  static uint64_t LowerBound(size_t bucket) {
    return bucket == 0 ? 0 : uint64_t{1} << (bucket - 1);
  }
  static uint64_t UpperBound(size_t bucket) {
    return bucket >= kNumBuckets - 1 ? ~uint64_t{0} : uint64_t{1} << bucket;
  }

  void Reset();

 private:
  static size_t BucketIndex(uint64_t value) {
    size_t bits = static_cast<size_t>(std::bit_width(value));
    return bits < kNumBuckets ? bits : kNumBuckets - 1;
  }

  void UpdateMin(uint64_t value) {
    uint64_t seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }
  void UpdateMax(uint64_t value) {
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~uint64_t{0}};
  std::atomic<uint64_t> max_{0};
};

/// \brief Point-in-time copy of every registered metric, exportable as
/// aligned tables or JSON.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramStats>> histograms;

  /// Aligned monospace tables (one per metric kind with entries).
  std::string RenderTables() const;

  /// Append the snapshot as an object to `writer` (callers control the
  /// enclosing document; keys: "counters", "gauges", "histograms").
  void AppendJson(JsonWriter* writer) const;

  /// Complete standalone JSON document.
  std::string ToJson() const;

  /// Write ToJson() to `path`, newline-terminated.
  Status WriteJsonFile(const std::string& path) const;
};

/// \brief Name → metric registry. One process-wide instance (`Global()`);
/// separate instances are possible for tests.
///
/// Counters, gauges and histograms live in separate namespaces. Lookup is
/// mutex-guarded and returns a pointer that remains valid for the registry's
/// lifetime; the global registry is intentionally leaked so handles stay
/// usable during static destruction.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  /// Zero every registered metric (handles stay valid). Test/bench helper;
  /// not meant for the serving path.
  void ResetAll();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace ncl::obs
