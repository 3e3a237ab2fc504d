#include "obs/sampler.h"

#include <algorithm>
#include <utility>

#include "util/json_writer.h"
#include "util/logging.h"

namespace ncl::obs {

namespace {

bool MatchesPrefix(const std::string& name, const std::string& prefix) {
  return prefix.empty() || name.rfind(prefix, 0) == 0;
}

/// Saturating counter delta: concurrent relaxed writers mean the newer
/// snapshot was read later, so per-metric values are monotone — but guard
/// against a reset (ResetAll in tests/benches) producing a wrapped delta.
uint64_t DeltaOf(uint64_t now, uint64_t before) {
  return now >= before ? now - before : now;
}

MetricsSampler::Config WithBoundedInterval(MetricsSampler::Config config) {
  config.interval_ms =
      std::min(config.interval_ms, MetricsSampler::kMaxIntervalMs);
  return config;
}

}  // namespace

MetricsSampler::MetricsSampler(MetricsRegistry* registry)
    : MetricsSampler(registry, Config()) {}

MetricsSampler::MetricsSampler(
    MetricsRegistry* registry, Config config,
    std::function<void(const TimeseriesSample&)> step)
    : registry_(registry),
      config_(WithBoundedInterval(std::move(config))),
      step_(std::move(step)) {
  NCL_CHECK(registry_ != nullptr);
  NCL_CHECK(config_.max_samples > 0) << "max_samples must be positive";
  NCL_CHECK(config_.interval_ms > 0) << "interval_ms must be positive";
  start_ = std::chrono::steady_clock::now();
  prev_ = registry_->Snapshot();  // t=0 baseline; first sample diffs from it
  prev_ms_ = 0.0;
  thread_ = std::thread([this] { Loop(); });
}

MetricsSampler::~MetricsSampler() { Stop(); }

void MetricsSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_stop_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void MetricsSampler::Loop() {
  const auto interval = std::chrono::milliseconds(config_.interval_ms);
  std::unique_lock<std::mutex> lock(mutex_);
  while (!cv_stop_.wait_for(lock, interval, [this] { return stopping_; })) {
    SampleLocked();
  }
}

void MetricsSampler::SampleNow() {
  std::lock_guard<std::mutex> lock(mutex_);
  SampleLocked();
}

void MetricsSampler::SampleLocked() {
  // Read under the lock: a snapshot read before it could be recorded after
  // a newer one, and DeltaOf would then count a whole cumulative value as
  // one interval. The registry read is lock-free against writers, so only
  // exporters ever wait on it.
  const MetricsSnapshot current = registry_->Snapshot();
  const double now_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
  TimeseriesSample sample;
  sample.t_ms = now_ms;
  sample.dt_ms = now_ms - prev_ms_;
  const double dt_s = std::max(sample.dt_ms, 1e-3) / 1e3;

  // Counters: delta + rate. Snapshots come out of a std::map, so both sides
  // are name-sorted and a merge walk matches them in one pass; a counter
  // registered mid-flight diffs against an implicit zero.
  size_t pc = 0;
  for (const auto& [name, value] : current.counters) {
    while (pc < prev_.counters.size() && prev_.counters[pc].first < name) ++pc;
    if (!MatchesPrefix(name, config_.prefix)) continue;
    const uint64_t before =
        pc < prev_.counters.size() && prev_.counters[pc].first == name
            ? prev_.counters[pc].second
            : 0;
    const uint64_t delta = DeltaOf(value, before);
    sample.counter_deltas.emplace_back(name, delta);
    sample.counter_rates.emplace_back(name, static_cast<double>(delta) / dt_s);
  }

  for (const auto& [name, value] : current.gauges) {
    if (!MatchesPrefix(name, config_.prefix)) continue;
    sample.gauges.emplace_back(name, value);
  }

  // Histograms: bucket-array deltas give the interval's own distribution,
  // so the windowed p50/p99 reflect only the last dt_ms of traffic.
  size_t ph = 0;
  for (const auto& [name, stats] : current.histograms) {
    while (ph < prev_.histograms.size() && prev_.histograms[ph].first < name) {
      ++ph;
    }
    if (!MatchesPrefix(name, config_.prefix)) continue;
    const HistogramStats* before =
        ph < prev_.histograms.size() && prev_.histograms[ph].first == name
            ? &prev_.histograms[ph].second
            : nullptr;
    std::array<uint64_t, kHistogramBuckets> window{};
    uint64_t window_count = 0;
    for (size_t b = 0; b < kHistogramBuckets; ++b) {
      const uint64_t prev_b = before != nullptr ? before->buckets[b] : 0;
      window[b] = DeltaOf(stats.buckets[b], prev_b);
      window_count += window[b];
    }
    if (window_count == 0) continue;
    WindowedHistogram wh;
    wh.count = window_count;
    const double prev_sum = before != nullptr ? before->sum : 0.0;
    wh.mean = (stats.sum - prev_sum) / static_cast<double>(window_count);
    wh.p50 = HistogramBucketQuantile(window, window_count, 0.50);
    wh.p99 = HistogramBucketQuantile(window, window_count, 0.99);
    sample.histograms.emplace_back(name, wh);
  }

  samples_.push_back(std::move(sample));
  while (samples_.size() > config_.max_samples) {
    samples_.pop_front();
    ++dropped_;
  }
  prev_ = current;
  prev_ms_ = now_ms;
  if (step_) step_(samples_.back());
}

size_t MetricsSampler::sample_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_.size();
}

uint64_t MetricsSampler::dropped_samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<TimeseriesSample> MetricsSampler::Samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<TimeseriesSample>(samples_.begin(), samples_.end());
}

void MetricsSampler::AppendJsonLocked(JsonWriter* writer) const {
  JsonWriter& json = *writer;
  json.BeginObject();
  json.Key("interval_ms").Value(config_.interval_ms);
  json.Key("max_samples").Value(static_cast<uint64_t>(config_.max_samples));
  json.Key("prefix").Value(config_.prefix);
  json.Key("dropped_samples").Value(dropped_);
  json.Key("samples").BeginArray();
  for (const TimeseriesSample& sample : samples_) {
    json.BeginObject();
    json.Key("t_ms").Value(sample.t_ms);
    json.Key("dt_ms").Value(sample.dt_ms);
    json.Key("counters").BeginObject();
    for (size_t i = 0; i < sample.counter_deltas.size(); ++i) {
      json.Key(sample.counter_deltas[i].first).BeginObject();
      json.Key("delta").Value(sample.counter_deltas[i].second);
      json.Key("rate_per_s").Value(sample.counter_rates[i].second);
      json.EndObject();
    }
    json.EndObject();
    json.Key("gauges").BeginObject();
    for (const auto& [name, value] : sample.gauges) json.Key(name).Value(value);
    json.EndObject();
    json.Key("histograms").BeginObject();
    for (const auto& [name, wh] : sample.histograms) {
      json.Key(name).BeginObject();
      json.Key("count").Value(wh.count);
      json.Key("mean").Value(wh.mean);
      json.Key("p50").Value(wh.p50);
      json.Key("p99").Value(wh.p99);
      json.EndObject();
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

std::string MetricsSampler::ToJson() const {
  JsonWriter json;
  std::lock_guard<std::mutex> lock(mutex_);
  AppendJsonLocked(&json);
  return json.str();
}

Status MetricsSampler::WriteJson(const std::string& path) const {
  JsonWriter json;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    AppendJsonLocked(&json);
  }
  return json.WriteFile(path);
}

}  // namespace ncl::obs
