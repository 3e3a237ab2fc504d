#include "serve/slo.h"

#include <algorithm>
#include <utility>

#include "util/json_writer.h"
#include "util/logging.h"

namespace ncl::serve {

// ---------------------------------------------------------------------------
// SlowRequestLog

namespace {

bool SlowerThan(const SlowRequest& a, const SlowRequest& b) {
  return a.total_us > b.total_us;
}

std::string JoinTokens(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& token : tokens) {
    if (!out.empty()) out += ' ';
    out += token;
  }
  return out;
}

}  // namespace

void SlowRequestLog::Offer(uint64_t request_id, double total_us,
                           const RequestTimings& t,
                           const std::vector<std::string>& query) {
  if (capacity_ == 0) return;
  // Fast reject: once the log is full, floor_us_ holds its smallest entry
  // and only rises, so a request at or below a (possibly stale) floor can
  // never belong in the log.
  const double floor = floor_us_.load(std::memory_order_relaxed);
  if (floor > 0.0 && total_us <= floor) return;

  std::lock_guard<std::mutex> lock(mutex_);
  if (heap_.size() == capacity_ && total_us <= heap_.front().total_us) return;
  SlowRequest entry;
  entry.request_id = request_id;
  entry.total_us = total_us;
  entry.timings = t;
  entry.query = JoinTokens(query);
  if (heap_.size() < capacity_) {
    heap_.push_back(std::move(entry));
    std::push_heap(heap_.begin(), heap_.end(), SlowerThan);  // min-heap
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), SlowerThan);
    heap_.back() = std::move(entry);
    std::push_heap(heap_.begin(), heap_.end(), SlowerThan);
  }
  if (heap_.size() == capacity_) {
    floor_us_.store(heap_.front().total_us, std::memory_order_relaxed);
  }
}

std::vector<SlowRequest> SlowRequestLog::Snapshot() const {
  std::vector<SlowRequest> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = heap_;
  }
  std::sort(out.begin(), out.end(), SlowerThan);
  return out;
}

// ---------------------------------------------------------------------------
// SloWatchdog

namespace {

SloConfig Validated(SloConfig config) {
  NCL_CHECK(config.check_interval_ms > 0) << "check_interval_ms must be > 0";
  NCL_CHECK(config.stall_deadline_multiple > 0)
      << "stall_deadline_multiple must be > 0";
  config.check_interval_ms = std::min(config.check_interval_ms,
                                      obs::MetricsSampler::kMaxIntervalMs);
  return config;
}

obs::MetricsSampler::Config SamplerConfig(const SloConfig& config) {
  obs::MetricsSampler::Config sampler;
  sampler.interval_ms = config.check_interval_ms;
  sampler.max_samples = 1;  // Evaluate consumes each sample as it lands
  return sampler;
}

/// The sample's value for `name`, or a default (a quiet histogram is
/// absent from the sample).
template <typename T>
T ValueOf(const std::vector<std::pair<std::string, T>>& entries,
          const std::string& name) {
  for (const auto& [key, value] : entries) {
    if (key == name) return value;
  }
  return T{};
}

}  // namespace

SloWatchdog::SloWatchdog(SloConfig config, std::function<Probe()> probe)
    : config_(Validated(std::move(config))),
      probe_(std::move(probe)),
      latency_(registry_.GetHistogram("e2e_us")),
      ok_(registry_.GetCounter("ok")),
      errors_(registry_.GetCounter("errors")),
      sampler_(&registry_, SamplerConfig(config_),
               [this](const obs::TimeseriesSample& sample) {
                 Evaluate(sample);
               }) {}

void SloWatchdog::RecordRequest(double e2e_us, bool ok) {
  latency_->RecordMicros(e2e_us);
  (ok ? ok_ : errors_)->Increment();
}

void SloWatchdog::Evaluate(const obs::TimeseriesSample& sample) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Gauge* const g_p50 =
      registry.GetGauge("ncl.serve.slo.window_p50_us");
  static obs::Gauge* const g_p99 =
      registry.GetGauge("ncl.serve.slo.window_p99_us");
  static obs::Gauge* const g_requests =
      registry.GetGauge("ncl.serve.slo.window_requests");
  static obs::Gauge* const g_error_rate =
      registry.GetGauge("ncl.serve.slo.error_rate_pct");
  static obs::Gauge* const g_budget =
      registry.GetGauge("ncl.serve.slo.budget_remaining_pct");
  static obs::Counter* const c_latency =
      registry.GetCounter("ncl.serve.slo.latency_violations");
  static obs::Counter* const c_budget =
      registry.GetCounter("ncl.serve.slo.error_budget_breaches");
  static obs::Counter* const c_stalls =
      registry.GetCounter("ncl.serve.slo.stalls");

  // --- Latency / error window: the sampler already diffed this interval.
  const obs::WindowedHistogram latency = ValueOf(sample.histograms, "e2e_us");
  const uint64_t window_errors = ValueOf(sample.counter_deltas, "errors");
  const uint64_t window_requests =
      ValueOf(sample.counter_deltas, "ok") + window_errors;

  std::lock_guard<std::mutex> lock(mutex_);
  window_.windows_evaluated += 1;
  window_.window_requests = window_requests;
  window_.window_errors = window_errors;
  window_.window_p50_us = latency.p50;
  window_.window_p99_us = latency.p99;
  window_.error_rate_pct =
      window_requests > 0 ? 100.0 * static_cast<double>(window_errors) /
                                static_cast<double>(window_requests)
                          : 0.0;
  window_.budget_remaining_pct =
      config_.error_budget_pct > 0.0
          ? std::max(0.0, 100.0 * (1.0 - window_.error_rate_pct /
                                             config_.error_budget_pct))
          : (window_errors == 0 ? 100.0 : 0.0);

  if (latency.count > 0 && window_.window_p99_us > config_.latency_target_us) {
    window_.latency_violations += 1;
    c_latency->Increment();
    NCL_LOG(Warning) << "slo_latency_violation"
                     << " window_p99_us=" << window_.window_p99_us
                     << " target_us=" << config_.latency_target_us
                     << " window_requests=" << window_requests
                     << " violations=" << window_.latency_violations;
  }
  if (window_requests > 0 &&
      window_.error_rate_pct > config_.error_budget_pct) {
    window_.error_budget_breaches += 1;
    c_budget->Increment();
    NCL_LOG(Warning) << "slo_error_budget_breach"
                     << " error_rate_pct=" << window_.error_rate_pct
                     << " budget_pct=" << config_.error_budget_pct
                     << " window_errors=" << window_errors
                     << " window_requests=" << window_requests
                     << " breaches=" << window_.error_budget_breaches;
  }

  // --- Stall detection: a full queue with a frozen batch counter means no
  // shard took a pass since the last check.
  if (probe_) {
    const Probe probe = probe_();
    const bool pinned = probe.queue_capacity > 0 &&
                        probe.queue_depth >= probe.queue_capacity &&
                        probe.batches == prev_batches_;
    pinned_checks_ = pinned ? pinned_checks_ + 1 : 0;
    prev_batches_ = probe.batches;
    if (pinned_checks_ >= config_.stall_deadline_multiple) {
      window_.stalls += 1;
      c_stalls->Increment();
      NCL_LOG(Warning) << "slo_stall"
                       << " queue_depth=" << probe.queue_depth
                       << " queue_capacity=" << probe.queue_capacity
                       << " frozen_checks=" << pinned_checks_
                       << " deadline_ms="
                       << config_.check_interval_ms * pinned_checks_
                       << " stalls=" << window_.stalls;
      pinned_checks_ = 0;  // re-arm so a persistent stall fires periodically
    }
  }

  // --- Publish the window to the global registry so snapshots / the
  // sampler / the CLI all see the watchdog's view under ncl.serve.slo.*.
  g_p50->Set(window_.window_p50_us);
  g_p99->Set(window_.window_p99_us);
  g_requests->Set(static_cast<double>(window_.window_requests));
  g_error_rate->Set(window_.error_rate_pct);
  g_budget->Set(window_.budget_remaining_pct);
}

SloWindowStats SloWatchdog::window() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return window_;
}

void SloWatchdog::AppendJson(JsonWriter* writer) const {
  const SloWindowStats stats = window();
  JsonWriter& json = *writer;
  json.BeginObject();
  json.Key("config").BeginObject();
  json.Key("latency_target_us").Value(config_.latency_target_us);
  json.Key("error_budget_pct").Value(config_.error_budget_pct);
  json.Key("check_interval_ms").Value(config_.check_interval_ms);
  json.Key("stall_deadline_multiple").Value(config_.stall_deadline_multiple);
  json.EndObject();
  json.Key("window").BeginObject();
  json.Key("requests").Value(stats.window_requests);
  json.Key("errors").Value(stats.window_errors);
  json.Key("p50_us").Value(stats.window_p50_us);
  json.Key("p99_us").Value(stats.window_p99_us);
  json.Key("error_rate_pct").Value(stats.error_rate_pct);
  json.Key("budget_remaining_pct").Value(stats.budget_remaining_pct);
  json.EndObject();
  json.Key("violations").BeginObject();
  json.Key("latency").Value(stats.latency_violations);
  json.Key("error_budget").Value(stats.error_budget_breaches);
  json.Key("stalls").Value(stats.stalls);
  json.Key("windows_evaluated").Value(stats.windows_evaluated);
  json.EndObject();
  json.EndObject();
}

}  // namespace ncl::serve
