// ncl::obs MetricsSampler: interval deltas and rates, windowed histogram
// quantiles from bucket deltas, the bounded ring, prefix filtering, the
// TIMESERIES JSON shape, background sampling and its one-hour period
// ceiling, the WriteJson error path, the per-sample step, and concurrent
// hammers (the TSan job runs this binary) pinning that sampling never races
// the wait-free metric writers and that SampleNow never races the
// background tick into double-counting an interval.

#include "obs/sampler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace ncl::obs {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

MetricsSampler::Config ManualConfig() {
  // A huge interval turns the background thread into a no-op so tests drive
  // sampling deterministically through SampleNow().
  MetricsSampler::Config config;
  config.interval_ms = 1000000;
  return config;
}

TEST(MetricsSamplerTest, CounterDeltasAndRates) {
  MetricsRegistry registry;
  Counter* requests = registry.GetCounter("test.requests");
  requests->Increment(5);

  MetricsSampler sampler(&registry, ManualConfig());
  requests->Increment(7);
  sampler.SampleNow();

  std::vector<TimeseriesSample> samples = sampler.Samples();
  ASSERT_EQ(samples.size(), 1u);
  ASSERT_EQ(samples[0].counter_deltas.size(), 1u);
  EXPECT_EQ(samples[0].counter_deltas[0].first, "test.requests");
  // The construction-time baseline already held 5, so only the 7 recorded
  // after it count.
  EXPECT_EQ(samples[0].counter_deltas[0].second, 7u);
  ASSERT_EQ(samples[0].counter_rates.size(), 1u);
  EXPECT_GT(samples[0].counter_rates[0].second, 0.0);

  // A quiet second interval reports a zero delta, not the cumulative value.
  sampler.SampleNow();
  samples = sampler.Samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[1].counter_deltas[0].second, 0u);
}

TEST(MetricsSamplerTest, CounterRegisteredMidFlightDiffsAgainstZero) {
  MetricsRegistry registry;
  MetricsSampler sampler(&registry, ManualConfig());
  registry.GetCounter("test.late")->Increment(3);
  sampler.SampleNow();
  std::vector<TimeseriesSample> samples = sampler.Samples();
  ASSERT_EQ(samples.size(), 1u);
  ASSERT_EQ(samples[0].counter_deltas.size(), 1u);
  EXPECT_EQ(samples[0].counter_deltas[0].second, 3u);
}

TEST(MetricsSamplerTest, ResetBetweenSamplesDoesNotUnderflow) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.reset");
  counter->Increment(100);
  MetricsSampler sampler(&registry, ManualConfig());
  sampler.SampleNow();
  registry.ResetAll();
  counter->Increment(2);
  sampler.SampleNow();
  std::vector<TimeseriesSample> samples = sampler.Samples();
  ASSERT_EQ(samples.size(), 2u);
  // 2 < 100: the saturating delta reports the post-reset value instead of a
  // wrapped ~2^64 increment.
  EXPECT_EQ(samples[1].counter_deltas[0].second, 2u);
}

TEST(MetricsSamplerTest, WindowedHistogramQuantilesReflectOnlyTheInterval) {
  MetricsRegistry registry;
  Histogram* latency = registry.GetHistogram("test.latency_us");
  // Pre-sampler history: a thousand tiny values that would drag cumulative
  // quantiles down.
  for (int i = 0; i < 1000; ++i) latency->Record(2);

  MetricsSampler sampler(&registry, ManualConfig());
  // The interval itself records only large values.
  for (int i = 0; i < 100; ++i) latency->Record(5000);
  sampler.SampleNow();

  std::vector<TimeseriesSample> samples = sampler.Samples();
  ASSERT_EQ(samples.size(), 1u);
  ASSERT_EQ(samples[0].histograms.size(), 1u);
  const WindowedHistogram& wh = samples[0].histograms[0].second;
  EXPECT_EQ(wh.count, 100u);
  EXPECT_NEAR(wh.mean, 5000.0, 1.0);
  // Log2 buckets bound the quantile within 2x; the point is that the window
  // p50 sits in the thousands, not at the cumulative ~2.
  EXPECT_GE(wh.p50, 2048.0);
  EXPECT_LE(wh.p50, 8192.0);
  EXPECT_GE(wh.p99, 2048.0);
}

TEST(MetricsSamplerTest, QuietHistogramsAreOmittedFromTheSample) {
  MetricsRegistry registry;
  registry.GetHistogram("test.idle")->Record(1);
  MetricsSampler sampler(&registry, ManualConfig());
  sampler.SampleNow();  // no records since the baseline
  std::vector<TimeseriesSample> samples = sampler.Samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_TRUE(samples[0].histograms.empty());
}

TEST(MetricsSamplerTest, GaugesReportLevelsNotDeltas) {
  MetricsRegistry registry;
  Gauge* depth = registry.GetGauge("test.depth");
  depth->Set(4.0);
  MetricsSampler sampler(&registry, ManualConfig());
  depth->Set(9.0);
  sampler.SampleNow();
  std::vector<TimeseriesSample> samples = sampler.Samples();
  ASSERT_EQ(samples[0].gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0].gauges[0].second, 9.0);
}

TEST(MetricsSamplerTest, PrefixFiltersMetrics) {
  MetricsRegistry registry;
  registry.GetCounter("ncl.serve.admit")->Increment();
  registry.GetCounter("ncl.link.queries")->Increment();
  MetricsSampler::Config config = ManualConfig();
  config.prefix = "ncl.serve.";
  MetricsSampler sampler(&registry, config);
  registry.GetCounter("ncl.serve.admit")->Increment();
  registry.GetCounter("ncl.link.queries")->Increment();
  sampler.SampleNow();
  std::vector<TimeseriesSample> samples = sampler.Samples();
  ASSERT_EQ(samples[0].counter_deltas.size(), 1u);
  EXPECT_EQ(samples[0].counter_deltas[0].first, "ncl.serve.admit");
}

TEST(MetricsSamplerTest, RingIsBoundedAndCountsDrops) {
  MetricsRegistry registry;
  MetricsSampler::Config config = ManualConfig();
  config.max_samples = 3;
  MetricsSampler sampler(&registry, config);
  for (int i = 0; i < 10; ++i) sampler.SampleNow();
  EXPECT_EQ(sampler.sample_count(), 3u);
  EXPECT_EQ(sampler.dropped_samples(), 7u);
  // The survivors are the newest three: t_ms strictly increases.
  std::vector<TimeseriesSample> samples = sampler.Samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_LE(samples[0].t_ms, samples[1].t_ms);
  EXPECT_LE(samples[1].t_ms, samples[2].t_ms);
}

TEST(MetricsSamplerTest, JsonShapeIsGolden) {
  MetricsRegistry registry;
  MetricsSampler sampler(&registry, ManualConfig());
  registry.GetCounter("test.events")->Increment(4);
  registry.GetGauge("test.level")->Set(2.5);
  registry.GetHistogram("test.us")->Record(100);
  sampler.SampleNow();

  const std::string json = sampler.ToJson();
  EXPECT_TRUE(Contains(json, "\"interval_ms\":")) << json;
  EXPECT_TRUE(Contains(json, "\"max_samples\":")) << json;
  EXPECT_TRUE(Contains(json, "\"dropped_samples\":0")) << json;
  EXPECT_TRUE(Contains(json, "\"samples\":[{")) << json;
  EXPECT_TRUE(Contains(json, "\"t_ms\":")) << json;
  EXPECT_TRUE(Contains(json, "\"dt_ms\":")) << json;
  EXPECT_TRUE(Contains(json, "\"test.events\":{\"delta\":4,\"rate_per_s\":"))
      << json;
  EXPECT_TRUE(Contains(json, "\"test.level\":2.5")) << json;
  EXPECT_TRUE(Contains(json, "\"test.us\":{\"count\":1,\"mean\":")) << json;
  EXPECT_TRUE(Contains(json, "\"p50\":")) << json;
  EXPECT_TRUE(Contains(json, "\"p99\":")) << json;
}

TEST(MetricsSamplerTest, BackgroundThreadSamplesOnItsOwn) {
  MetricsRegistry registry;
  registry.GetCounter("test.bg")->Increment();
  MetricsSampler::Config config;
  config.interval_ms = 1;
  MetricsSampler sampler(&registry, config);
  // ~1 ms period: a few hundred ms is far more than enough even under TSan.
  for (int spin = 0; spin < 300 && sampler.sample_count() < 3; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.Stop();
  EXPECT_GE(sampler.sample_count(), 3u);
}

TEST(MetricsSamplerTest, HugeIntervalIsClampedNotSpun) {
  // An INT64_MAX period overflowed the timed wait's nanosecond count: the
  // background thread sampled continuously instead of never.
  MetricsRegistry registry;
  MetricsSampler::Config config;
  config.interval_ms = std::numeric_limits<int64_t>::max();
  MetricsSampler sampler(&registry, config);
  EXPECT_EQ(sampler.config().interval_ms, MetricsSampler::kMaxIntervalMs);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sampler.Stop();
  EXPECT_EQ(sampler.sample_count(), 0u);
}

TEST(MetricsSamplerTest, StopIsIdempotentAndSampleNowStillWorks) {
  MetricsRegistry registry;
  MetricsSampler sampler(&registry, ManualConfig());
  sampler.Stop();
  sampler.Stop();
  sampler.SampleNow();  // manual sampling outlives the thread
  EXPECT_EQ(sampler.sample_count(), 1u);
}

TEST(MetricsSamplerTest, WriteJsonReportsPathAndErrnoOnFailure) {
  MetricsRegistry registry;
  MetricsSampler sampler(&registry, ManualConfig());
  sampler.SampleNow();
  Status status = sampler.WriteJson("/nonexistent-dir/ts.json");
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(Contains(status.ToString(), "/nonexistent-dir/ts.json"))
      << status.ToString();
  EXPECT_TRUE(Contains(status.ToString(), "errno")) << status.ToString();
}

TEST(MetricsSamplerTest, ConcurrentWritersNeverBlockOrRace) {
  // Hot-path writers hammer the registry while a 1 ms sampler snapshots and
  // a reader drains Samples(); run under TSan this pins the wait-free
  // contract between writers and the sampler.
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.hammer.count");
  Gauge* gauge = registry.GetGauge("test.hammer.level");
  Histogram* histogram = registry.GetHistogram("test.hammer.us");

  MetricsSampler::Config config;
  config.interval_ms = 1;
  MetricsSampler sampler(&registry, config);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        counter->Increment();
        gauge->Set(static_cast<double>(t));
        histogram->Record(i++ & 4095);
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)sampler.Samples();
      (void)sampler.ToJson();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  for (auto& w : writers) w.join();
  reader.join();
  sampler.Stop();

  sampler.SampleNow();
  // Every increment must eventually be visible: the sum of deltas equals
  // the counter's final value (no sample lost, no delta double-counted) as
  // long as the ring never overflowed.
  ASSERT_EQ(sampler.dropped_samples(), 0u)
      << "raise max_samples; the accounting below assumes no drops";
  uint64_t total = 0;
  for (const TimeseriesSample& sample : sampler.Samples()) {
    for (const auto& [name, delta] : sample.counter_deltas) {
      if (name == "test.hammer.count") total += delta;
    }
  }
  EXPECT_EQ(total, counter->value());
}

TEST(MetricsSamplerTest, ConcurrentSampleNowCountsEachEventOnce) {
  // A SampleNow that reads the registry before taking the sampler's lock
  // can, racing the background tick, record an older snapshot after a
  // newer one; the saturating delta then reports a whole cumulative count
  // as one interval.
  for (int round = 0; round < 5; ++round) {
    MetricsRegistry registry;
    Counter* counter = registry.GetCounter("test.race");
    MetricsSampler::Config config;
    config.interval_ms = 1;
    config.max_samples = 200000;
    MetricsSampler sampler(&registry, config);

    std::atomic<bool> stop{false};
    std::thread writer([&] {
      while (!stop.load(std::memory_order_relaxed)) counter->Increment();
    });
    for (int i = 0; i < 100000; ++i) sampler.SampleNow();
    stop.store(true);
    writer.join();
    sampler.Stop();
    sampler.SampleNow();

    ASSERT_EQ(sampler.dropped_samples(), 0u) << "round " << round;
    uint64_t total = 0;
    for (const TimeseriesSample& sample : sampler.Samples()) {
      for (const auto& [name, delta] : sample.counter_deltas) total += delta;
    }
    EXPECT_EQ(total, counter->value()) << "round " << round;
  }
}

TEST(MetricsSamplerTest, PerSampleStepSeesEachNewSample) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.step");
  std::vector<uint64_t> seen;  // written under the sampler's lock
  MetricsSampler sampler(&registry, ManualConfig(),
                         [&seen](const TimeseriesSample& sample) {
                           ASSERT_EQ(sample.counter_deltas.size(), 1u);
                           seen.push_back(sample.counter_deltas[0].second);
                         });
  counter->Increment(3);
  sampler.SampleNow();
  sampler.SampleNow();
  counter->Increment();
  sampler.SampleNow();
  sampler.Stop();
  EXPECT_EQ(seen, (std::vector<uint64_t>{3, 0, 1}));
}

}  // namespace
}  // namespace ncl::obs
