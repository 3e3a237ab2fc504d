// ncl::serve SLO machinery: SlowRequestLog keeps exactly the N slowest with
// a monotone admission floor, and SloWatchdog turns the wait-free request
// feed into rolling windows — latency violations, error-budget breaches,
// stall detection with re-arm, and `ncl.serve.slo.*` registry publication.

#include "serve/slo.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/sampler.h"
#include "util/json_writer.h"

namespace ncl::serve {
namespace {

SloConfig ManualConfig() {
  // A huge interval parks the background thread; tests drive evaluation
  // deterministically through EvaluateNow().
  SloConfig config;
  config.enabled = true;
  config.check_interval_ms = 1000000;
  return config;
}

RequestTimings TimingsOf(double total_us) {
  RequestTimings t;
  t.total_us = total_us;
  return t;
}

// ---------------------------------------------------------------------------
// SlowRequestLog

TEST(SlowRequestLogTest, KeepsExactlyTheNSlowest) {
  SlowRequestLog log(3);
  for (uint64_t id = 1; id <= 10; ++id) {
    const double total = static_cast<double>(id * 100);
    log.Offer(id, total, TimingsOf(total), {"q"});
  }
  std::vector<SlowRequest> slowest = log.Snapshot();
  ASSERT_EQ(slowest.size(), 3u);
  EXPECT_EQ(slowest[0].request_id, 10u);  // sorted slowest-first
  EXPECT_EQ(slowest[1].request_id, 9u);
  EXPECT_EQ(slowest[2].request_id, 8u);
  EXPECT_DOUBLE_EQ(slowest[0].total_us, 1000.0);
}

TEST(SlowRequestLogTest, FastRequestsNeverEvictSlowOnes) {
  SlowRequestLog log(2);
  log.Offer(1, 5000.0, TimingsOf(5000.0), {"slow"});
  log.Offer(2, 4000.0, TimingsOf(4000.0), {"slow"});
  // Full log, floor = 4000: a flood of fast requests must bounce off it.
  for (uint64_t id = 100; id < 200; ++id) {
    log.Offer(id, 10.0, TimingsOf(10.0), {"fast"});
  }
  std::vector<SlowRequest> slowest = log.Snapshot();
  ASSERT_EQ(slowest.size(), 2u);
  EXPECT_EQ(slowest[0].request_id, 1u);
  EXPECT_EQ(slowest[1].request_id, 2u);
}

TEST(SlowRequestLogTest, JoinsQueryTokensAndKeepsTimings) {
  SlowRequestLog log(1);
  RequestTimings t;
  t.queue_wait_us = 10.0;
  t.batch_form_us = 20.0;
  t.candgen_us = 30.0;
  t.ed_us = 40.0;
  t.rank_us = 5.0;
  t.total_us = 105.0;
  log.Offer(7, t.total_us, t, {"iron", "deficiency", "anemia"});
  std::vector<SlowRequest> slowest = log.Snapshot();
  ASSERT_EQ(slowest.size(), 1u);
  EXPECT_EQ(slowest[0].query, "iron deficiency anemia");
  EXPECT_DOUBLE_EQ(slowest[0].timings.candgen_us, 30.0);
  EXPECT_DOUBLE_EQ(slowest[0].timings.ed_us, 40.0);
}

TEST(SlowRequestLogTest, ZeroCapacityDisablesTheLog) {
  SlowRequestLog log(0);
  log.Offer(1, 1e9, TimingsOf(1e9), {"q"});
  EXPECT_TRUE(log.Snapshot().empty());
}

TEST(SlowRequestLogTest, ConcurrentOffersKeepTheGlobalSlowest) {
  SlowRequestLog log(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&log, t] {
      for (uint64_t i = 0; i < 1000; ++i) {
        const uint64_t id = static_cast<uint64_t>(t) * 1000 + i;
        log.Offer(id, static_cast<double>(id), TimingsOf(id), {"q"});
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<SlowRequest> slowest = log.Snapshot();
  ASSERT_EQ(slowest.size(), 4u);
  // Ids 3999..3996 carry the largest totals regardless of interleaving.
  EXPECT_DOUBLE_EQ(slowest[0].total_us, 3999.0);
  EXPECT_DOUBLE_EQ(slowest[3].total_us, 3996.0);
}

// ---------------------------------------------------------------------------
// SloWatchdog

TEST(SloWatchdogTest, WindowReflectsOnlyTheInterval) {
  SloWatchdog watchdog(ManualConfig(), nullptr);
  for (int i = 0; i < 100; ++i) watchdog.RecordRequest(1000.0, true);
  watchdog.EvaluateNow();

  SloWindowStats window = watchdog.window();
  EXPECT_EQ(window.window_requests, 100u);
  EXPECT_EQ(window.window_errors, 0u);
  // Log2 buckets bound the quantile within 2x of the true 1000us.
  EXPECT_GE(window.window_p50_us, 512.0);
  EXPECT_LE(window.window_p50_us, 2048.0);
  EXPECT_DOUBLE_EQ(window.error_rate_pct, 0.0);
  EXPECT_DOUBLE_EQ(window.budget_remaining_pct, 100.0);
  EXPECT_EQ(window.windows_evaluated, 1u);

  // The next window starts from a fresh baseline: no traffic, no requests.
  watchdog.EvaluateNow();
  window = watchdog.window();
  EXPECT_EQ(window.window_requests, 0u);
  EXPECT_EQ(window.windows_evaluated, 2u);
  watchdog.Stop();
}

TEST(SloWatchdogTest, SlowWindowCountsALatencyViolation) {
  SloConfig config = ManualConfig();
  config.latency_target_us = 1000.0;
  SloWatchdog watchdog(config, nullptr);
  for (int i = 0; i < 50; ++i) watchdog.RecordRequest(100000.0, true);
  watchdog.EvaluateNow();
  EXPECT_EQ(watchdog.window().latency_violations, 1u);
  // A quiet window is not a violation (no data != slow data).
  watchdog.EvaluateNow();
  EXPECT_EQ(watchdog.window().latency_violations, 1u);
  // Another slow window fires again.
  watchdog.RecordRequest(200000.0, true);
  watchdog.EvaluateNow();
  EXPECT_EQ(watchdog.window().latency_violations, 2u);
  watchdog.Stop();
}

TEST(SloWatchdogTest, ErrorRateBeyondBudgetBreaches) {
  SloConfig config = ManualConfig();
  config.error_budget_pct = 10.0;
  SloWatchdog watchdog(config, nullptr);
  for (int i = 0; i < 9; ++i) watchdog.RecordRequest(100.0, true);
  watchdog.RecordRequest(100.0, false);  // 10% == budget: not a breach
  watchdog.EvaluateNow();
  SloWindowStats window = watchdog.window();
  EXPECT_EQ(window.window_errors, 1u);
  EXPECT_DOUBLE_EQ(window.error_rate_pct, 10.0);
  EXPECT_EQ(window.error_budget_breaches, 0u);
  EXPECT_DOUBLE_EQ(window.budget_remaining_pct, 0.0);

  for (int i = 0; i < 2; ++i) watchdog.RecordRequest(100.0, true);
  for (int i = 0; i < 2; ++i) watchdog.RecordRequest(100.0, false);
  watchdog.EvaluateNow();  // 50% > 10%: breach
  window = watchdog.window();
  EXPECT_DOUBLE_EQ(window.error_rate_pct, 50.0);
  EXPECT_EQ(window.error_budget_breaches, 1u);
  watchdog.Stop();
}

TEST(SloWatchdogTest, StallFiresAfterDeadlineAndRearms) {
  struct ProbeState {
    std::atomic<size_t> depth{4};
    std::atomic<uint64_t> batches{0};
  };
  ProbeState state;
  SloConfig config = ManualConfig();
  config.stall_deadline_multiple = 2;
  SloWatchdog watchdog(config, [&state] {
    SloWatchdog::Probe probe;
    probe.queue_depth = state.depth.load();
    probe.queue_capacity = 4;
    probe.batches = state.batches.load();
    return probe;
  });

  // Queue pinned at capacity, batch counter frozen: the second consecutive
  // check crosses stall_deadline_multiple.
  watchdog.EvaluateNow();
  EXPECT_EQ(watchdog.window().stalls, 0u);
  watchdog.EvaluateNow();
  EXPECT_EQ(watchdog.window().stalls, 1u);
  // Re-armed: a persistent stall fires again after another full deadline.
  watchdog.EvaluateNow();
  EXPECT_EQ(watchdog.window().stalls, 1u);
  watchdog.EvaluateNow();
  EXPECT_EQ(watchdog.window().stalls, 2u);

  // Dispatch progress (batch counter moving) resets the countdown even with
  // the queue still full.
  state.batches.store(1);
  watchdog.EvaluateNow();
  state.batches.store(2);
  watchdog.EvaluateNow();
  EXPECT_EQ(watchdog.window().stalls, 2u);

  // A draining queue is never a stall.
  state.depth.store(1);
  watchdog.EvaluateNow();
  watchdog.EvaluateNow();
  EXPECT_EQ(watchdog.window().stalls, 2u);
  watchdog.Stop();
}

TEST(SloWatchdogTest, PublishesWindowGaugesAndViolationCounters) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter* violations =
      registry.GetCounter("ncl.serve.slo.latency_violations");
  const uint64_t before = violations->value();

  SloConfig config = ManualConfig();
  config.latency_target_us = 1.0;
  SloWatchdog watchdog(config, nullptr);
  watchdog.RecordRequest(50000.0, true);
  watchdog.EvaluateNow();
  EXPECT_EQ(violations->value(), before + 1);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("ncl.serve.slo.window_requests")->value(), 1.0);
  EXPECT_GT(registry.GetGauge("ncl.serve.slo.window_p99_us")->value(), 1.0);

  // Re-evaluating without new violations must not re-publish old counts.
  watchdog.EvaluateNow();
  EXPECT_EQ(violations->value(), before + 1);
  watchdog.Stop();
}

TEST(SloWatchdogTest, BackgroundThreadEvaluatesOnItsOwn) {
  SloConfig config;
  config.enabled = true;
  config.check_interval_ms = 1;
  SloWatchdog watchdog(config, nullptr);
  for (int spin = 0; spin < 300 && watchdog.window().windows_evaluated < 3;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  watchdog.Stop();
  EXPECT_GE(watchdog.window().windows_evaluated, 3u);
}

TEST(SloWatchdogTest, HugeIntervalIsClampedNotSpun) {
  // An unclamped period overflowed the timed wait's nanosecond count, and
  // the watchdog evaluated continuously instead of once an hour.
  SloConfig config;
  config.enabled = true;
  config.check_interval_ms = std::numeric_limits<int64_t>::max() / 2;
  SloWatchdog watchdog(config, nullptr);
  EXPECT_EQ(watchdog.config().check_interval_ms,
            obs::MetricsSampler::kMaxIntervalMs);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  watchdog.Stop();
  EXPECT_EQ(watchdog.window().windows_evaluated, 0u);
}

TEST(SloWatchdogTest, AppendJsonEmitsTheReportShape) {
  SloWatchdog watchdog(ManualConfig(), nullptr);
  watchdog.RecordRequest(500.0, true);
  watchdog.RecordRequest(500.0, false);
  watchdog.EvaluateNow();
  JsonWriter json;
  watchdog.AppendJson(&json);
  const std::string out = json.str();
  EXPECT_NE(out.find("\"config\":{"), std::string::npos) << out;
  EXPECT_NE(out.find("\"latency_target_us\":"), std::string::npos) << out;
  EXPECT_NE(out.find("\"window\":{\"requests\":2,\"errors\":1"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"violations\":{"), std::string::npos) << out;
  EXPECT_NE(out.find("\"windows_evaluated\":1"), std::string::npos) << out;
  watchdog.Stop();
}

}  // namespace
}  // namespace ncl::serve
