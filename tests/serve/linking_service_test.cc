// LinkingService unit tests: admission policies bound the queue, deadlines
// fail instead of waiting forever, oversize queries are refused before they
// reach a shard, bursts fan out across shards without one slow query
// holding up the rest, and every completion path — the Drain/Shutdown
// lifecycle included — calls back exactly once, outside the service lock.
// A fake snapshot with controllable latency stands in for the real linker
// so saturation is cheap to produce.

#include "serve/linking_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/model_snapshot.h"

namespace ncl::serve {
namespace {

using namespace std::chrono_literals;

/// Snapshot that sleeps for a configurable time and returns one candidate
/// whose id doubles as a payload check.
class FakeSnapshot : public ModelSnapshot {
 public:
  explicit FakeSnapshot(std::chrono::microseconds latency = 0us)
      : latency_(latency) {}

  std::vector<linking::ScoredCandidate> Link(
      const std::vector<std::string>& query) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (latency_.count() > 0) std::this_thread::sleep_for(latency_);
    return {linking::ScoredCandidate{
        static_cast<ontology::ConceptId>(query.size()), -1.0, 1.0}};
  }

  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  std::chrono::microseconds latency_;
  mutable std::atomic<uint64_t> calls_{0};
};

std::vector<std::string> Query(size_t words = 2) {
  return std::vector<std::string>(words, "anemia");
}

TEST(LinkingServiceTest, NoSnapshotFailsPrecondition) {
  TenantRegistry registry;
  LinkingService service(&registry);
  LinkResult result = service.Link(Query());
  EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(result.snapshot_version, 0u);
}

TEST(LinkingServiceTest, ServesRequestsWithTimingsAndVersion) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>());
  LinkingService service(&registry);

  LinkResult result = service.Link(Query(3));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_EQ(result.candidates.size(), 1u);
  EXPECT_EQ(result.candidates[0].concept_id, 3);
  EXPECT_EQ(result.snapshot_version, 1u);
  EXPECT_GE(result.queue_us, 0.0);
  EXPECT_GE(result.service_us, 0.0);

  ServeStats stats = service.stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(LinkingServiceTest, MicroBatchFansOutAcrossShards) {
  TenantRegistry registry;
  auto snapshot = std::make_shared<FakeSnapshot>(2ms);
  registry.Publish(kDefaultTenant, snapshot);
  ServeConfig config;
  config.num_shards = 4;
  config.max_batch = 8;
  LinkingService service(&registry, config);

  constexpr size_t kRequests = 16;
  std::vector<std::future<LinkResult>> futures;
  futures.reserve(kRequests);
  for (size_t i = 0; i < kRequests; ++i) futures.push_back(service.SubmitLink(Query()));
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  EXPECT_EQ(snapshot->calls(), kRequests);
  // The burst cannot have been served one-at-a-time: the backlog builds
  // while the shards score, and each pass takes up to ceil(8 / 4) of it.
  EXPECT_LT(service.stats().batches, kRequests);
}

TEST(LinkingServiceTest, RejectPolicyBoundsQueueDepth) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(5ms));
  ServeConfig config;
  config.queue_capacity = 4;
  config.policy = OverloadPolicy::kReject;
  config.max_batch = 1;
  config.num_shards = 1;
  LinkingService service(&registry, config);

  constexpr size_t kBurst = 32;
  std::vector<std::future<LinkResult>> futures;
  for (size_t i = 0; i < kBurst; ++i) futures.push_back(service.SubmitLink(Query()));

  size_t ok = 0, rejected = 0;
  for (auto& f : futures) {
    LinkResult r = f.get();
    if (r.status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, kBurst);
  EXPECT_GT(rejected, 0u) << "burst should overflow a capacity-4 queue";

  ServeStats stats = service.stats();
  EXPECT_LE(stats.max_queue_depth, config.queue_capacity);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.completed, ok);
}

TEST(LinkingServiceTest, ShedOldestEvictsStalestRequest) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(5ms));
  ServeConfig config;
  config.queue_capacity = 2;
  config.policy = OverloadPolicy::kShedOldest;
  config.max_batch = 1;
  config.num_shards = 1;
  LinkingService service(&registry, config);

  constexpr size_t kBurst = 24;
  std::vector<std::future<LinkResult>> futures;
  for (size_t i = 0; i < kBurst; ++i) futures.push_back(service.SubmitLink(Query()));

  size_t ok = 0, shed = 0;
  for (auto& f : futures) {
    LinkResult r = f.get();
    if (r.status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GT(shed, 0u);
  ServeStats stats = service.stats();
  EXPECT_LE(stats.max_queue_depth, config.queue_capacity);
  EXPECT_EQ(stats.shed, shed);
}

TEST(LinkingServiceTest, QueueWaitPastDeadlineFailsDeadlineExceeded) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(20ms));
  ServeConfig config;
  config.max_batch = 1;
  config.num_shards = 1;
  LinkingService service(&registry, config);

  // First request occupies the only shard for ~20ms; the ones behind it
  // carry a 1ms deadline and must fail instead of waiting unboundedly.
  std::future<LinkResult> head = service.SubmitLink(Query());
  RequestOptions tight;
  tight.deadline = 1ms;
  std::vector<std::future<LinkResult>> tail;
  for (int i = 0; i < 4; ++i) tail.push_back(service.SubmitLink(Query(), tight));

  EXPECT_TRUE(head.get().status.ok());
  size_t exceeded = 0;
  for (auto& f : tail) {
    LinkResult r = f.get();
    if (!r.status.ok()) {
      EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
      ++exceeded;
    }
  }
  EXPECT_GT(exceeded, 0u);
  EXPECT_EQ(service.stats().deadline_exceeded, exceeded);
}

TEST(LinkingServiceTest, BlockPolicyCompletesEverythingWithoutLoss) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(1ms));
  ServeConfig config;
  config.queue_capacity = 2;
  config.policy = OverloadPolicy::kBlock;
  config.max_batch = 2;
  config.num_shards = 2;
  LinkingService service(&registry, config);

  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 8;
  std::atomic<size_t> ok{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (size_t i = 0; i < kPerClient; ++i) {
        if (service.Link(Query()).status.ok()) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);
  ServeStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_LE(stats.max_queue_depth, config.queue_capacity);
}

TEST(LinkingServiceTest, DrainServesQueuedThenRefusesNewWork) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(1ms));
  ServeConfig config;
  config.max_batch = 2;
  config.num_shards = 2;
  LinkingService service(&registry, config);

  std::vector<std::future<LinkResult>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(service.SubmitLink(Query()));
  service.Drain();
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  EXPECT_EQ(service.Link(Query()).status.code(), StatusCode::kUnavailable);
}

TEST(LinkingServiceTest, DrainRacingConcurrentSubmitsResolvesEveryFuture) {
  // Drain from one thread while several submitters hammer SubmitLink: every
  // future must resolve — completed or Unavailable — and never hang. Run
  // under TSan in CI; this is the race the net::Server drain path leans on.
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(200us));
  ServeConfig config;
  config.max_batch = 4;
  config.num_shards = 2;
  LinkingService service(&registry, config);

  constexpr size_t kSubmitters = 4;
  constexpr size_t kPerThread = 50;
  std::mutex futures_mutex;
  std::vector<std::future<LinkResult>> futures;
  std::atomic<size_t> submitted{0};
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (size_t i = 0; i < kPerThread; ++i) {
        std::future<LinkResult> f = service.SubmitLink(Query());
        std::lock_guard<std::mutex> lock(futures_mutex);
        futures.push_back(std::move(f));
        submitted.fetch_add(1, std::memory_order_release);
      }
    });
  }
  // Start the drain mid-burst, concurrent with the submitters, but only once
  // some work is queued (a fixed sleep can elapse before any submitter runs
  // on a busy host).
  while (submitted.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  std::thread drainer([&] { service.Drain(); });
  for (auto& t : submitters) t.join();
  drainer.join();

  size_t ok = 0, unavailable = 0;
  for (auto& f : futures) {
    LinkResult r = f.get();  // must not hang
    if (r.status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kUnavailable)
          << r.status.ToString();
      ++unavailable;
    }
  }
  EXPECT_EQ(ok + unavailable, kSubmitters * kPerThread);
  EXPECT_GT(ok, 0u);  // the drain started after real work was queued
}

TEST(LinkingServiceTest, ShutdownFailsQueuedRequests) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(10ms));
  ServeConfig config;
  config.max_batch = 1;
  config.num_shards = 1;
  LinkingService service(&registry, config);

  std::vector<std::future<LinkResult>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(service.SubmitLink(Query()));
  service.Shutdown();

  size_t ok = 0, unavailable = 0;
  for (auto& f : futures) {
    LinkResult r = f.get();  // every future must still resolve
    if (r.status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
      ++unavailable;
    }
  }
  EXPECT_EQ(ok + unavailable, 8u);
  EXPECT_GT(unavailable, 0u);
}

/// Snapshot that holds queries starting with "slow" until Release(); every
/// other query answers at once.
class SlowQueryGate : public FakeSnapshot {
 public:
  std::vector<linking::ScoredCandidate> Link(
      const std::vector<std::string>& query) const override {
    if (!query.empty() && query[0] == "slow") {
      std::unique_lock<std::mutex> lock(mutex_);
      slow_scoring_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    }
    return FakeSnapshot::Link(query);
  }

  /// Wait (up to `timeout`) until a slow query is being scored.
  bool WaitForSlowQuery(std::chrono::milliseconds timeout) const {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout, [this] { return slow_scoring_; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable bool slow_scoring_ = false;
  bool released_ = false;
};

TEST(LinkingServiceTest, DefaultDeadlineAppliesToEveryRequest) {
  TenantRegistry registry;
  auto snapshot = std::make_shared<SlowQueryGate>();
  registry.Publish(kDefaultTenant, snapshot);
  ServeConfig config;
  config.max_batch = 1;
  config.num_shards = 1;
  // Far above a shard's wake-up time, so the head request always makes it.
  config.default_deadline = 100ms;
  LinkingService service(&registry, config);

  // The head request holds the only shard until Release(); the second one
  // queues behind it and is released only after its default deadline.
  std::future<LinkResult> head = service.SubmitLink({"slow", "query"});
  EXPECT_TRUE(snapshot->WaitForSlowQuery(5s));
  std::future<LinkResult> second = service.SubmitLink(Query());
  // Read after SubmitLink returns, so it is no earlier than the enqueue
  // time the deadline counts from.
  const auto second_submitted = std::chrono::steady_clock::now();
  std::this_thread::sleep_until(second_submitted + config.default_deadline +
                                10ms);
  snapshot->Release();
  EXPECT_TRUE(head.get().status.ok());
  EXPECT_EQ(second.get().status.code(), StatusCode::kDeadlineExceeded);
}

TEST(LinkingServiceTest, SlowQueryDoesNotHoldUpRequestsBehindIt) {
  TenantRegistry registry;
  auto snapshot = std::make_shared<SlowQueryGate>();
  registry.Publish(kDefaultTenant, snapshot);
  ServeConfig config;
  config.num_shards = 2;
  LinkingService service(&registry, config);

  std::future<LinkResult> slow = service.SubmitLink({"slow", "query"});
  EXPECT_TRUE(snapshot->WaitForSlowQuery(5s));
  // One shard is stuck scoring the slow query; the other must serve a
  // request submitted behind it without waiting for the slow one.
  std::future<LinkResult> fast = service.SubmitLink(Query());
  const bool fast_served = fast.wait_for(5s) == std::future_status::ready;
  snapshot->Release();
  EXPECT_TRUE(fast_served) << "a fast request waited behind a slow one";
  EXPECT_TRUE(fast.get().status.ok());
  EXPECT_TRUE(slow.get().status.ok());
}

TEST(LinkingServiceTest, QueryAtEachCapLinks) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>());
  LinkingService service(&registry);

  LinkResult most_tokens = service.Link(Query(kMaxQueryTokens));
  ASSERT_TRUE(most_tokens.status.ok()) << most_tokens.status.ToString();
  EXPECT_EQ(most_tokens.candidates[0].concept_id,
            static_cast<ontology::ConceptId>(kMaxQueryTokens));
  LinkResult longest_token =
      service.Link({"anemia", std::string(kMaxTokenBytes, 'a')});
  EXPECT_TRUE(longest_token.status.ok()) << longest_token.status.ToString();
}

TEST(LinkingServiceTest, QueryOverEitherCapIsRefusedBeforeScoring) {
  obs::Counter* refusals = obs::MetricsRegistry::Global().GetCounter(
      "ncl.serve.rejected_oversize");
  const uint64_t refusals_before = refusals->value();
  TenantRegistry registry;
  auto snapshot = std::make_shared<FakeSnapshot>();
  registry.Publish(kDefaultTenant, snapshot);
  LinkingService service(&registry);

  LinkResult too_many = service.Link(Query(kMaxQueryTokens + 1));
  EXPECT_EQ(too_many.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_many.status.message().find("kMaxQueryTokens"),
            std::string::npos)
      << too_many.status.ToString();
  LinkResult too_long =
      service.Link({"anemia", std::string(kMaxTokenBytes + 1, 'a')});
  EXPECT_EQ(too_long.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_long.status.message().find("kMaxTokenBytes"),
            std::string::npos)
      << too_long.status.ToString();

  EXPECT_EQ(snapshot->calls(), 0u);
  EXPECT_EQ(service.stats().admitted, 0u);
  EXPECT_EQ(refusals->value() - refusals_before, 2u);
}

/// Records each request's completion. Its callbacks call stats(), which
/// takes the service lock, so a path that calls back while holding that
/// lock deadlocks here.
class CompletionLog {
 public:
  /// Submit `query` to `service`; returns the request's slot.
  size_t Submit(LinkingService& service, std::vector<std::string> query,
                RequestOptions options = {}) {
    size_t slot = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      slot = calls_.size();
      calls_.push_back(0);
      codes_.push_back(StatusCode::kOk);
    }
    service.SubmitLink(std::move(query), std::move(options),
                       [this, &service, slot](LinkResult result) {
                         service.stats();
                         std::lock_guard<std::mutex> lock(mutex_);
                         ++calls_[slot];
                         codes_[slot] = result.status.code();
                         cv_.notify_all();
                       });
    return slot;
  }

  /// The status code request `slot` completed with (nullopt after 5 s).
  std::optional<StatusCode> Wait(size_t slot) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_for(lock, 5s, [&] { return calls_[slot] > 0; })) {
      return std::nullopt;
    }
    return codes_[slot];
  }

  std::vector<int> calls() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return calls_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<int> calls_;
  std::vector<StatusCode> codes_;
};

/// One shard, a one-request queue, and a snapshot that holds slow queries
/// until the gate opens.
struct GatedService {
  TenantRegistry registry;
  std::shared_ptr<SlowQueryGate> gate = std::make_shared<SlowQueryGate>();
  std::unique_ptr<LinkingService> service;

  explicit GatedService(OverloadPolicy policy) {
    registry.Publish(kDefaultTenant, gate);
    ServeConfig config;
    config.num_shards = 1;
    config.max_batch = 1;
    config.queue_capacity = 1;
    config.policy = policy;
    service = std::make_unique<LinkingService>(&registry, config);
  }
  ~GatedService() { gate->Release(); }  // never leave a shard stuck
};

TEST(LinkingServiceTest, EveryCompletionPathCallsBackOutsideTheLock) {
  CompletionLog log;  // outlives every service below
  const std::vector<std::string> slow = {"slow", "query"};

  GatedService shedding(OverloadPolicy::kShedOldest);
  LinkingService& shed = *shedding.service;
  // One at a time: a second request queued behind the first would shed it.
  EXPECT_EQ(log.Wait(log.Submit(shed, Query())), StatusCode::kOk);
  RequestOptions unknown_tenant;
  unknown_tenant.ontology = "snomed";
  EXPECT_EQ(log.Wait(log.Submit(shed, Query(), unknown_tenant)),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(log.Wait(log.Submit(shed, Query(kMaxQueryTokens + 1))),
            StatusCode::kInvalidArgument);
  // The slow query holds the only shard, so the next request fills the
  // queue and the one after sheds it.
  const size_t held = log.Submit(shed, slow);
  ASSERT_TRUE(shedding.gate->WaitForSlowQuery(5s));
  const size_t victim = log.Submit(shed, Query());
  RequestOptions tight;
  tight.deadline = 1ms;
  const size_t expired = log.Submit(shed, Query(), tight);
  EXPECT_EQ(log.Wait(victim), StatusCode::kUnavailable);
  std::this_thread::sleep_for(10ms);
  shedding.gate->Release();
  EXPECT_EQ(log.Wait(held), StatusCode::kOk);
  EXPECT_EQ(log.Wait(expired), StatusCode::kDeadlineExceeded);
  shed.Drain();
  EXPECT_EQ(log.Wait(log.Submit(shed, Query())), StatusCode::kUnavailable);

  GatedService rejecting(OverloadPolicy::kReject);
  LinkingService& reject = *rejecting.service;
  const size_t reject_held = log.Submit(reject, slow);
  ASSERT_TRUE(rejecting.gate->WaitForSlowQuery(5s));
  const size_t queued = log.Submit(reject, Query());
  EXPECT_EQ(log.Wait(log.Submit(reject, Query())),
            StatusCode::kResourceExhausted);
  rejecting.gate->Release();
  EXPECT_EQ(log.Wait(reject_held), StatusCode::kOk);
  EXPECT_EQ(log.Wait(queued), StatusCode::kOk);

  // Shutdown fails the queued request and the submitter blocked on the
  // full queue, while the slow query still holds the shard.
  GatedService blocking(OverloadPolicy::kBlock);
  LinkingService& block = *blocking.service;
  const size_t block_held = log.Submit(block, slow);
  ASSERT_TRUE(blocking.gate->WaitForSlowQuery(5s));
  const size_t failed = log.Submit(block, Query());
  size_t blocked = 0;
  std::thread submitter([&] { blocked = log.Submit(block, Query()); });
  std::this_thread::sleep_for(20ms);
  std::thread stopper([&] { block.Shutdown(); });
  EXPECT_EQ(log.Wait(failed), StatusCode::kUnavailable);
  submitter.join();
  EXPECT_EQ(log.Wait(blocked), StatusCode::kUnavailable);
  blocking.gate->Release();
  stopper.join();
  EXPECT_EQ(log.Wait(block_held), StatusCode::kOk);

  for (int calls : log.calls()) EXPECT_EQ(calls, 1);
}

/// Snapshot that records LinkBatch slice sizes (the service's shard slices
/// call LinkBatch, not per-query Link).
class BatchRecordingSnapshot : public FakeSnapshot {
 public:
  using FakeSnapshot::FakeSnapshot;

  std::vector<std::vector<linking::ScoredCandidate>> LinkBatch(
      const std::vector<std::vector<std::string>>& queries,
      const uint64_t* flow_ids,
      std::vector<linking::PhaseTimings>* timings) const override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      slice_sizes_.push_back(queries.size());
    }
    return FakeSnapshot::LinkBatch(queries, flow_ids, timings);
  }

  std::vector<size_t> slice_sizes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return slice_sizes_;
  }

 private:
  mutable std::mutex mutex_;
  mutable std::vector<size_t> slice_sizes_;
};

TEST(LinkingServiceTest, ShardSlicesScoreAsLinkBatchWorkloads) {
  TenantRegistry registry;
  auto snapshot = std::make_shared<BatchRecordingSnapshot>(1ms);
  registry.Publish(kDefaultTenant, snapshot);
  ServeConfig config;
  config.num_shards = 2;
  config.max_batch = 8;
  LinkingService service(&registry, config);

  constexpr size_t kRequests = 16;
  std::vector<std::future<LinkResult>> futures;
  for (size_t i = 0; i < kRequests; ++i) {
    futures.push_back(service.SubmitLink(Query(i + 1)));
  }
  for (size_t i = 0; i < kRequests; ++i) {
    LinkResult r = futures[i].get();
    ASSERT_TRUE(r.status.ok());
    ASSERT_EQ(r.candidates.size(), 1u);
    // Payload round-trip: slice batching must not permute request/result
    // pairing (the fake echoes the query length as the concept id).
    EXPECT_EQ(r.candidates[0].concept_id,
              static_cast<ontology::ConceptId>(i + 1));
  }
  // Every request was scored through LinkBatch slices, at least one of
  // which covered multiple queries.
  size_t covered = 0, multi = 0;
  for (size_t s : snapshot->slice_sizes()) {
    covered += s;
    multi += s > 1 ? 1 : 0;
  }
  EXPECT_EQ(covered, kRequests);
  EXPECT_GT(multi, 0u);
}

TEST(LinkingServiceTest, CandidatesPerBatchHistogramCountsScoredCandidates) {
  obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "ncl.serve.candidates_per_batch");
  const uint64_t count_before = histogram->Stats().count;

  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>());
  LinkingService service(&registry);
  EXPECT_TRUE(service.Link(Query()).status.ok());
  service.Drain();

  // The pass recorded its candidate total (the fake returns 1 per query).
  EXPECT_GT(histogram->Stats().count, count_before);
}

TEST(LinkingServiceTest, HotSwapVersionsAreMonotonePerSubmissionOrder) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(500us));
  ServeConfig config;
  config.max_batch = 2;
  config.num_shards = 2;
  LinkingService service(&registry, config);

  std::vector<std::future<LinkResult>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(service.SubmitLink(Query()));
    if (i == 5) registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(500us));
  }
  uint64_t last = 0;
  for (auto& f : futures) {
    LinkResult r = f.get();
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.snapshot_version == 1 || r.snapshot_version == 2);
    // Batches are FIFO and pin the snapshot at dispatch, so versions never
    // go backwards in submission order.
    EXPECT_GE(r.snapshot_version, last);
    last = r.snapshot_version;
  }
  // A request submitted after the swap must see the new model.
  LinkResult after = service.Link(Query());
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.snapshot_version, 2u);
}

TEST(LinkingServiceTest, AssignsRequestIdsAndStageTimings) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(1ms));
  LinkingService service(&registry);

  LinkResult first = service.Link(Query());
  LinkResult second = service.Link(Query());
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  // Ids are assigned at admission, unique and monotone per service order.
  EXPECT_GT(first.request_id, 0u);
  EXPECT_GT(second.request_id, first.request_id);

  // The stage breakdown is populated and internally consistent: stages are
  // non-negative and the end-to-end total is the queue + service split the
  // service already reported.
  EXPECT_GE(first.timings.queue_wait_us, 0.0);
  EXPECT_GE(first.timings.batch_form_us, 0.0);
  EXPECT_NEAR(first.timings.total_us, first.queue_us + first.service_us, 1e-6);
  EXPECT_GT(first.timings.total_us, 0.0);
}

TEST(LinkingServiceTest, FailedRequestsStillCarryTheirRequestId) {
  TenantRegistry registry;  // no snapshot published
  LinkingService service(&registry);
  LinkResult result = service.Link(Query());
  EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_GT(result.request_id, 0u);
}

// The tentpole acceptance test: one request served with tracing enabled
// renders as a connected flow — the admission span starts edge 0, the
// dispatch marker finishes edge 0 and starts edge 1, the shard's request
// marker finishes edge 1 and starts edge 2 (which the linker would finish
// inside a real NclSnapshot). Golden-substring pinned so the exported JSON
// stays loadable-and-connected in Perfetto.
TEST(LinkingServiceTest, TracedRequestExportsConnectedFlowEvents) {
  obs::SetTracingEnabled(false);
  obs::ClearTrace();
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>());
  LinkingService service(&registry);

  obs::SetTracingEnabled(true);
  LinkResult result = service.Link(Query());
  service.Drain();
  obs::SetTracingEnabled(false);
  ASSERT_TRUE(result.status.ok());
  ASSERT_GT(result.request_id, 0u);

  const std::string json = obs::ChromeTraceJson();
  obs::ClearTrace();
  auto id_str = [&](uint64_t hop) {
    return std::to_string(obs::RequestFlowId(result.request_id, hop));
  };
  // The three serve-layer spans are present...
  EXPECT_NE(json.find("\"name\":\"ncl.serve.admit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ncl.serve.dispatch\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ncl.serve.request\""), std::string::npos);
  // ...edge 0 (admit -> dispatch) departs and arrives...
  EXPECT_NE(json.find("\"ph\":\"s\",\"id\":" + id_str(0)), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\",\"id\":" + id_str(0)),
            std::string::npos)
      << json;
  // ...edge 1 (dispatch -> shard) departs and arrives...
  EXPECT_NE(json.find("\"ph\":\"s\",\"id\":" + id_str(1)), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\",\"id\":" + id_str(1)),
            std::string::npos)
      << json;
  // ...and edge 2 (shard -> linker) departs; a FakeSnapshot has no linker
  // span to terminate it, NclSnapshot does (see ncl_linker's flow span).
  EXPECT_NE(json.find("\"ph\":\"s\",\"id\":" + id_str(2)), std::string::npos)
      << json;
}

TEST(LinkingServiceTest, DisabledTracingEmitsNoServeSpans) {
  obs::SetTracingEnabled(false);
  obs::ClearTrace();
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>());
  LinkingService service(&registry);
  EXPECT_TRUE(service.Link(Query()).status.ok());
  service.Drain();
  const std::string json = obs::ChromeTraceJson();
  EXPECT_EQ(json.find("ncl.serve.admit"), std::string::npos);
  EXPECT_EQ(json.find("ncl.flow"), std::string::npos);
}

TEST(LinkingServiceTest, SloDisabledByDefaultConstructsNoWatchdog) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>());
  LinkingService service(&registry);
  EXPECT_EQ(service.slo_watchdog(), nullptr);
  EXPECT_TRUE(service.slow_requests().empty());
}

TEST(LinkingServiceTest, SloWatchdogAndSlowLogCaptureServedTraffic) {
  TenantRegistry registry;
  registry.Publish(kDefaultTenant, std::make_shared<FakeSnapshot>(2ms));
  ServeConfig config;
  config.slo.enabled = true;
  config.slo.slow_log_n = 4;
  config.slo.check_interval_ms = 20;
  LinkingService service(&registry, config);
  ASSERT_NE(service.slo_watchdog(), nullptr);

  constexpr size_t kRequests = 12;
  std::vector<std::future<LinkResult>> futures;
  for (size_t i = 0; i < kRequests; ++i) {
    futures.push_back(service.SubmitLink(Query(i + 1)));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  service.Drain();  // stops the watchdog after one final evaluation

  // Every completed request was fed into the rolling window (summed across
  // however many check intervals the burst spanned).
  const SloWindowStats window = service.slo_watchdog()->window();
  EXPECT_GE(window.windows_evaluated, 1u);

  std::vector<SlowRequest> slowest = service.slow_requests();
  ASSERT_FALSE(slowest.empty());
  EXPECT_LE(slowest.size(), config.slo.slow_log_n);
  for (size_t i = 1; i < slowest.size(); ++i) {
    EXPECT_GE(slowest[i - 1].total_us, slowest[i].total_us);
  }
  // Entries carry the full stage breakdown and the query text.
  EXPECT_GT(slowest[0].total_us, 0.0);
  EXPECT_GT(slowest[0].request_id, 0u);
  EXPECT_FALSE(slowest[0].query.empty());
  EXPECT_NEAR(slowest[0].timings.total_us, slowest[0].total_us, 1e-6);
}

}  // namespace
}  // namespace ncl::serve
