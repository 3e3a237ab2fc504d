// End-to-end net::Server + net::Client tests over Unix-domain sockets: the
// networked path returns bit-identical results to in-process Link on the
// same service, wire deadlines become RequestOptions deadlines and come
// back as DeadlineExceeded, Status codes survive the error envelope, and a
// wire Drain flushes every queued response before WaitForDrain returns.

#include "net/client.h"
#include "net/server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "net/wire.h"
#include "serve/linking_service.h"
#include "serve/model_snapshot.h"

namespace ncl::net {
namespace {

using namespace std::chrono_literals;

/// Snapshot with controllable latency; concept_id echoes the token count
/// (plus a per-snapshot offset, so tenants are distinguishable) and payload
/// integrity is checkable end to end.
class FakeSnapshot : public serve::ModelSnapshot {
 public:
  explicit FakeSnapshot(std::chrono::microseconds latency = 0us,
                        int concept_offset = 0)
      : latency_(latency), concept_offset_(concept_offset) {}

  std::vector<linking::ScoredCandidate> Link(
      const std::vector<std::string>& query) const override {
    if (latency_.count() > 0) std::this_thread::sleep_for(latency_);
    return {linking::ScoredCandidate{
        static_cast<ontology::ConceptId>(concept_offset_ + query.size()),
        -1.0, 1.0}};
  }

 private:
  std::chrono::microseconds latency_;
  int concept_offset_;
};

std::vector<std::string> Query(size_t words) {
  return std::vector<std::string>(words, "anemia");
}

/// Fresh /tmp UDS path per server (sun_path caps at ~108 bytes, so /tmp).
Endpoint TestEndpoint() {
  static std::atomic<int> counter{0};
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kUnix;
  endpoint.path = "/tmp/ncl_net_test_" + std::to_string(::getpid()) + "_" +
                  std::to_string(counter.fetch_add(1)) + ".sock";
  return endpoint;
}

struct Replica {
  serve::TenantRegistry registry;
  std::unique_ptr<serve::LinkingService> service;
  std::unique_ptr<Server> server;

  explicit Replica(std::chrono::microseconds latency = 0us,
                   serve::ServeConfig config = {}) {
    registry.Publish(serve::kDefaultTenant,
                     std::make_shared<FakeSnapshot>(latency));
    service = std::make_unique<serve::LinkingService>(&registry, config);
    ServerConfig server_config;
    server_config.endpoint = TestEndpoint();
    server = std::make_unique<Server>(service.get(), &registry, server_config);
  }

  ~Replica() {
    if (server != nullptr) server->Stop();
  }
};

TEST(ServerClientTest, LinkOverWireMatchesInProcessBitExact) {
  Replica replica;
  ASSERT_TRUE(replica.server->Start().ok());
  auto client = Client::Connect(replica.server->bound_endpoint());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  for (size_t words : {1u, 2u, 5u, 17u}) {
    serve::LinkResult local = replica.service->Link(Query(words));
    ASSERT_TRUE(local.status.ok());
    auto remote = (*client)->Link(Query(words));
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    ASSERT_TRUE(remote->status.ok()) << remote->status.ToString();
    EXPECT_EQ(remote->snapshot_version, local.snapshot_version);
    ASSERT_EQ(remote->candidates.size(), local.candidates.size());
    for (size_t i = 0; i < local.candidates.size(); ++i) {
      EXPECT_EQ(remote->candidates[i].concept_id, local.candidates[i].concept_id);
      // Doubles travel as bit patterns: exact equality, no tolerance.
      EXPECT_EQ(remote->candidates[i].log_prob, local.candidates[i].log_prob);
      EXPECT_EQ(remote->candidates[i].loss, local.candidates[i].loss);
    }
    EXPECT_GT(remote->server_request_id, 0u);
    EXPECT_GE(remote->timings.total_us, 0.0);
  }

  ServerStats stats = replica.server->stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.responses, 4u);
  EXPECT_EQ(stats.decode_errors, 0u);
}

TEST(ServerClientTest, StatusCodeSurvivesErrorEnvelope) {
  // No snapshot published: the service fails FailedPrecondition, and that
  // exact code must come back through the wire envelope.
  serve::TenantRegistry empty_registry;
  serve::LinkingService service(&empty_registry);
  ServerConfig config;
  config.endpoint = TestEndpoint();
  Server server(&service, &empty_registry, config);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(server.bound_endpoint());
  ASSERT_TRUE(client.ok());
  auto response = (*client)->Link(Query(2));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(response->status.message().empty());
  server.Stop();
}

TEST(ServerClientTest, WireDeadlinePropagatesToDeadlineExceeded) {
  // One slow shard, batch of one: a no-deadline request occupies the shard
  // while the deadlined one spends its budget in the queue.
  serve::ServeConfig config;
  config.num_shards = 1;
  config.max_batch = 1;
  Replica replica(30ms, config);
  ASSERT_TRUE(replica.server->Start().ok());
  auto client = Client::Connect(replica.server->bound_endpoint());
  ASSERT_TRUE(client.ok());

  auto blocker_id = (*client)->SendLink(Query(2), /*deadline_us=*/0);
  ASSERT_TRUE(blocker_id.ok()) << blocker_id.status().ToString();
  auto deadlined_id = (*client)->SendLink(Query(3), /*deadline_us=*/1000);
  ASSERT_TRUE(deadlined_id.ok()) << deadlined_id.status().ToString();

  bool saw_deadline_exceeded = false;
  for (int i = 0; i < 2; ++i) {
    uint64_t correlation_id = 0;
    auto response = (*client)->ReceiveLink(&correlation_id);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (correlation_id == *deadlined_id) {
      EXPECT_EQ(response->status.code(), StatusCode::kDeadlineExceeded)
          << response->status.ToString();
      saw_deadline_exceeded = response->status.code() ==
                              StatusCode::kDeadlineExceeded;
    } else {
      EXPECT_EQ(correlation_id, *blocker_id);
      EXPECT_TRUE(response->status.ok()) << response->status.ToString();
    }
  }
  EXPECT_TRUE(saw_deadline_exceeded);
  EXPECT_GE(replica.service->stats().deadline_exceeded, 1u);
}

TEST(ServerClientTest, PipelinedRequestsAllAnswered) {
  Replica replica(1ms);
  ASSERT_TRUE(replica.server->Start().ok());
  auto client = Client::Connect(replica.server->bound_endpoint());
  ASSERT_TRUE(client.ok());

  constexpr size_t kWindow = 24;
  std::vector<uint64_t> sent;
  for (size_t i = 0; i < kWindow; ++i) {
    auto id = (*client)->SendLink(Query(1 + i % 5));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    sent.push_back(*id);
  }
  std::vector<uint64_t> answered;
  for (size_t i = 0; i < kWindow; ++i) {
    uint64_t correlation_id = 0;
    auto response = (*client)->ReceiveLink(&correlation_id);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->status.ok());
    answered.push_back(correlation_id);
  }
  std::sort(sent.begin(), sent.end());
  std::sort(answered.begin(), answered.end());
  EXPECT_EQ(sent, answered);  // every request answered exactly once
}

TEST(ServerClientTest, NonReadingClientIsBackPressured) {
  // A client that pipelines requests and never reads its replies must be
  // stopped by flow control once its unsent replies pass the server's cap,
  // rather than have every request decoded and its reply buffered.
  Replica replica;
  ASSERT_TRUE(replica.server->Start().ok());
  ClientConfig config;
  config.send_timeout_ms = 300;
  auto client = Client::Connect(replica.server->bound_endpoint(), config);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  constexpr size_t kRequests = 200000;
  Status status;
  size_t sent = 0;
  for (; sent < kRequests && status.ok(); ++sent) {
    status = (*client)->SendLink(Query(2)).status();
  }
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status.ToString();
  EXPECT_LT(replica.server->stats().requests, 50000u);
}

TEST(ServerClientTest, HealthAndStatsOverWire) {
  Replica replica;
  ASSERT_TRUE(replica.server->Start().ok());
  auto client = Client::Connect(replica.server->bound_endpoint());
  ASSERT_TRUE(client.ok());

  auto health = (*client)->Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->state, ServerState::kServing);
  EXPECT_EQ(health->snapshot_version, 1u);

  ASSERT_TRUE((*client)->Link(Query(2)).ok());
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->stats.admitted, 1u);
  EXPECT_GE(stats->stats.completed, 1u);
}

TEST(ServerClientTest, DrainFlushesQueuedResponsesThenRefuses) {
  serve::ServeConfig config;
  config.num_shards = 1;
  config.max_batch = 1;
  Replica replica(5ms, config);
  ASSERT_TRUE(replica.server->Start().ok());
  auto pipelined = Client::Connect(replica.server->bound_endpoint());
  ASSERT_TRUE(pipelined.ok());

  // Queue a window of slow requests, then drain while they are in flight.
  constexpr size_t kWindow = 8;
  std::vector<uint64_t> sent;
  for (size_t i = 0; i < kWindow; ++i) {
    auto id = (*pipelined)->SendLink(Query(2));
    ASSERT_TRUE(id.ok());
    sent.push_back(*id);
  }
  auto controller = Client::Connect(replica.server->bound_endpoint());
  ASSERT_TRUE(controller.ok());
  ASSERT_TRUE((*controller)->Drain().ok());

  auto health = (*controller)->Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->state, ServerState::kDraining);

  // Every queued request still resolves (completed or Unavailable if the
  // drain raced admission) — none may hang or vanish.
  size_t completed = 0;
  for (size_t i = 0; i < kWindow; ++i) {
    uint64_t correlation_id = 0;
    auto response = (*pipelined)->ReceiveLink(&correlation_id);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response->status.ok()) {
      ++completed;
    } else {
      EXPECT_EQ(response->status.code(), StatusCode::kUnavailable);
    }
  }
  EXPECT_GT(completed, 0u);

  replica.server->WaitForDrain();  // must return: drained and flushed

  // After the drain, new work is refused with Unavailable. The client's
  // bounded retry is exercised and must exhaust, not loop.
  ClientConfig no_wait;
  no_wait.max_retries = 1;
  no_wait.initial_backoff_ms = 1;
  auto late = Client::Connect(replica.server->bound_endpoint(), no_wait);
  if (late.ok()) {
    auto response = (*late)->Link(Query(2));
    const StatusCode code =
        response.ok() ? response->status.code() : response.status().code();
    EXPECT_EQ(code, StatusCode::kUnavailable);
  }
  replica.server->Stop();
}

TEST(ServerClientTest, RetryBudgetIsEndToEndNotPerAttempt) {
  // A live server whose service refuses everything with Unavailable: each
  // attempt is retryable, so an unbudgeted client with these settings would
  // burn ~10 backoffs (20+40+80+... ms ≈ 20 s). The end-to-end budget must
  // cut that off: total wall-clock stays near the budget, not near the sum
  // of per-attempt deadlines, and the caller gets DeadlineExceeded.
  Replica replica;
  ASSERT_TRUE(replica.server->Start().ok());
  replica.service->Shutdown();  // admission now fails Unavailable, server up

  ClientConfig config;
  config.max_retries = 10;
  config.initial_backoff_ms = 20;
  auto client = Client::Connect(replica.server->bound_endpoint(), config);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  constexpr uint64_t kBudgetUs = 100'000;  // 100 ms end to end
  const auto started = std::chrono::steady_clock::now();
  auto response = (*client)->Link(Query(2), kBudgetUs);
  const auto elapsed = std::chrono::steady_clock::now() - started;

  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
      << response.status().ToString();
  EXPECT_NE(response.status().message().find("budget"), std::string::npos)
      << response.status().ToString();
  // Generous ceiling (CI jitter) that is still far below the ~20 s an
  // unbudgeted retry loop would take — the regression this test pins.
  EXPECT_LT(elapsed, 2s);
  EXPECT_GE(elapsed, std::chrono::microseconds(kBudgetUs) / 2);
}

TEST(ServerClientTest, OntologySelectsTenantModelOverWire) {
  serve::TenantRegistry registry;
  registry.Publish("icd9", std::make_shared<FakeSnapshot>(0us, 900));
  registry.Publish("icd10", std::make_shared<FakeSnapshot>(0us, 1000));
  registry.Publish("icd9", std::make_shared<FakeSnapshot>(0us, 900));
  serve::LinkingService service(&registry);
  ServerConfig server_config;
  server_config.endpoint = TestEndpoint();
  Server server(&service, &registry, server_config);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(server.bound_endpoint());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto nine = (*client)->Link(Query(3), /*deadline_us=*/0, "icd9");
  ASSERT_TRUE(nine.ok()) << nine.status().ToString();
  ASSERT_TRUE(nine->status.ok()) << nine->status.ToString();
  ASSERT_EQ(nine->candidates.size(), 1u);
  EXPECT_EQ(nine->candidates[0].concept_id, 903);

  auto ten = (*client)->Link(Query(3), /*deadline_us=*/0, "icd10");
  ASSERT_TRUE(ten.ok()) << ten.status().ToString();
  ASSERT_TRUE(ten->status.ok()) << ten->status.ToString();
  ASSERT_EQ(ten->candidates.size(), 1u);
  EXPECT_EQ(ten->candidates[0].concept_id, 1003);

  // No default tenant published: an ontology-less request fails like a
  // pre-Publish replica, with the code intact through the envelope.
  auto unnamed = (*client)->Link(Query(2));
  ASSERT_TRUE(unnamed.ok()) << unnamed.status().ToString();
  EXPECT_EQ(unnamed->status.code(), StatusCode::kFailedPrecondition);
  auto unknown = (*client)->Link(Query(2), /*deadline_us=*/0, "snomed");
  ASSERT_TRUE(unknown.ok()) << unknown.status().ToString();
  EXPECT_EQ(unknown->status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(unknown->status.message().find("snomed"), std::string::npos);

  // Health reports the newest version across tenants (icd9 republished).
  auto health = (*client)->Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->snapshot_version, 2u);
  server.Stop();
}

TEST(ServerClientTest, ConnectToDownEndpointIsUnavailable) {
  Endpoint endpoint = TestEndpoint();  // nothing listening
  ClientConfig config;
  config.max_retries = 0;
  auto client = Client::Connect(endpoint, config);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kUnavailable);
}

TEST(ServerClientTest, ConcurrentClientsSeeConsistentResults) {
  Replica replica;
  ASSERT_TRUE(replica.server->Start().ok());
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 25;
  std::atomic<size_t> errors{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect(replica.server->bound_endpoint());
      if (!client.ok()) {
        errors.fetch_add(kPerThread);
        return;
      }
      for (size_t i = 0; i < kPerThread; ++i) {
        const size_t words = 1 + (t * kPerThread + i) % 7;
        auto response = (*client)->Link(Query(words));
        if (!response.ok() || !response->status.ok() ||
            response->candidates.size() != 1 ||
            response->candidates[0].concept_id !=
                static_cast<ontology::ConceptId>(words)) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(replica.server->stats().responses, kThreads * kPerThread);
}

}  // namespace
}  // namespace ncl::net
