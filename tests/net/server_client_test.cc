// End-to-end net::Server + net::Client tests over Unix-domain sockets: the
// networked path returns bit-identical results to in-process Link on the
// same service, wire deadlines become RequestOptions deadlines and come
// back as DeadlineExceeded, Status codes survive the error envelope, replies
// leave in completion order, oversize queries are refused at admission, a
// wire Drain flushes every queued response before WaitForDrain returns, and
// Stop outlasts every completion callback.

#include "net/client.h"
#include "net/server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
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

/// Snapshot that holds queries starting with "slow" until Release(); every
/// other query answers at once.
class GatedSnapshot : public FakeSnapshot {
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

std::vector<std::string> Query(size_t words) {
  return std::vector<std::string>(words, "anemia");
}

const std::vector<std::string> kSlowQuery = {"slow", "query"};

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
                   serve::ServeConfig config = {})
      : Replica(std::make_shared<FakeSnapshot>(latency), config) {}

  Replica(std::shared_ptr<serve::ModelSnapshot> snapshot,
          serve::ServeConfig config) {
    registry.Publish(serve::kDefaultTenant, std::move(snapshot));
    service = std::make_unique<serve::LinkingService>(&registry, config);
    ServerConfig server_config;
    server_config.endpoint = TestEndpoint();
    server = std::make_unique<Server>(service.get(), &registry, server_config);
  }

  ~Replica() {
    if (server != nullptr) server->Stop();
  }
};

/// A replica whose snapshot holds slow queries until the gate opens. The
/// gate opens before the replica stops, so a failed assertion never leaves
/// Stop waiting for a gated request.
struct GatedReplica {
  std::shared_ptr<GatedSnapshot> gate = std::make_shared<GatedSnapshot>();
  Replica replica;

  explicit GatedReplica(serve::ServeConfig config = {})
      : replica(gate, config) {}
  ~GatedReplica() { gate->Release(); }
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

TEST(ServerClientTest, SlowRequestDoesNotHoldOtherConnectionsReplies) {
  serve::ServeConfig config;
  config.num_shards = 2;
  config.max_batch = 2;
  GatedReplica gated(config);
  Replica& replica = gated.replica;
  GatedSnapshot* gate = gated.gate.get();
  ASSERT_TRUE(replica.server->Start().ok());
  auto a = Client::Connect(replica.server->bound_endpoint());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ClientConfig no_retry;
  no_retry.max_retries = 0;
  no_retry.recv_timeout_ms = 5000;
  auto b = Client::Connect(replica.server->bound_endpoint(), no_retry);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  auto slow_id = (*a)->SendLink(kSlowQuery);
  ASSERT_TRUE(slow_id.ok()) << slow_id.status().ToString();
  ASSERT_TRUE(gate->WaitForSlowQuery(5s));
  // One shard is stuck on A's request; the other serves B's, whose reply
  // must not wait for A's.
  auto fast = (*b)->Link(Query(2));
  gate->Release();
  ASSERT_TRUE(fast.ok()) << "B's reply waited behind A's gated request: "
                         << fast.status().ToString();
  EXPECT_TRUE(fast->status.ok()) << fast->status.ToString();

  uint64_t correlation_id = 0;
  auto slow = (*a)->ReceiveLink(&correlation_id);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_EQ(correlation_id, *slow_id);
  EXPECT_TRUE(slow->status.ok()) << slow->status.ToString();
}

TEST(ServerClientTest, StopWaitsUntilInFlightRepliesAreCounted) {
  GatedReplica gated;
  Replica& replica = gated.replica;
  GatedSnapshot* gate = gated.gate.get();
  ASSERT_TRUE(replica.server->Start().ok());
  auto client = Client::Connect(replica.server->bound_endpoint());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->SendLink(kSlowQuery).ok());
  ASSERT_TRUE(gate->WaitForSlowQuery(5s));

  std::thread opener([&] {
    std::this_thread::sleep_for(50ms);
    gate->Release();
  });
  replica.server->Stop();
  const ServerStats stats = replica.server->stats();
  EXPECT_EQ(stats.responses, 1u);
  EXPECT_EQ(stats.in_flight, 0u);
  // Free the server at once: a callback that still touched it would be a
  // use-after-free (ASan) or a race (TSan).
  replica.server.reset();
  opener.join();
}

/// A kLinkRequest frame of `count` tokens of `token_bytes` bytes each,
/// written out directly so no token vector is built on this side.
std::string LinkRequestFrame(uint64_t correlation_id, uint32_t count,
                             uint32_t token_bytes) {
  std::string frame;
  const auto put = [&frame](uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      frame.push_back(static_cast<char>(value >> (8 * i)));
    }
  };
  put(kMagic, 2);
  put(kProtocolVersion, 1);
  put(static_cast<uint8_t>(MessageType::kLinkRequest), 1);
  put(16 + uint64_t{count} * (4 + token_bytes), 4);  // body bytes
  put(correlation_id, 8);
  put(0, 8);  // deadline_us
  put(0, 4);  // ontology ""
  put(count, 4);
  for (uint32_t i = 0; i < count; ++i) {
    put(token_bytes, 4);
    frame.append(token_bytes, 'x');
  }
  return frame;
}

/// Send `frame` on `fd` and read the link response that answers it.
Result<LinkResponseMsg> Exchange(const Fd& fd, const std::string& frame) {
  NCL_RETURN_NOT_OK(SendAll(fd.get(), frame, 10000));
  std::string header_bytes;
  NCL_RETURN_NOT_OK(RecvExactly(fd.get(), kHeaderSize, &header_bytes, 10000));
  NCL_ASSIGN_OR_RETURN(FrameHeader header, DecodeHeader(header_bytes));
  if (header.type != MessageType::kLinkResponse) {
    return Status::Internal("unexpected reply type " +
                            std::to_string(static_cast<int>(header.type)));
  }
  std::string body;
  NCL_RETURN_NOT_OK(RecvExactly(fd.get(), header.body_size, &body, 10000));
  return DecodeLinkResponse(body);
}

TEST(ServerClientTest, OversizeQueriesAreRefusedAndTheConnectionServesOn) {
  Replica replica;
  ASSERT_TRUE(replica.server->Start().ok());
  auto fd = Connect(replica.server->bound_endpoint(), 2000);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();

  // One token filling the 16 MiB frame cap, then as many one-byte tokens as
  // the cap holds (~3.3M). Each is refused before it reaches a shard, and
  // the next request on the same connection is served. The time bound is
  // far below the ~25 s of shard time the second frame would cost a real
  // hospital-x model, and loose enough for the sanitizer builds (~2 s).
  const std::string frames[] = {
      LinkRequestFrame(1, 1, kDefaultMaxBodyBytes - 20),
      LinkRequestFrame(3, (kDefaultMaxBodyBytes - 16) / 5, 1)};
  for (const std::string& frame : frames) {
    ASSERT_LE(frame.size() - kHeaderSize, kDefaultMaxBodyBytes);
    const auto started = std::chrono::steady_clock::now();
    auto refused = Exchange(*fd, frame);
    const auto elapsed = std::chrono::steady_clock::now() - started;
    ASSERT_TRUE(refused.ok()) << refused.status().ToString();
    EXPECT_EQ(refused->status.code(), StatusCode::kInvalidArgument)
        << refused->status.ToString();
    EXPECT_LT(elapsed, 10s);

    LinkRequestMsg next;
    next.tokens = Query(3);
    auto served = Exchange(*fd, EncodeLinkRequest(2, next));
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_TRUE(served->status.ok()) << served->status.ToString();
    EXPECT_EQ(served->candidates[0].concept_id, 3);
  }
  EXPECT_EQ(replica.service->stats().admitted, 2u);
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
