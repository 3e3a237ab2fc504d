// net::Router tests: rendezvous routing is deterministic per query, killing
// one of two replicas mid-load leaves the router serving from the survivor
// with zero client-visible errors, a drained backend leaves rotation and a
// restarted one is re-added by the health probe.

#include "net/router.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "serve/linking_service.h"
#include "serve/model_snapshot.h"

namespace ncl::net {
namespace {

using namespace std::chrono_literals;

class FakeSnapshot : public serve::ModelSnapshot {
 public:
  explicit FakeSnapshot(std::chrono::microseconds latency = 0us)
      : latency_(latency) {}

  std::vector<linking::ScoredCandidate> Link(
      const std::vector<std::string>& query) const override {
    if (latency_.count() > 0) std::this_thread::sleep_for(latency_);
    return {linking::ScoredCandidate{
        static_cast<ontology::ConceptId>(query.size()), -1.0, 1.0}};
  }

 private:
  std::chrono::microseconds latency_;
};

std::vector<std::string> Query(size_t words) {
  return std::vector<std::string>(words, "anemia");
}

Endpoint TestEndpoint() {
  static std::atomic<int> counter{0};
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kUnix;
  endpoint.path = "/tmp/ncl_router_test_" + std::to_string(::getpid()) + "_" +
                  std::to_string(counter.fetch_add(1)) + ".sock";
  return endpoint;
}

/// One in-process replica bound to a fixed endpoint; Restart() brings a new
/// Server up on the same path (Server supports one Start per instance).
struct Replica {
  serve::TenantRegistry registry;
  std::unique_ptr<serve::LinkingService> service;
  std::unique_ptr<Server> server;
  Endpoint endpoint;

  explicit Replica(std::chrono::microseconds latency = 0us) {
    endpoint = TestEndpoint();
    registry.Publish(serve::kDefaultTenant,
                     std::make_shared<FakeSnapshot>(latency));
    service = std::make_unique<serve::LinkingService>(&registry);
    StartServer();
  }

  void StartServer() {
    ServerConfig config;
    config.endpoint = endpoint;
    server = std::make_unique<Server>(service.get(), &registry, config);
    ASSERT_TRUE(server->Start().ok());
  }

  void Kill() { server->Stop(); }

  void Restart() {
    // The service survives; only the transport is recycled, which is what
    // a rollout restart looks like to the router.
    StartServer();
  }

  ~Replica() {
    if (server != nullptr) server->Stop();
  }
};

RouterConfig MakeRouterConfig(const std::vector<Endpoint>& backends,
                              int health_interval_ms = 50) {
  RouterConfig config;
  config.listen = TestEndpoint();
  config.backends = backends;
  config.health_interval_ms = health_interval_ms;
  config.connect_timeout_ms = 500;
  return config;
}

/// The rendezvous winner for `key` among `addresses`, computed exactly the
/// way Router::PickBackend does — via the public primitives.
std::string RendezvousWinner(const std::string& key,
                             const std::vector<std::string>& addresses) {
  const uint64_t key_hash = RouteHash(key);
  std::string winner;
  uint64_t best = 0;
  for (const std::string& address : addresses) {
    const uint64_t score = RendezvousScore(key_hash, RouteHash(address));
    if (winner.empty() || score > best) {
      best = score;
      winner = address;
    }
  }
  return winner;
}

std::vector<std::string> FleetAddresses(size_t n) {
  std::vector<std::string> addresses;
  for (size_t i = 0; i < n; ++i) {
    addresses.push_back("unix:/var/run/ncl/replica_" + std::to_string(i) +
                        ".sock");
  }
  return addresses;
}

TEST(RouterTest, RendezvousAgreesAcrossPermutedBackendLists) {
  // Two routers given the same fleet in different config order must route
  // every key identically — the score must mix the backend's *address*,
  // not its index. (The index-mixing bug made each router consistent with
  // itself but inconsistent with its peers, silently splitting per-key
  // cache affinity across a redundant router pair.)
  std::vector<std::string> fleet = FleetAddresses(5);
  std::vector<std::string> permuted = {fleet[3], fleet[0], fleet[4],
                                       fleet[1], fleet[2]};
  std::vector<std::string> reversed(fleet.rbegin(), fleet.rend());
  for (size_t q = 0; q < 200; ++q) {
    const std::string key =
        RouteKey(q % 2 == 0 ? "icd9" : "icd10", Query(1 + q % 9));
    const std::string winner = RendezvousWinner(key, fleet);
    EXPECT_EQ(RendezvousWinner(key, permuted), winner) << "key " << q;
    EXPECT_EQ(RendezvousWinner(key, reversed), winner) << "key " << q;
  }
}

TEST(RouterTest, RendezvousRemovalMovesOnlyTheVictimsKeys) {
  // Minimal disruption: dropping one of N backends must remap exactly the
  // keys that hashed to it (~1/N of the keyspace) and leave every other
  // key on its original backend. Index-mixed scores break this: removal
  // shifts every later backend's index and reshuffles most of the keyspace.
  std::vector<std::string> fleet = FleetAddresses(4);
  std::vector<std::string> survivors(fleet.begin() + 1, fleet.end());

  constexpr size_t kKeys = 400;
  size_t moved = 0, victims = 0;
  for (size_t q = 0; q < kKeys; ++q) {
    const std::string key =
        RouteKey("icd9", {"query", std::to_string(q), "tokens"});
    const std::string before = RendezvousWinner(key, fleet);
    const std::string after = RendezvousWinner(key, survivors);
    if (before == fleet[0]) {
      ++victims;  // its backend vanished; it must land somewhere new
    } else {
      EXPECT_EQ(after, before) << "unrelated key remapped by removal";
      if (after != before) ++moved;
    }
  }
  EXPECT_EQ(moved, 0u);
  // Sanity: the victim share is roughly 1/4 of the keyspace, so the test
  // actually exercised both branches.
  EXPECT_GT(victims, kKeys / 10);
  EXPECT_LT(victims, kKeys / 2);
}

TEST(RouterTest, RouteKeySeparatesOntologyFromTokens) {
  // The delimiter layout must keep distinct (ontology, tokens) tuples
  // distinct — "icd9" + ["x"] vs "icd" + ["9x"] and token-boundary shifts.
  EXPECT_NE(RouteKey("icd9", {"x"}), RouteKey("icd", {"9x"}));
  EXPECT_NE(RouteKey("icd9", {"ab", "c"}), RouteKey("icd9", {"a", "bc"}));
  EXPECT_NE(RouteKey("", {"icd9"}), RouteKey("icd9", {}));
  EXPECT_EQ(RouteKey("icd9", {"a", "b"}), RouteKey("icd9", {"a", "b"}));
}

TEST(RouterTest, RoutesAndAnswersThroughBackends) {
  Replica a, b;
  Router router(MakeRouterConfig({a.endpoint, b.endpoint}));
  ASSERT_TRUE(router.Start().ok());
  auto client = Client::Connect(router.bound_endpoint());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  for (size_t words : {1u, 2u, 3u, 4u, 5u}) {
    auto response = (*client)->Link(Query(words));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->status.ok()) << response->status.ToString();
    ASSERT_EQ(response->candidates.size(), 1u);
    EXPECT_EQ(response->candidates[0].concept_id,
              static_cast<ontology::ConceptId>(words));
  }
  RouterStats stats = router.stats();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.failed, 0u);
  uint64_t total_routed = 0;
  for (const BackendStatus& backend : stats.backends) {
    EXPECT_TRUE(backend.healthy);
    total_routed += backend.routed;
  }
  EXPECT_EQ(total_routed, 5u);
  router.Stop();
}

TEST(RouterTest, SameQueryAlwaysRoutesToSameBackend) {
  Replica a, b, c;
  Router router(MakeRouterConfig({a.endpoint, b.endpoint, c.endpoint}));
  ASSERT_TRUE(router.Start().ok());
  auto client = Client::Connect(router.bound_endpoint());
  ASSERT_TRUE(client.ok());

  constexpr size_t kRepeats = 12;
  for (size_t i = 0; i < kRepeats; ++i) {
    ASSERT_TRUE((*client)->Link({"chronic", "kidney", "disease"}).ok());
  }
  // Rendezvous hashing: one backend took every repeat of the query.
  size_t backends_used = 0;
  for (const BackendStatus& backend : router.stats().backends) {
    if (backend.routed > 0) {
      ++backends_used;
      EXPECT_EQ(backend.routed, kRepeats);
    }
  }
  EXPECT_EQ(backends_used, 1u);
  router.Stop();
}

TEST(RouterTest, KillingOneOfTwoReplicasIsInvisibleToClients) {
  Replica a, b;
  Router router(MakeRouterConfig({a.endpoint, b.endpoint}));
  ASSERT_TRUE(router.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> load;
  for (int t = 0; t < 3; ++t) {
    load.emplace_back([&, t] {
      auto client = Client::Connect(router.bound_endpoint());
      if (!client.ok()) {
        errors.fetch_add(1);
        return;
      }
      size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const size_t words = 1 + (t + i++) % 6;
        auto response = (*client)->Link(Query(words));
        if (!response.ok() || !response->status.ok() ||
            response->candidates.size() != 1 ||
            response->candidates[0].concept_id !=
                static_cast<ontology::ConceptId>(words)) {
          errors.fetch_add(1);
        } else {
          completed.fetch_add(1);
        }
      }
    });
  }

  std::this_thread::sleep_for(100ms);
  a.Kill();  // one replica gone mid-load
  std::this_thread::sleep_for(300ms);
  stop.store(true, std::memory_order_release);
  for (auto& t : load) t.join();

  EXPECT_EQ(errors.load(), 0u) << "failover leaked errors to clients";
  EXPECT_GT(completed.load(), 0u);
  // The health probe (or a forward failure) took the dead backend out.
  RouterStats stats = router.stats();
  EXPECT_FALSE(stats.backends[0].healthy);
  EXPECT_TRUE(stats.backends[1].healthy);
  EXPECT_GT(stats.backends[1].routed, 0u);
  router.Stop();
}

TEST(RouterTest, RestartedBackendIsReAddedByHealthProbe) {
  Replica a, b;
  Router router(MakeRouterConfig({a.endpoint, b.endpoint},
                                 /*health_interval_ms=*/40));
  ASSERT_TRUE(router.Start().ok());

  a.Kill();
  // Wait for the probe to notice the death...
  for (int i = 0; i < 100 && router.stats().backends[0].healthy; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_FALSE(router.stats().backends[0].healthy);

  a.Restart();
  // ...and the re-add after restart.
  for (int i = 0; i < 100 && !router.stats().backends[0].healthy; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(router.stats().backends[0].healthy);

  auto client = Client::Connect(router.bound_endpoint());
  ASSERT_TRUE(client.ok());
  auto response = (*client)->Link(Query(2));
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->status.ok());
  router.Stop();
}

TEST(RouterTest, DrainedBackendLeavesRotation) {
  Replica a, b;
  Router router(MakeRouterConfig({a.endpoint, b.endpoint},
                                 /*health_interval_ms=*/40));
  ASSERT_TRUE(router.Start().ok());

  ASSERT_TRUE(router.DrainBackend(0).ok());
  a.server->WaitForDrain();  // replica finished its queue and flushed

  auto client = Client::Connect(router.bound_endpoint());
  ASSERT_TRUE(client.ok());
  for (size_t i = 0; i < 6; ++i) {
    auto response = (*client)->Link(Query(1 + i));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->status.ok()) << response->status.ToString();
  }
  // All post-drain traffic went to the surviving backend.
  RouterStats stats = router.stats();
  EXPECT_EQ(stats.backends[0].routed, 0u);
  EXPECT_EQ(stats.backends[1].routed, 6u);
  EXPECT_EQ(router.DrainBackend(7).code(), StatusCode::kOutOfRange);
  router.Stop();
}

TEST(RouterTest, AllBackendsDownYieldsUnavailable) {
  Replica a;
  Router router(MakeRouterConfig({a.endpoint}));
  ASSERT_TRUE(router.Start().ok());
  a.Kill();

  ClientConfig config;
  config.max_retries = 0;
  auto client = Client::Connect(router.bound_endpoint(), config);
  ASSERT_TRUE(client.ok());
  auto response = (*client)->Link(Query(2));
  const StatusCode code =
      response.ok() ? response->status.code() : response.status().code();
  EXPECT_EQ(code, StatusCode::kUnavailable);
  EXPECT_GE(router.stats().failed, 1u);
  router.Stop();
}

TEST(RouterTest, RejectsNonPositiveHealthInterval) {
  // The health loop waits this long between probe sweeps; at 0 it would
  // reconnect to every backend in a tight loop.
  for (int interval : {0, -1}) {
    Router router(MakeRouterConfig({TestEndpoint()}, interval));
    const Status status = router.Start();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "interval " << interval << ": " << status.ToString();
    if (status.ok()) router.Stop();
  }
}

TEST(RouterTest, RouterHealthAggregatesBackends) {
  Replica a, b;
  Router router(MakeRouterConfig({a.endpoint, b.endpoint},
                                 /*health_interval_ms=*/40));
  ASSERT_TRUE(router.Start().ok());
  auto client = Client::Connect(router.bound_endpoint());
  ASSERT_TRUE(client.ok());

  auto health = (*client)->Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->state, ServerState::kServing);

  // Drain the whole fleet through the router, wait for the probes to see
  // kDraining everywhere, and the router itself flips to kDraining.
  ASSERT_TRUE((*client)->Drain().ok());
  bool draining = false;
  for (int i = 0; i < 100 && !draining; ++i) {
    std::this_thread::sleep_for(10ms);
    auto polled = (*client)->Health();
    ASSERT_TRUE(polled.ok());
    draining = polled->state == ServerState::kDraining;
  }
  EXPECT_TRUE(draining);
  router.Stop();
}

}  // namespace
}  // namespace ncl::net
