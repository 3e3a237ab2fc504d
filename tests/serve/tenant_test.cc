// Multi-tenant serving tests: TenantRegistry keys independent snapshot
// sequences, RequestOptions::ontology selects the tenant's model, the
// per-tenant quota applies the overload policy *within* the offending
// tenant (a flooded ontology sheds its own requests, never a neighbour's),
// a mixed two-tenant service returns bit-identical results to two
// single-tenant services, and concurrent per-tenant Publishes under load
// are safe (this suite runs under TSan in CI).

#include "serve/linking_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/model_snapshot.h"

namespace ncl::serve {
namespace {

using namespace std::chrono_literals;

/// Deterministic pure-function snapshot: scores depend only on (salt,
/// query), so two services given the same snapshot and query must produce
/// bit-identical doubles — the oracle for the mixed-vs-isolated test.
class SaltedSnapshot : public ModelSnapshot {
 public:
  explicit SaltedSnapshot(uint64_t salt) : salt_(salt) {}

  std::vector<linking::ScoredCandidate> Link(
      const std::vector<std::string>& query) const override {
    uint64_t h = 1469598103934665603ull ^ salt_;
    for (const std::string& token : query) {
      for (char c : token) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
      h ^= 0x1f;
      h *= 1099511628211ull;
    }
    return {linking::ScoredCandidate{
        static_cast<ontology::ConceptId>(h % 997),
        -static_cast<double>(h % 10000) / 7.0,
        static_cast<double>(h % 100) / 3.0}};
  }

 private:
  uint64_t salt_;
};

/// Snapshot whose Link blocks until Release(): pins requests in the
/// admission queue deterministically (every shard that reaches the gate is
/// stuck there while it is closed).
class GatedSnapshot : public ModelSnapshot {
 public:
  std::vector<linking::ScoredCandidate> Link(
      const std::vector<std::string>& query) const override {
    entered_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
    return {linking::ScoredCandidate{
        static_cast<ontology::ConceptId>(query.size()), -1.0, 1.0}};
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

  /// Number of requests that have reached the scorer.
  uint64_t entered() const { return entered_.load(std::memory_order_relaxed); }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  bool open_ = false;
  mutable std::atomic<uint64_t> entered_{0};
};

std::vector<std::string> Query(size_t words = 2) {
  return std::vector<std::string>(words, "anemia");
}

RequestOptions Tenant(const std::string& ontology) {
  RequestOptions options;
  options.ontology = ontology;
  return options;
}

/// Spin until `snapshot` has absorbed `n` requests (shards took them out of
/// the admission queue into the gated scorer).
void WaitForEntered(const GatedSnapshot& snapshot, uint64_t n) {
  for (int i = 0; i < 2000 && snapshot.entered() < n; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_GE(snapshot.entered(), n);
}

TEST(TenantRegistryTest, KeysIndependentVersionSequences) {
  TenantRegistry registry;
  EXPECT_EQ(registry.Current("icd9"), nullptr);
  EXPECT_EQ(registry.current_version("icd9"), 0u);
  EXPECT_EQ(registry.max_version(), 0u);
  EXPECT_TRUE(registry.Tenants().empty());

  auto nine_a = std::make_shared<SaltedSnapshot>(9);
  auto nine_b = std::make_shared<SaltedSnapshot>(99);
  auto ten = std::make_shared<SaltedSnapshot>(10);
  EXPECT_EQ(registry.Publish("icd9", nine_a), 1u);
  EXPECT_EQ(registry.Publish("icd9", nine_b), 2u);
  // A fresh tenant starts its own sequence at 1, unaffected by neighbours.
  EXPECT_EQ(registry.Publish("icd10", ten), 1u);

  EXPECT_EQ(registry.Current("icd9").get(), nine_b.get());
  EXPECT_EQ(registry.Current("icd10").get(), ten.get());
  EXPECT_EQ(registry.current_version("icd9"), 2u);
  EXPECT_EQ(registry.current_version("icd10"), 1u);
  EXPECT_EQ(registry.max_version(), 2u);
  EXPECT_EQ(registry.Tenants(), (std::vector<std::string>{"icd10", "icd9"}));
}

TEST(TenantServiceTest, OntologySelectsTenantModel) {
  TenantRegistry registry;
  registry.Publish("icd9", std::make_shared<SaltedSnapshot>(9));
  registry.Publish("icd10", std::make_shared<SaltedSnapshot>(10));
  LinkingService service(&registry);

  LinkResult nine = service.Link(Query(3), Tenant("icd9"));
  LinkResult ten = service.Link(Query(3), Tenant("icd10"));
  ASSERT_TRUE(nine.status.ok()) << nine.status.ToString();
  ASSERT_TRUE(ten.status.ok()) << ten.status.ToString();
  ASSERT_EQ(nine.candidates.size(), 1u);
  ASSERT_EQ(ten.candidates.size(), 1u);
  // Different salts: the same query must score differently per tenant.
  EXPECT_NE(nine.candidates[0].log_prob, ten.candidates[0].log_prob);

  // A tenant that never published fails at dispatch, naming itself.
  LinkResult unknown = service.Link(Query(), Tenant("snomed"));
  EXPECT_EQ(unknown.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(unknown.status.message().find("snomed"), std::string::npos);

  ServeStats stats = service.stats();
  EXPECT_EQ(stats.tenants.at("icd9").admitted, 1u);
  EXPECT_EQ(stats.tenants.at("icd9").completed, 1u);
  EXPECT_EQ(stats.tenants.at("icd10").admitted, 1u);
  EXPECT_EQ(stats.tenants.at("icd10").completed, 1u);
  EXPECT_EQ(stats.tenants.at("snomed").completed, 0u);
}

TEST(TenantServiceTest, QuotaShedsOnlyTheOffendingTenant) {
  TenantRegistry registry;
  auto gate = std::make_shared<GatedSnapshot>();
  registry.Publish("icd9", gate);
  registry.Publish("icd10", gate);
  ServeConfig config;
  config.queue_capacity = 64;  // the shared bound is never the limiter here
  config.tenant_quota = 2;
  config.policy = OverloadPolicy::kShedOldest;
  config.num_shards = 1;
  config.max_batch = 1;
  LinkingService service(&registry, config);

  // First request enters the (closed) gate, occupying the only shard.
  auto in_flight = service.SubmitLink(Query(), Tenant("icd9"));
  WaitForEntered(*gate, 1);

  // Two more icd9 requests fill the tenant's quota...
  auto queued_a = service.SubmitLink(Query(3), Tenant("icd9"));
  auto queued_b = service.SubmitLink(Query(4), Tenant("icd9"));
  // ...so a third sheds icd9's own oldest (queued_a), not its neighbour's.
  auto icd10 = service.SubmitLink(Query(5), Tenant("icd10"));
  auto over_quota = service.SubmitLink(Query(6), Tenant("icd9"));

  LinkResult shed = queued_a.get();
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);

  gate->Release();
  EXPECT_TRUE(in_flight.get().status.ok());
  EXPECT_TRUE(queued_b.get().status.ok());
  EXPECT_TRUE(over_quota.get().status.ok());
  LinkResult neighbour = icd10.get();
  EXPECT_TRUE(neighbour.status.ok()) << neighbour.status.ToString();

  ServeStats stats = service.stats();
  EXPECT_EQ(stats.tenants.at("icd9").shed, 1u);
  EXPECT_EQ(stats.tenants.at("icd9").completed, 3u);
  EXPECT_EQ(stats.tenants.at("icd10").shed, 0u);
  EXPECT_EQ(stats.tenants.at("icd10").rejected, 0u);
  EXPECT_EQ(stats.tenants.at("icd10").completed, 1u);
}

TEST(TenantServiceTest, QuotaRejectNamesTenantAndSparesNeighbour) {
  TenantRegistry registry;
  auto gate = std::make_shared<GatedSnapshot>();
  registry.Publish("icd9", gate);
  registry.Publish("icd10", gate);
  ServeConfig config;
  config.queue_capacity = 64;
  config.tenant_quota = 2;
  config.policy = OverloadPolicy::kReject;
  config.num_shards = 1;
  config.max_batch = 1;
  LinkingService service(&registry, config);

  auto in_flight = service.SubmitLink(Query(), Tenant("icd9"));
  WaitForEntered(*gate, 1);
  auto queued_a = service.SubmitLink(Query(3), Tenant("icd9"));
  auto queued_b = service.SubmitLink(Query(4), Tenant("icd9"));

  LinkResult rejected = service.SubmitLink(Query(5), Tenant("icd9")).get();
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.status.message().find("icd9"), std::string::npos)
      << rejected.status.ToString();

  auto icd10 = service.SubmitLink(Query(6), Tenant("icd10"));
  gate->Release();
  EXPECT_TRUE(in_flight.get().status.ok());
  EXPECT_TRUE(queued_a.get().status.ok());
  EXPECT_TRUE(queued_b.get().status.ok());
  EXPECT_TRUE(icd10.get().status.ok());

  ServeStats stats = service.stats();
  EXPECT_EQ(stats.tenants.at("icd9").rejected, 1u);
  EXPECT_EQ(stats.tenants.at("icd10").rejected, 0u);
  EXPECT_EQ(stats.tenants.at("icd10").admitted, 1u);
}

TEST(TenantServiceTest, MixedServiceBitIdenticalToIsolatedServices) {
  // The same snapshots behind (a) one shared multi-tenant service and
  // (b) two dedicated single-tenant services; the same interleaved query
  // stream must come back with bit-identical doubles — tenant grouping at
  // dispatch may never leak one tenant's model into another's batch.
  auto nine = std::make_shared<SaltedSnapshot>(9);
  auto ten = std::make_shared<SaltedSnapshot>(10);

  TenantRegistry mixed_registry;
  mixed_registry.Publish("icd9", nine);
  mixed_registry.Publish("icd10", ten);
  ServeConfig config;
  config.num_shards = 2;
  config.max_batch = 8;
  LinkingService mixed(&mixed_registry, config);

  TenantRegistry nine_registry;
  nine_registry.Publish(kDefaultTenant, nine);
  LinkingService nine_only(&nine_registry, config);
  TenantRegistry ten_registry;
  ten_registry.Publish(kDefaultTenant, ten);
  LinkingService ten_only(&ten_registry, config);

  constexpr size_t kQueries = 48;
  std::vector<std::future<LinkResult>> futures;
  futures.reserve(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    futures.push_back(mixed.SubmitLink(
        Query(1 + i % 7), Tenant(i % 2 == 0 ? "icd9" : "icd10")));
  }
  for (size_t i = 0; i < kQueries; ++i) {
    LinkResult from_mixed = futures[i].get();
    LinkingService& isolated = i % 2 == 0 ? nine_only : ten_only;
    LinkResult from_isolated = isolated.Link(Query(1 + i % 7));
    ASSERT_TRUE(from_mixed.status.ok()) << from_mixed.status.ToString();
    ASSERT_TRUE(from_isolated.status.ok());
    ASSERT_EQ(from_mixed.candidates.size(), from_isolated.candidates.size());
    for (size_t c = 0; c < from_mixed.candidates.size(); ++c) {
      EXPECT_EQ(from_mixed.candidates[c].concept_id,
                from_isolated.candidates[c].concept_id);
      // Doubles compared bitwise: no tolerance.
      EXPECT_EQ(from_mixed.candidates[c].log_prob,
                from_isolated.candidates[c].log_prob);
      EXPECT_EQ(from_mixed.candidates[c].loss,
                from_isolated.candidates[c].loss);
    }
  }
}

TEST(TenantServiceTest, ConcurrentPerTenantPublishUnderLoadIsSafe) {
  // Publishers hot-swap both tenants while clients stream queries at them;
  // every request must resolve OK against *some* published version of its
  // own tenant. TSan runs this suite in CI — the test also pins the
  // data-race freedom of the registry map + per-tenant RCU swap.
  TenantRegistry registry;
  registry.Publish("icd9", std::make_shared<SaltedSnapshot>(1));
  registry.Publish("icd10", std::make_shared<SaltedSnapshot>(2));
  ServeConfig config;
  config.num_shards = 2;
  config.max_batch = 4;
  LinkingService service(&registry, config);

  std::atomic<bool> stop{false};
  std::vector<std::thread> publishers;
  for (int p = 0; p < 2; ++p) {
    publishers.emplace_back([&, p] {
      const std::string tenant = p == 0 ? "icd9" : "icd10";
      uint64_t salt = 100 + static_cast<uint64_t>(p);
      while (!stop.load(std::memory_order_acquire)) {
        registry.Publish(tenant, std::make_shared<SaltedSnapshot>(salt++));
        std::this_thread::sleep_for(1ms);
      }
    });
  }

  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 50;
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        const std::string tenant = (c + i) % 2 == 0 ? "icd9" : "icd10";
        LinkResult result = service.Link(Query(1 + i % 5), Tenant(tenant));
        if (!result.status.ok() || result.snapshot_version == 0) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : publishers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  ServeStats stats = service.stats();
  EXPECT_EQ(stats.tenants.at("icd9").completed +
                stats.tenants.at("icd10").completed,
            kClients * kPerClient);
}

}  // namespace
}  // namespace ncl::serve
