#include "serve/model_snapshot.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"

namespace ncl::serve {

namespace {

struct SnapshotMetrics {
  obs::Counter* publishes;
  obs::Gauge* version;
};

const SnapshotMetrics& GetSnapshotMetrics() {
  static const SnapshotMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return SnapshotMetrics{
        registry.GetCounter("ncl.serve.snapshot_publishes"),
        registry.GetGauge("ncl.serve.snapshot_version")};
  }();
  return metrics;
}

}  // namespace

NclSnapshot::NclSnapshot(
    std::shared_ptr<const comaid::ComAidModel> model,
    std::shared_ptr<const linking::CandidateGenerator> candidates,
    std::shared_ptr<const linking::QueryRewriter> rewriter,
    linking::NclConfig config, bool warm_cache)
    : model_(std::move(model)),
      candidates_(std::move(candidates)),
      rewriter_(std::move(rewriter)) {
  NCL_CHECK(model_ != nullptr);
  NCL_CHECK(candidates_ != nullptr);
  linker_ = std::make_unique<linking::NclLinker>(
      model_.get(), candidates_.get(), rewriter_.get(), config);
  if (warm_cache) model_->PrecomputeConceptEncodings();
}

std::vector<std::vector<linking::ScoredCandidate>> ModelSnapshot::LinkBatch(
    const std::vector<std::vector<std::string>>& queries) const {
  std::vector<std::vector<linking::ScoredCandidate>> results;
  results.reserve(queries.size());
  for (const auto& query : queries) results.push_back(Link(query));
  return results;
}

std::vector<std::vector<linking::ScoredCandidate>>
ModelSnapshot::LinkBatchTraced(
    const std::vector<std::vector<std::string>>& queries,
    const uint64_t* /*flow_ids*/,
    std::vector<linking::PhaseTimings>* timings) const {
  if (timings != nullptr) {
    timings->assign(queries.size(), linking::PhaseTimings{});
  }
  return LinkBatch(queries);
}

std::vector<linking::ScoredCandidate> NclSnapshot::Link(
    const std::vector<std::string>& query) const {
  return linker_->LinkDetailed(query);
}

std::vector<std::vector<linking::ScoredCandidate>> NclSnapshot::LinkBatch(
    const std::vector<std::vector<std::string>>& queries) const {
  return linker_->LinkBatchDetailed(queries);
}

std::vector<std::vector<linking::ScoredCandidate>> NclSnapshot::LinkBatchTraced(
    const std::vector<std::vector<std::string>>& queries,
    const uint64_t* flow_ids,
    std::vector<linking::PhaseTimings>* timings) const {
  return linker_->LinkBatchDetailed(queries, timings, flow_ids);
}

std::shared_ptr<const ModelSnapshot> SnapshotRegistry::Current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

uint64_t SnapshotRegistry::Publish(std::shared_ptr<ModelSnapshot> snapshot) {
  NCL_CHECK(snapshot != nullptr);
  uint64_t version;
  // If the registry held the outgoing snapshot's last reference, it dies
  // after the lock is released: Current() callers (shards pinning under the
  // service's admission lock) never wait on a model teardown.
  std::shared_ptr<const ModelSnapshot> outgoing;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    version = next_version_++;
    snapshot->version_.store(version, std::memory_order_release);
    outgoing = std::move(current_);
    current_ = std::move(snapshot);
  }
  const SnapshotMetrics& metrics = GetSnapshotMetrics();
  metrics.publishes->Increment();
  metrics.version->Set(static_cast<double>(version));
  return version;
}

uint64_t SnapshotRegistry::current_version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_ == nullptr ? 0 : current_->version();
}

std::shared_ptr<const ModelSnapshot> TenantRegistry::Current(
    std::string_view tenant) const {
  const SnapshotRegistry* registry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) return nullptr;
    registry = it->second.get();
  }
  return registry->Current();
}

SnapshotRegistry* TenantRegistry::registry(std::string_view tenant) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    it = tenants_
             .emplace(std::string(tenant), std::make_unique<SnapshotRegistry>())
             .first;
  }
  return it->second.get();
}

uint64_t TenantRegistry::Publish(std::string_view tenant,
                                 std::shared_ptr<ModelSnapshot> snapshot) {
  return registry(tenant)->Publish(std::move(snapshot));
}

uint64_t TenantRegistry::current_version(std::string_view tenant) const {
  const SnapshotRegistry* registry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) return 0;
    registry = it->second.get();
  }
  return registry->current_version();
}

uint64_t TenantRegistry::max_version() const {
  std::vector<const SnapshotRegistry*> registries;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    registries.reserve(tenants_.size());
    for (const auto& [name, registry] : tenants_) {
      registries.push_back(registry.get());
    }
  }
  uint64_t version = 0;
  for (const SnapshotRegistry* registry : registries) {
    version = std::max(version, registry->current_version());
  }
  return version;
}

std::vector<std::string> TenantRegistry::Tenants() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, registry] : tenants_) names.push_back(name);
  return names;
}

}  // namespace ncl::serve
