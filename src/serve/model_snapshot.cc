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
    const std::vector<std::vector<std::string>>& queries,
    const uint64_t* /*flow_ids*/,
    std::vector<linking::PhaseTimings>* timings) const {
  if (timings != nullptr) {
    timings->assign(queries.size(), linking::PhaseTimings{});
  }
  std::vector<std::vector<linking::ScoredCandidate>> results;
  results.reserve(queries.size());
  for (const auto& query : queries) results.push_back(Link(query));
  return results;
}

std::vector<linking::ScoredCandidate> NclSnapshot::Link(
    const std::vector<std::string>& query) const {
  return linker_->LinkDetailed(query);
}

std::vector<std::vector<linking::ScoredCandidate>> NclSnapshot::LinkBatch(
    const std::vector<std::vector<std::string>>& queries,
    const uint64_t* flow_ids,
    std::vector<linking::PhaseTimings>* timings) const {
  return linker_->LinkBatchDetailed(queries, timings, flow_ids);
}

std::shared_ptr<const ModelSnapshot> TenantRegistry::Current(
    std::string_view tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : it->second.current;
}

uint64_t TenantRegistry::Publish(std::string_view tenant,
                                 std::shared_ptr<ModelSnapshot> snapshot) {
  NCL_CHECK(snapshot != nullptr);
  uint64_t version;
  // If the registry held the outgoing snapshot's last reference, it dies
  // after the lock is released: Current() callers (shards pinning under the
  // service's admission lock) never wait on a model teardown.
  std::shared_ptr<const ModelSnapshot> outgoing;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) {
      it = tenants_.emplace(std::string(tenant), Tenant{}).first;
    }
    version = it->second.next_version++;
    snapshot->version_.store(version, std::memory_order_release);
    outgoing = std::move(it->second.current);
    it->second.current = std::move(snapshot);
  }
  const SnapshotMetrics& metrics = GetSnapshotMetrics();
  metrics.publishes->Increment();
  metrics.version->Set(static_cast<double>(version));
  return version;
}

uint64_t TenantRegistry::current_version(std::string_view tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.current->version();
}

uint64_t TenantRegistry::max_version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t version = 0;
  for (const auto& [name, state] : tenants_) {
    version = std::max(version, state.current->version());
  }
  return version;
}

std::vector<std::string> TenantRegistry::Tenants() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, state] : tenants_) names.push_back(name);
  return names;
}

}  // namespace ncl::serve
