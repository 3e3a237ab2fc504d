#include "serve/linking_service.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace ncl::serve {

namespace {

/// Registry handles for `ncl.serve.*`, resolved once.
struct ServeMetrics {
  obs::Gauge* queue_depth;
  obs::Counter* admitted;
  obs::Counter* rejected;
  obs::Counter* rejected_oversize;
  obs::Counter* shed;
  obs::Counter* deadline_exceeded;
  obs::Counter* completed;
  obs::Histogram* batch_size;
  obs::Histogram* candidates_per_batch;
  obs::Histogram* queue_wait_us;
  obs::Histogram* service_us;
  obs::Histogram* e2e_us;
};

const ServeMetrics& GetServeMetrics() {
  static const ServeMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return ServeMetrics{registry.GetGauge("ncl.serve.queue_depth"),
                        registry.GetCounter("ncl.serve.admit"),
                        registry.GetCounter("ncl.serve.reject"),
                        registry.GetCounter("ncl.serve.rejected_oversize"),
                        registry.GetCounter("ncl.serve.shed"),
                        registry.GetCounter("ncl.serve.deadline_exceeded"),
                        registry.GetCounter("ncl.serve.completed"),
                        registry.GetHistogram("ncl.serve.batch_size"),
                        registry.GetHistogram("ncl.serve.candidates_per_batch"),
                        registry.GetHistogram("ncl.serve.queue_wait_us"),
                        registry.GetHistogram("ncl.serve.service_us"),
                        registry.GetHistogram("ncl.serve.e2e_us")};
  }();
  return metrics;
}

double MicrosBetween(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

LinkResult ErrorResult(Status status, uint64_t request_id = 0) {
  LinkResult result;
  result.status = std::move(status);
  result.request_id = request_id;
  return result;
}

/// InvalidArgument naming the cap when `query` has over kMaxQueryTokens
/// tokens or a token over kMaxTokenBytes bytes. A refusal is counted and
/// logged with its size and cap, never the query text.
Status CheckQueryBounds(const std::vector<std::string>& query) {
  const char* cap_name = "kMaxQueryTokens";
  const char* unit = " tokens";
  size_t cap = kMaxQueryTokens;
  size_t size = query.size();
  if (size <= cap) {
    cap_name = "kMaxTokenBytes";
    unit = " bytes in one token";
    cap = kMaxTokenBytes;
    size = 0;  // the longest token's bytes
    for (const std::string& token : query) size = std::max(size, token.size());
    if (size <= cap) return Status::OK();
  }
  GetServeMetrics().rejected_oversize->Increment();
  NCL_LOG(Warning) << "serve_rejected_oversize cap=" << cap_name
                   << " limit=" << cap << " size=" << size;
  std::ostringstream message;
  message << "query over serve::" << cap_name << " = " << cap << ": " << size
          << unit;
  return Status::InvalidArgument(message.str());
}

/// Process-wide so request ids — and therefore trace flow-edge ids — stay
/// unique even across LinkingService instances sharing the trace buffers.
std::atomic<uint64_t> g_next_request_id{1};

}  // namespace

LinkingService::LinkingService(TenantRegistry* tenants, ServeConfig config)
    : tenants_(tenants), config_(std::move(config)) {
  NCL_CHECK(tenants_ != nullptr);
  NCL_CHECK(config_.queue_capacity > 0) << "queue_capacity must be positive";
  NCL_CHECK(config_.max_batch > 0) << "max_batch must be positive";
  NCL_CHECK(config_.num_shards > 0) << "num_shards must be positive";
  if (config_.slo.enabled) {
    if (config_.slo.slow_log_n > 0) {
      slow_log_ = std::make_unique<SlowRequestLog>(config_.slo.slow_log_n);
    }
    slo_ = std::make_unique<SloWatchdog>(config_.slo, [this] {
      SloWatchdog::Probe probe;
      probe.queue_capacity = config_.queue_capacity;
      probe.batches = batches_.load(std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mutex_);
      probe.queue_depth = queue_.size();
      return probe;
    });
  }
  shards_.reserve(config_.num_shards);
  try {
    for (size_t s = 0; s < config_.num_shards; ++s) {
      shards_.emplace_back([this] { ShardLoop(); });
    }
  } catch (...) {
    // Thread creation failed: join the shards already running before the
    // members they use unwind.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& shard : shards_) shard.join();
    throw;
  }
}

LinkingService::~LinkingService() { Shutdown(); }

void LinkingService::PublishQueueDepthLocked() {
  max_queue_depth_ = std::max(max_queue_depth_, queue_.size());
  GetServeMetrics().queue_depth->Set(static_cast<double>(queue_.size()));
}

LinkingService::TenantState* LinkingService::GetTenantStateLocked(
    const std::string& tenant) {
  auto it = tenant_states_.find(tenant);
  if (it != tenant_states_.end()) return it->second.get();
  auto state = std::make_unique<TenantState>();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const std::string prefix = "ncl.serve." + tenant + ".";
  state->m_admitted = registry.GetCounter(prefix + "admit");
  state->m_rejected = registry.GetCounter(prefix + "reject");
  state->m_shed = registry.GetCounter(prefix + "shed");
  state->m_deadline_exceeded = registry.GetCounter(prefix + "deadline_exceeded");
  state->m_completed = registry.GetCounter(prefix + "completed");
  state->m_queue_depth = registry.GetGauge(prefix + "queue_depth");
  state->m_e2e_us = registry.GetHistogram(prefix + "e2e_us");
  return tenant_states_.emplace(tenant, std::move(state)).first->second.get();
}

void LinkingService::SubmitLink(std::vector<std::string> query,
                                RequestOptions options,
                                std::function<void(LinkResult)> done) {
  if (Status bounds = CheckQueryBounds(query); !bounds.ok()) {
    done(ErrorResult(std::move(bounds)));
    return;
  }
  PendingRequest request;
  request.id = g_next_request_id.fetch_add(1, std::memory_order_relaxed);
  // Hop 0 of the request's trace lane: the admission span (covering any
  // blocking wait for queue space) starts the flow edge the dispatch marker
  // finishes.
  NCL_TRACE_SPAN_FLOW("ncl.serve.admit", obs::RequestFlowId(request.id, 0), 0);
  request.query = std::move(query);
  request.done = std::move(done);
  request.tenant = options.ontology.empty() ? std::string(kDefaultTenant)
                                            : std::move(options.ontology);
  request.enqueued = std::chrono::steady_clock::now();
  std::chrono::microseconds deadline =
      options.deadline.count() > 0 ? options.deadline : config_.default_deadline;
  // Defensive ceiling (the wire decoder clamps too): an absurd deadline
  // must never wrap `enqueued + deadline` past the time_point's range and
  // land in the past.
  deadline = std::min(deadline, kMaxRequestDeadline);
  if (deadline.count() > 0) {
    request.deadline = request.enqueued + deadline;
    request.has_deadline = true;
  }

  // A refused request and a shed victim are called back only after the
  // lock is released.
  std::optional<PendingRequest> shed;
  std::unique_lock<std::mutex> lock(mutex_);
  const auto refuse = [&lock, &request](Status status) {
    lock.unlock();
    request.done(ErrorResult(std::move(status), request.id));
  };
  if (!accepting_) {
    refuse(Status::Unavailable("service is not accepting requests"));
    return;
  }
  TenantState* state = GetTenantStateLocked(request.tenant);
  request.tenant_state = state;
  // Two admission limits: the shared queue bound and (when configured) this
  // tenant's quota. The policy treats them alike, except that quota
  // enforcement always acts *within* the tenant.
  const auto over_limits = [this, state] {
    return queue_.size() >= config_.queue_capacity ||
           (config_.tenant_quota > 0 && state->queued >= config_.tenant_quota);
  };
  if (over_limits()) {
    switch (config_.policy) {
      case OverloadPolicy::kBlock:
        cv_space_.wait(lock,
                       [this, &over_limits] { return !accepting_ || !over_limits(); });
        if (!accepting_) {
          refuse(Status::Unavailable("service stopped while waiting for queue space"));
          return;
        }
        break;
      case OverloadPolicy::kReject: {
        GetServeMetrics().rejected->Increment();
        state->rejected.fetch_add(1, std::memory_order_relaxed);
        state->m_rejected->Increment();
        const bool tenant_limited =
            config_.tenant_quota > 0 && state->queued >= config_.tenant_quota;
        refuse(tenant_limited
                   ? Status::ResourceExhausted(
                         "tenant '" + request.tenant + "' at admission quota (" +
                         std::to_string(config_.tenant_quota) + " queued)")
                   : Status::ResourceExhausted(
                         "admission queue full (capacity " +
                         std::to_string(config_.queue_capacity) + ")"));
        return;
      }
      case OverloadPolicy::kShedOldest: {
        // Shed the submitting tenant's own oldest request when it has one
        // queued (always true at quota) — a tenant over its limit pays with
        // its own backlog, never a neighbour's. Only a tenant with nothing
        // queued that finds the shared queue full evicts the global oldest.
        auto victim_it =
            std::find_if(queue_.begin(), queue_.end(),
                         [state](const PendingRequest& queued) {
                           return queued.tenant_state == state;
                         });
        if (victim_it == queue_.end()) victim_it = queue_.begin();
        shed.emplace(std::move(*victim_it));
        queue_.erase(victim_it);
        shed->tenant_state->queued--;
        shed->tenant_state->m_queue_depth->Set(
            static_cast<double>(shed->tenant_state->queued));
        GetServeMetrics().shed->Increment();
        shed->tenant_state->shed.fetch_add(1, std::memory_order_relaxed);
        shed->tenant_state->m_shed->Increment();
        break;
      }
    }
  }
  state->queued++;
  state->m_queue_depth->Set(static_cast<double>(state->queued));
  queue_.push_back(std::move(request));
  GetServeMetrics().admitted->Increment();
  state->admitted.fetch_add(1, std::memory_order_relaxed);
  state->m_admitted->Increment();
  PublishQueueDepthLocked();
  lock.unlock();
  cv_work_.notify_one();
  if (shed) {
    LinkResult shed_result = ErrorResult(
        Status::Unavailable("shed from admission queue under overload"),
        shed->id);
    shed_result.queue_us =
        MicrosBetween(shed->enqueued, std::chrono::steady_clock::now());
    shed->done(std::move(shed_result));
  }
}

std::future<LinkResult> LinkingService::SubmitLink(
    std::vector<std::string> query, RequestOptions options) {
  auto promise = std::make_shared<std::promise<LinkResult>>();
  SubmitLink(std::move(query), std::move(options), [promise](LinkResult result) {
    promise->set_value(std::move(result));
  });
  return promise->get_future();
}

LinkResult LinkingService::Link(std::vector<std::string> query,
                                RequestOptions options) {
  return SubmitLink(std::move(query), std::move(options)).get();
}

uint64_t LinkingService::ProcessSlice(
    PendingRequest* requests, size_t count,
    const std::shared_ptr<const ModelSnapshot>& snapshot) {
  const ServeMetrics& metrics = GetServeMetrics();
  const auto dispatched = std::chrono::steady_clock::now();
  const bool tracing = obs::TracingEnabled();

  // Per-request admission checks first: expired or snapshot-less requests
  // resolve immediately and never reach the scoring pass.
  std::vector<LinkResult> results(count);
  std::vector<size_t> live;
  live.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    results[i].request_id = requests[i].id;
    results[i].queue_us = MicrosBetween(requests[i].enqueued, dispatched);
    results[i].timings.queue_wait_us =
        MicrosBetween(requests[i].enqueued, requests[i].drained);
    results[i].timings.batch_form_us =
        MicrosBetween(requests[i].drained, dispatched);
    metrics.queue_wait_us->RecordMicros(results[i].queue_us);
    if (requests[i].has_deadline && dispatched > requests[i].deadline) {
      metrics.deadline_exceeded->Increment();
      requests[i].tenant_state->deadline_exceeded.fetch_add(
          1, std::memory_order_relaxed);
      requests[i].tenant_state->m_deadline_exceeded->Increment();
      results[i].status = Status::DeadlineExceeded(
          "request spent its deadline waiting in the admission queue");
    } else if (snapshot == nullptr) {
      results[i].status = Status::FailedPrecondition(
          "no model snapshot has been published for ontology '" +
          requests[i].tenant + "'");
    } else {
      live.push_back(i);
    }
  }

  // The surviving queries score as one LinkBatch workload: lock-step GEMM
  // tiles span the whole slice. A scoring exception fails every live
  // request in the slice — they shared one computation.
  uint64_t scored_candidates = 0;
  if (!live.empty()) {
    NCL_TRACE_SPAN("ncl.serve.slice");
    std::vector<std::vector<std::string>> queries;
    std::vector<uint64_t> flow_ids;
    queries.reserve(live.size());
    if (tracing) flow_ids.reserve(live.size());
    for (size_t i : live) {
      queries.push_back(requests[i].query);
      if (tracing) {
        // Hop 2 of the request's trace lane: this shard picked the request
        // up — finish the dispatch edge, start the edge the linker's
        // ncl.link.query span terminates.
        NCL_TRACE_SPAN_FLOW("ncl.serve.request",
                            obs::RequestFlowId(requests[i].id, 2),
                            obs::RequestFlowId(requests[i].id, 1));
        flow_ids.push_back(obs::RequestFlowId(requests[i].id, 2));
      }
    }
    Stopwatch watch;
    Status slice_status;
    std::vector<std::vector<linking::ScoredCandidate>> ranked;
    std::vector<linking::PhaseTimings> phases;
    try {
      ranked = snapshot->LinkBatch(
          queries, tracing ? flow_ids.data() : nullptr, &phases);
      NCL_CHECK(ranked.size() == live.size());
      NCL_CHECK(phases.size() == live.size());
    } catch (const std::exception& e) {
      slice_status = Status::Internal(std::string("scoring failed: ") + e.what());
    } catch (...) {
      slice_status = Status::Internal("scoring failed: unknown exception");
    }
    // The slice scored as one unit, so its wall time is shared out evenly;
    // per-query attribution (the RequestTimings stage split) comes from the
    // linker's PhaseTimings.
    const double per_request_us =
        watch.ElapsedMicros() / static_cast<double>(live.size());
    for (size_t r = 0; r < live.size(); ++r) {
      LinkResult& result = results[live[r]];
      result.service_us = per_request_us;
      if (!slice_status.ok()) {
        result.status = slice_status;
        continue;
      }
      result.timings.candgen_us = phases[r].rewrite_us + phases[r].retrieve_us;
      result.timings.ed_us = phases[r].score_us;
      result.timings.rank_us = phases[r].rank_us;
      result.candidates = std::move(ranked[r]);
      result.snapshot_version = snapshot->version();
      scored_candidates += result.candidates.size();
      metrics.completed->Increment();
      metrics.service_us->RecordMicros(result.service_us);
      metrics.e2e_us->RecordMicros(result.queue_us + result.service_us);
      TenantState* tenant = requests[live[r]].tenant_state;
      tenant->completed.fetch_add(1, std::memory_order_relaxed);
      tenant->m_completed->Increment();
      tenant->m_e2e_us->RecordMicros(result.queue_us + result.service_us);
    }
  }

  for (size_t i = 0; i < count; ++i) {
    LinkResult& result = results[i];
    result.timings.total_us = result.queue_us + result.service_us;
    // Feed the SLO machinery before calling back: every request that
    // reached a shard counts toward the rolling window, served or not.
    if (slo_ != nullptr) {
      slo_->RecordRequest(result.timings.total_us, result.status.ok());
    }
    if (slow_log_ != nullptr) {
      slow_log_->Offer(result.request_id, result.timings.total_us,
                       result.timings, requests[i].query);
    }
    requests[i].done(std::move(results[i]));
  }
  return scored_candidates;
}

void LinkingService::ShardLoop() {
  const ServeMetrics& metrics = GetServeMetrics();
  // A pass takes its share of the backlog, capped at one shard's share of a
  // full max_batch.
  const size_t pass_cap =
      (config_.max_batch + config_.num_shards - 1) / config_.num_shards;
  for (;;) {
    std::vector<PendingRequest> pass;
    // (end index into `pass`, pinned snapshot), one entry per tenant group.
    std::vector<std::pair<size_t, std::shared_ptr<const ModelSnapshot>>> groups;
    bool more_queued = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_work_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and nothing left to serve
      const size_t take = std::min(
          (queue_.size() + config_.num_shards - 1) / config_.num_shards,
          pass_cap);
      pass.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        PendingRequest& front = queue_.front();
        front.tenant_state->queued--;
        front.tenant_state->m_queue_depth->Set(
            static_cast<double>(front.tenant_state->queued));
        pass.push_back(std::move(front));
        queue_.pop_front();
      }
      // Group by tenant (stable: intra-tenant arrival order is preserved)
      // and pin one snapshot per group before releasing the lock. Dequeue
      // is FIFO, so across shards a later request never pins an older
      // version than an earlier one; a concurrent per-tenant Publish only
      // affects later passes.
      std::stable_sort(pass.begin(), pass.end(),
                       [](const PendingRequest& a, const PendingRequest& b) {
                         return a.tenant < b.tenant;
                       });
      for (size_t begin = 0; begin < pass.size();) {
        size_t end = begin + 1;
        while (end < pass.size() && pass[end].tenant == pass[begin].tenant) {
          ++end;
        }
        groups.emplace_back(end, tenants_->Current(pass[begin].tenant));
        begin = end;
      }
      busy_shards_++;
      more_queued = !queue_.empty();
      PublishQueueDepthLocked();
    }
    // One clock read stamps the whole pass: queue_wait ends (and batch
    // formation starts) here for every request taken.
    const auto drained = std::chrono::steady_clock::now();
    for (PendingRequest& request : pass) request.drained = drained;
    cv_space_.notify_all();
    if (more_queued) cv_work_.notify_one();  // hand the rest to an idle shard

    batches_.fetch_add(1, std::memory_order_relaxed);
    metrics.batch_size->Record(pass.size());
    uint64_t pass_candidates = 0;
    {
      NCL_TRACE_SPAN("ncl.serve.batch");
      if (obs::TracingEnabled()) {
        // Hop 1 of each request's trace lane: a marker on the shard that
        // took it, finishing the admit edge and starting the request edge.
        for (const PendingRequest& request : pass) {
          NCL_TRACE_SPAN_FLOW("ncl.serve.dispatch",
                              obs::RequestFlowId(request.id, 1),
                              obs::RequestFlowId(request.id, 0));
        }
      }
      size_t begin = 0;
      for (const auto& [end, snapshot] : groups) {
        pass_candidates +=
            ProcessSlice(pass.data() + begin, end - begin, snapshot);
        begin = end;
      }
    }
    metrics.candidates_per_batch->Record(pass_candidates);

    bool idle = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      busy_shards_--;
      idle = busy_shards_ == 0 && queue_.empty();
    }
    if (idle) cv_idle_.notify_all();
  }
}

void LinkingService::StopInternal(bool fail_queued) {
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  if (stopped_) return;
  std::deque<PendingRequest> failed;  // called back once the lock is released
  {
    std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;
    if (fail_queued) {
      failed.swap(queue_);
      for (PendingRequest& victim : failed) {
        victim.tenant_state->queued--;
        victim.tenant_state->m_queue_depth->Set(
            static_cast<double>(victim.tenant_state->queued));
      }
      PublishQueueDepthLocked();
    }
  }
  cv_space_.notify_all();  // release submitters blocked on a full queue
  for (PendingRequest& victim : failed) {
    victim.done(ErrorResult(
        Status::Unavailable("service shut down before the request was served"),
        victim.id));
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_idle_.wait(lock, [this] { return queue_.empty() && busy_shards_ == 0; });
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& shard : shards_) shard.join();
  if (slo_ != nullptr) {
    // Final window so runs shorter than one check interval still report,
    // then stop the thread (its probe reads state torn down below).
    slo_->EvaluateNow();
    slo_->Stop();
  }
  stopped_ = true;
}

void LinkingService::Drain() { StopInternal(/*fail_queued=*/false); }

void LinkingService::Shutdown() { StopInternal(/*fail_queued=*/true); }

std::vector<SlowRequest> LinkingService::slow_requests() const {
  return slow_log_ != nullptr ? slow_log_->Snapshot()
                              : std::vector<SlowRequest>{};
}

ServeStats LinkingService::stats() const {
  ServeStats stats;
  stats.batches = batches_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  stats.queue_depth = queue_.size();
  stats.max_queue_depth = max_queue_depth_;
  for (const auto& [name, state] : tenant_states_) {
    TenantStats tenant;
    tenant.admitted = state->admitted.load(std::memory_order_relaxed);
    tenant.rejected = state->rejected.load(std::memory_order_relaxed);
    tenant.shed = state->shed.load(std::memory_order_relaxed);
    tenant.deadline_exceeded =
        state->deadline_exceeded.load(std::memory_order_relaxed);
    tenant.completed = state->completed.load(std::memory_order_relaxed);
    tenant.queue_depth = state->queued;
    stats.admitted += tenant.admitted;
    stats.rejected += tenant.rejected;
    stats.shed += tenant.shed;
    stats.deadline_exceeded += tenant.deadline_exceeded;
    stats.completed += tenant.completed;
    stats.tenants.emplace(name, tenant);
  }
  return stats;
}

}  // namespace ncl::serve
