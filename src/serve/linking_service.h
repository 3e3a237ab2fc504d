// ncl::serve — the concurrent linking service.
//
// NclLinker answers one query per call; the paper's deployment (and the
// ROADMAP north-star) is an online service absorbing a continuous query
// stream from EMR front-ends while the Appendix-A loop retrains COM-AID in
// the background. LinkingService fronts the linker with the three pieces
// that turns into:
//
//   * A bounded admission queue with a configurable overload policy —
//     kBlock (callers wait for space), kReject (fail fast with
//     ResourceExhausted), kShedOldest (evict the stalest queued request,
//     which then fails with Unavailable) — plus optional per-request
//     deadlines, enforced at dispatch: a request that waited past its
//     deadline fails with DeadlineExceeded instead of burning a shard on an
//     answer nobody is waiting for. An oversize query (kMaxQueryTokens,
//     kMaxTokenBytes) is refused with InvalidArgument before any of that.
//
//   * Pull-based shards: `num_shards` shard threads take work straight from
//     the admission queue. Each pass takes its share of the backlog —
//     ceil(queued / num_shards) requests, at most ceil(max_batch /
//     num_shards) — wakes another idle shard if requests remain, and scores
//     the pass as *one* ModelSnapshot::LinkBatch workload per tenant, so
//     candidates from different queries share lock-step GEMM tiles (see
//     NclLinker::LinkBatchDetailed). No shard waits for another: a shard
//     that finishes early takes the next request at once, so one slow
//     query never holds the queue behind it.
//
//   * Snapshot pinning: a pass pins its tenants' current snapshots while it
//     still holds the admission lock, and every request in the pass scores
//     against its immutable snapshot, so a concurrent Publish (hot model
//     swap) is torn-read-free by construction. Dequeue is FIFO, so versions
//     never go backwards in submission order, across shards too.
//
//   * Multi-tenancy: the service hosts one model per ontology — one
//     TenantRegistry tenant each — behind one shared admission queue and
//     shard set; a single-model service is the registry's kDefaultTenant.
//     RequestOptions::ontology selects the tenant; each pass groups its
//     requests by tenant and pins one snapshot per group (per-tenant
//     results are bit-identical to a service hosting only that model).
//     ServeConfig::tenant_quota caps each tenant's share of the queue, with
//     the overload policy applied within the offending tenant — so one
//     ontology's overload sheds its own requests, never a neighbour's — and
//     every admission/shed/completion event is mirrored onto per-tenant
//     `ncl.serve.<tenant>.*` metrics.
//
// Lifecycle: construct → (traffic) → Drain() *or* Shutdown(). Drain stops
// admission and completes everything queued; Shutdown stops admission and
// fails queued requests with Unavailable. Both wait for an empty queue and
// no busy shard, are terminal and idempotent; the destructor implies
// Shutdown. Whatever its fate, every request completes by one call of its
// SubmitLink callback, made outside the service lock.
//
// Observability (`ncl.serve.*`): queue_depth gauge; admitted / rejected /
// rejected_oversize / shed / deadline_exceeded / completed counters (an
// oversize refusal also logs one `serve_rejected_oversize` line giving the
// size and the cap, never the query text); batch_size (requests per
// pass), candidates_per_batch, queue_wait_us, service_us and e2e_us
// histograms (e2e = queue wait + service); per-pass `ncl.serve.batch` and
// per-tenant-group `ncl.serve.slice` trace spans.
//
// Request-flow tracing: every admitted request gets a process-unique id.
// When tracing is on, admission records an `ncl.serve.admit` span starting
// flow edge 0, the shard that takes the request records an
// `ncl.serve.dispatch` marker (finishes edge 0, starts edge 1) and then an
// `ncl.serve.request` span (finishes edge 1, starts edge 2), and the
// linker's `ncl.link.query` span finishes edge 2 — so one request renders
// as a connected lane from the submitter into the shard's linker phases in
// Perfetto (see obs::RequestFlowId). Every LinkResult also carries its
// request id and a RequestTimings stage breakdown (queue wait / batch
// formation / candidate generation / ED / ranking), populated from the
// linker's per-query PhaseTimings.
//
// SLO watchdog: with `ServeConfig::slo.enabled`, the service owns an
// SloWatchdog fed every completed request (rolling-window p50/p99, error
// budget, stall detection over the shard-pass probe — see serve/slo.h) and a
// SlowRequestLog keeping the N slowest requests with full stage breakdowns.
// The watchdog evaluates on its obs::MetricsSampler's thread and its probe
// takes mutex_, so StopInternal calls EvaluateNow and Stop with it released.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "linking/ncl_linker.h"
#include "serve/model_snapshot.h"
#include "serve/slo.h"
#include "util/status.h"

namespace ncl::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace ncl::obs

namespace ncl::serve {

/// What to do with a new request when the admission queue is full.
enum class OverloadPolicy {
  kBlock,      ///< block the submitter until space frees up
  kReject,     ///< fail the new request with ResourceExhausted
  kShedOldest  ///< evict the oldest queued request (it fails Unavailable)
};

/// Service knobs.
struct ServeConfig {
  /// Admission queue bound (must be > 0).
  size_t queue_capacity = 256;
  OverloadPolicy policy = OverloadPolicy::kBlock;
  /// Bounds a shard pass: one pass takes at most ceil(max_batch /
  /// num_shards) requests (must be > 0).
  size_t max_batch = 16;
  /// Shard threads pulling passes from the admission queue (must be > 0).
  size_t num_shards = 4;
  /// Deadline applied to requests that don't carry their own (zero = none).
  std::chrono::microseconds default_deadline{0};
  /// Max queued requests *per tenant* (0 = no per-tenant cap). When a
  /// tenant hits its quota, the overload policy is applied within that
  /// tenant — kReject fails the new request, kShedOldest evicts the
  /// tenant's own oldest queued request, kBlock waits for the tenant's
  /// backlog to drop — so one ontology's overload never evicts a
  /// neighbour's queued work.
  size_t tenant_quota = 0;
  /// SLO watchdog + slow-request log (off by default; see serve/slo.h).
  SloConfig slo;
};

/// Ceiling on any per-request deadline (1 hour). Wire peers can send
/// arbitrary u64 microsecond deadlines; values above this are clamped here
/// (and at wire decode, see net/wire.h) so `enqueued + deadline` can never
/// overflow the steady_clock time_point into the past.
inline constexpr std::chrono::microseconds kMaxRequestDeadline{
    3'600'000'000};  // 1 hour

/// Admission bounds on one request's work, checked before it is queued: the
/// worst admitted request scores k lanes × 257 decode steps (256 tokens,
/// then end-of-sequence). Real queries have ~10 tokens of ≤16 bytes; the
/// 16 MiB wire frame cap alone would admit ~3.3M tokens, or one 16 MiB one.
inline constexpr size_t kMaxQueryTokens = 256;
inline constexpr size_t kMaxTokenBytes = 256;

/// Per-request overrides.
struct RequestOptions {
  /// Overrides ServeConfig::default_deadline when non-zero. Clamped to
  /// kMaxRequestDeadline.
  std::chrono::microseconds deadline{0};
  /// Which ontology's model scores this request (empty = kDefaultTenant).
  /// The service dispatches to TenantRegistry::Current(ontology) and fails
  /// FailedPrecondition when that tenant has never published.
  std::string ontology;
};

/// Outcome of one request.
struct LinkResult {
  Status status;  ///< OK, or why the request was not served
  std::vector<linking::ScoredCandidate> candidates;
  /// Version of the snapshot that scored this request (0 when unserved).
  uint64_t snapshot_version = 0;
  double queue_us = 0.0;    ///< admission -> dispatch
  double service_us = 0.0;  ///< Phase I+II scoring time
  /// Process-unique id assigned at admission (0 when never admitted); the
  /// trace flow-edge ids of this request are obs::RequestFlowId(id, hop).
  uint64_t request_id = 0;
  /// Per-stage breakdown (zeroed fields for stages the request never
  /// reached; candgen/ed/rank need an NclSnapshot-backed scorer).
  RequestTimings timings;
};

/// Per-tenant slice of ServeStats (events attributed to one ontology).
struct TenantStats {
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t completed = 0;
  size_t queue_depth = 0;  ///< this tenant's share of the admission queue
};

/// Point-in-time counters for tests and the load generator (the same events
/// also feed the global `ncl.serve.*` metrics; these are per-instance).
struct ServeStats {
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t completed = 0;  ///< requests that scored successfully
  uint64_t batches = 0;  ///< shard passes taken
  size_t queue_depth = 0;      ///< current
  size_t max_queue_depth = 0;  ///< high-water mark observed
  /// Keyed by tenant id; only tenants that have submitted appear.
  std::map<std::string, TenantStats> tenants;
};

/// \brief The service: admission queue -> pull-based shard threads.
class LinkingService {
 public:
  /// Requests carry RequestOptions::ontology and each shard pass groups its
  /// requests by tenant, pinning one snapshot per tenant group, so
  /// per-tenant results are bit-identical to a service hosting only that
  /// model. A single-model service publishes its model as kDefaultTenant.
  /// \param tenants source of scoring snapshots; must outlive the service.
  ///        Tenants may publish before or after construction — requests
  ///        dispatched to a tenant with no snapshot fail FailedPrecondition.
  LinkingService(TenantRegistry* tenants, ServeConfig config = {});
  ~LinkingService();

  LinkingService(const LinkingService&) = delete;
  LinkingService& operator=(const LinkingService&) = delete;

  /// Async entry point: admit `query` and call `done` exactly once with its
  /// result (inspect LinkResult::status), never under the service lock. A
  /// served request calls back on its shard thread; a request refused at
  /// admission, shed by a later submitter or failed by Shutdown calls back
  /// on the thread of that call, once it released the lock (a refusal
  /// before this returns). `done` may read stats() but must not call Link,
  /// Drain or Shutdown (a shard would wait on itself), and must not throw.
  /// With a full queue under kBlock this call blocks until space frees.
  void SubmitLink(std::vector<std::string> query, RequestOptions options,
                  std::function<void(LinkResult)> done);

  /// The same, resolving a future instead of calling back.
  std::future<LinkResult> SubmitLink(std::vector<std::string> query,
                                     RequestOptions options = {});

  /// Sync convenience: SubmitLink + wait. Do not call from a shard thread.
  LinkResult Link(std::vector<std::string> query, RequestOptions options = {});

  /// Stop admission, serve everything already queued, then stop the
  /// shards. Terminal and idempotent.
  void Drain();

  /// Stop admission, fail queued requests with Unavailable, then stop the
  /// shards (passes already taken still complete). Terminal, idempotent.
  void Shutdown();

  ServeStats stats() const;
  const ServeConfig& config() const { return config_; }

  /// The SLO watchdog (null unless `config.slo.enabled`). Stays readable
  /// after Drain/Shutdown — both run a final evaluation so short runs still
  /// produce a window.
  const SloWatchdog* slo_watchdog() const { return slo_.get(); }

  /// The N slowest completed requests, slowest first (empty when the slow
  /// log is disabled: `config.slo.enabled` off or `slow_log_n` zero).
  std::vector<SlowRequest> slow_requests() const;

 private:
  /// Per-tenant admission/completion accounting plus the tenant's
  /// `ncl.serve.<tenant>.*` metric handles, created on the tenant's first
  /// request and never destroyed (pointers into tenant_states_ stay valid
  /// for the service's lifetime). `queued` is guarded by mutex_; the event
  /// counters are atomics because shards bump them without the lock.
  struct TenantState {
    size_t queued = 0;  ///< guarded by mutex_
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> shed{0};
    std::atomic<uint64_t> deadline_exceeded{0};
    std::atomic<uint64_t> completed{0};
    obs::Counter* m_admitted = nullptr;
    obs::Counter* m_rejected = nullptr;
    obs::Counter* m_shed = nullptr;
    obs::Counter* m_deadline_exceeded = nullptr;
    obs::Counter* m_completed = nullptr;
    obs::Gauge* m_queue_depth = nullptr;
    obs::Histogram* m_e2e_us = nullptr;
  };

  /// One queued request.
  struct PendingRequest {
    std::vector<std::string> query;
    std::function<void(LinkResult)> done;
    uint64_t id = 0;  ///< process-unique, assigned at admission
    std::string tenant;             ///< canonical (never empty)
    TenantState* tenant_state = nullptr;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point drained{};  ///< left the queue
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;
  };

  /// Find-or-create the tenant's accounting state. Requires mutex_.
  TenantState* GetTenantStateLocked(const std::string& tenant);

  /// One shard thread: take a pass from the admission queue, score it,
  /// repeat until the service stops.
  void ShardLoop();
  /// Score one tenant group of a pass on the calling shard: enforce
  /// deadlines, then hand the surviving queries to the snapshot as one
  /// LinkBatch workload. Returns the number of candidates scored (feeds
  /// `ncl.serve.candidates_per_batch`).
  uint64_t ProcessSlice(PendingRequest* requests, size_t count,
                        const std::shared_ptr<const ModelSnapshot>& snapshot);
  void StopInternal(bool fail_queued);
  void PublishQueueDepthLocked();

  TenantRegistry* const tenants_;
  const ServeConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable cv_work_;   ///< idle shards: queue non-empty / stop
  std::condition_variable cv_space_;  ///< blocked submitters: space freed
  std::condition_variable cv_idle_;   ///< stop: queue empty + no busy shard
  std::deque<PendingRequest> queue_;
  bool accepting_ = true;
  bool stopping_ = false;
  size_t busy_shards_ = 0;  ///< shards between taking a pass and finishing it
  size_t max_queue_depth_ = 0;
  /// Tenant id -> accounting state; entries are created on first use and
  /// never erased (PendingRequest holds raw pointers into the values).
  std::unordered_map<std::string, std::unique_ptr<TenantState>> tenant_states_;

  /// Scoring passes run (mutex-free; read by stats()). The per-request
  /// event counts live in tenant_states_; stats() sums them.
  std::atomic<uint64_t> batches_{0};

  std::mutex stop_mutex_;  ///< serialises Drain/Shutdown/destructor
  bool stopped_ = false;   ///< guarded by stop_mutex_

  /// SLO machinery (null when config_.slo.enabled is off). The watchdog's
  /// probe reads this service from the watchdog's sampler thread, so both
  /// stop before the service's state is torn down.
  std::unique_ptr<SlowRequestLog> slow_log_;
  std::unique_ptr<SloWatchdog> slo_;

  std::vector<std::thread> shards_;
};

}  // namespace ncl::serve
