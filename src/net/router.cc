#include "net/router.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <poll.h>
#include <sys/socket.h>

#include "obs/metrics.h"
#include "util/logging.h"

namespace ncl::net {

namespace {

struct RouterMetrics {
  obs::Counter* connections;
  obs::Counter* requests;
  obs::Counter* retried;
  obs::Counter* failed;
  obs::Gauge* healthy_backends;
};

const RouterMetrics& GetRouterMetrics() {
  static const RouterMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return RouterMetrics{registry.GetCounter("ncl.net.router.connections"),
                         registry.GetCounter("ncl.net.router.requests"),
                         registry.GetCounter("ncl.net.router.retried"),
                         registry.GetCounter("ncl.net.router.failed"),
                         registry.GetGauge("ncl.net.router.healthy_backends")};
  }();
  return metrics;
}

}  // namespace

uint64_t RouteHash(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

uint64_t RendezvousScore(uint64_t key_hash, uint64_t backend_hash) {
  // splitmix64 finisher over the key hash and the backend's *identity*
  // hash. Mixing the config index here instead was the bug that made
  // routing depend on backend list order: two routers with permuted
  // configs disagreed on every key, and deleting entry 0 reshuffled the
  // whole keyspace instead of just the deleted backend's share.
  uint64_t z = key_hash ^ (backend_hash * 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string RouteKey(std::string_view ontology,
                     const std::vector<std::string>& tokens) {
  std::string key;
  key += ontology;
  key += '\x1e';  // record separator: tenant vs. token space
  for (const std::string& token : tokens) {
    key += token;
    key += '\x1f';  // unit separator: ("ab","c") != ("a","bc")
  }
  return key;
}

Router::Router(RouterConfig config) : config_(std::move(config)) {
  for (const Endpoint& endpoint : config_.backends) {
    backends_.push_back(std::make_unique<Backend>(endpoint));
  }
}

Router::~Router() { Stop(); }

Status Router::Start() {
  NCL_CHECK(!started_.load()) << "Router::Start called twice";
  if (backends_.empty()) {
    return Status::InvalidArgument("router needs at least one backend");
  }
  // The health loop waits this long between probe sweeps: at 0 it would
  // reconnect to every backend in a tight loop.
  if (config_.health_interval_ms <= 0) {
    return Status::InvalidArgument("health_interval_ms must be positive, got " +
                                   std::to_string(config_.health_interval_ms));
  }
  NCL_ASSIGN_OR_RETURN(listener_, Listen(config_.listen, config_.backlog));
  NCL_ASSIGN_OR_RETURN(bound_endpoint_, LocalEndpoint(listener_, config_.listen));
  NCL_RETURN_NOT_OK(SetNonBlocking(listener_.get()));
  started_.store(true);
  // Synchronous first sweep: route from the first request onward.
  ProbeAllBackends();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  health_thread_ = std::thread([this] { HealthLoop(); });
  NCL_LOG(Info) << "net::Router listening on " << bound_endpoint_.ToString()
                << " with " << backends_.size() << " backends";
  return Status::OK();
}

void Router::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  if (!started_.load() || stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  health_cv_.notify_all();
  {
    // Unblock handler threads waiting in recv on idle client connections.
    // Only live entries are here: a handler deregisters before its Fd
    // closes, so no shutdown ever lands on a recycled fd number.
    std::lock_guard<std::mutex> lock(handlers_mutex_);
    for (auto& [id, entry] : handlers_) ::shutdown(entry.fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (health_thread_.joinable()) health_thread_.join();
  listener_ = Fd();
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(handlers_mutex_);
    for (auto& [id, entry] : handlers_) handlers.push_back(std::move(entry.thread));
    handlers_.clear();
    handlers.insert(handlers.end(),
                    std::make_move_iterator(finished_handlers_.begin()),
                    std::make_move_iterator(finished_handlers_.end()));
    finished_handlers_.clear();
  }
  for (std::thread& t : handlers) {
    if (t.joinable()) t.join();
  }
  if (config_.listen.kind == Endpoint::Kind::kUnix) {
    ::unlink(config_.listen.path.c_str());
  }
}

RouterStats Router::stats() const {
  RouterStats stats;
  stats.connections = connections_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.retried = retried_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  for (const auto& backend : backends_) {
    BackendStatus status;
    status.endpoint = backend->endpoint;
    status.healthy = backend->healthy.load(std::memory_order_relaxed);
    status.draining = backend->draining.load(std::memory_order_relaxed);
    status.snapshot_version =
        backend->snapshot_version.load(std::memory_order_relaxed);
    status.routed = backend->routed.load(std::memory_order_relaxed);
    status.failures = backend->failures.load(std::memory_order_relaxed);
    stats.backends.push_back(std::move(status));
  }
  return stats;
}

void Router::MarkBackendDown(size_t index) {
  Backend& backend = *backends_[index];
  backend.failures.fetch_add(1, std::memory_order_relaxed);
  if (backend.healthy.exchange(false, std::memory_order_acq_rel)) {
    NCL_LOG(Warning) << "net::Router backend " << backend.endpoint.ToString()
                     << " removed from rotation (forward failure)";
  }
}

std::vector<size_t> Router::RouteOrder(std::string_view key) const {
  const uint64_t key_hash = RouteHash(key);
  struct Scored {
    uint64_t score;
    size_t index;
    bool routable;
  };
  std::vector<Scored> scored;
  scored.reserve(backends_.size());
  for (size_t i = 0; i < backends_.size(); ++i) {
    const Backend& backend = *backends_[i];
    const bool routable = backend.healthy.load(std::memory_order_acquire) &&
                          !backend.draining.load(std::memory_order_acquire);
    scored.push_back(
        Scored{RendezvousScore(key_hash, backend.address_hash), i, routable});
  }
  // Routable backends first (by descending rendezvous score), the rest as a
  // last resort in the same order — a fleet whose probes have all failed
  // still *tries* rather than instantly erroring.
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.routable != b.routable) return a.routable;
    return a.score > b.score;
  });
  std::vector<size_t> order;
  order.reserve(scored.size());
  for (const Scored& s : scored) order.push_back(s.index);
  return order;
}

Client* Router::BackendClient(size_t index,
                              std::vector<std::unique_ptr<Client>>* cache) {
  if (cache->size() < backends_.size()) cache->resize(backends_.size());
  if ((*cache)[index] == nullptr) {
    ClientConfig client_config;
    client_config.connect_timeout_ms = config_.connect_timeout_ms;
    client_config.send_timeout_ms = config_.io_timeout_ms;
    client_config.recv_timeout_ms = config_.io_timeout_ms;
    // The router is the retry layer: failover beats hammering a dead
    // backend with backoff.
    client_config.max_retries = 0;
    client_config.max_body_bytes = config_.max_body_bytes;
    Result<std::unique_ptr<Client>> client =
        Client::Connect(backends_[index]->endpoint, client_config);
    if (!client.ok()) return nullptr;
    (*cache)[index] = std::move(*client);
  }
  return (*cache)[index].get();
}

LinkResponseMsg Router::ForwardLink(
    const LinkRequestMsg& request,
    std::vector<std::unique_ptr<Client>>* backends) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  GetRouterMetrics().requests->Increment();
  const std::vector<size_t> order =
      RouteOrder(RouteKey(request.ontology, request.tokens));
  Status last_error = Status::Unavailable("no backends configured");
  bool needed_retry = false;
  for (size_t index : order) {
    Client* client = BackendClient(index, backends);
    if (client == nullptr) {
      MarkBackendDown(index);
      last_error = Status::Unavailable(
          "connect " + backends_[index]->endpoint.ToString() + " failed");
      needed_retry = true;
      continue;
    }
    Result<LinkResponseMsg> response =
        client->Link(request.tokens, request.deadline_us, request.ontology);
    if (response.ok() &&
        response->status.code() != StatusCode::kUnavailable) {
      // Includes non-OK outcomes like DeadlineExceeded or
      // ResourceExhausted: the backend answered, forward its verdict.
      backends_[index]->routed.fetch_add(1, std::memory_order_relaxed);
      if (needed_retry) {
        retried_.fetch_add(1, std::memory_order_relaxed);
        GetRouterMetrics().retried->Increment();
      }
      return std::move(*response);
    }
    last_error = response.ok() ? response->status : response.status();
    MarkBackendDown(index);
    // A dead cached connection reconnects lazily next time; drop it now so
    // a revived backend is not stuck behind a poisoned fd.
    (*backends)[index].reset();
    needed_retry = true;
  }
  failed_.fetch_add(1, std::memory_order_relaxed);
  GetRouterMetrics().failed->Increment();
  LinkResponseMsg response;
  response.status = Status::Unavailable(
      "no live backend (" + std::to_string(order.size()) + " tried): " +
      last_error.ToString());
  return response;
}

void Router::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listener_.get(), POLLIN, 0};
    int ready = ::poll(&pfd, 1, 100);
    if (ready < 0 && errno != EINTR) {
      NCL_LOG(Error) << "net::Router accept poll: " << std::strerror(errno);
      return;
    }
    if (ready <= 0) continue;
    for (;;) {
      int client = ::accept(listener_.get(), nullptr, nullptr);
      if (client < 0) break;
      connections_.fetch_add(1, std::memory_order_relaxed);
      GetRouterMetrics().connections->Increment();
      std::lock_guard<std::mutex> lock(handlers_mutex_);
      if (stopping_.load(std::memory_order_acquire)) {
        ::close(client);
        return;
      }
      ReapFinishedHandlersLocked();
      const uint64_t id = next_handler_id_++;
      HandlerEntry& entry = handlers_[id];
      entry.fd = client;
      // Safe to start under the lock: the handler touches handlers_ only on
      // exit, and blocks on this mutex until the entry is fully formed.
      entry.thread =
          std::thread([this, id, client] { HandleConnection(id, Fd(client)); });
    }
  }
}

void Router::HandleConnection(uint64_t handler_id, Fd fd) {
  // Handler-local backend connections: no lock spans network I/O.
  std::vector<std::unique_ptr<Client>> backend_clients;
  while (!stopping_.load(std::memory_order_acquire)) {
    // Block indefinitely for the next request (Stop shuts the fd down to
    // wake us); bound the body read once a header has committed.
    std::string header_bytes;
    Status status = RecvExactly(fd.get(), kHeaderSize, &header_bytes,
                                /*timeout_ms=*/0);
    if (!status.ok()) break;  // peer gone or shutdown
    Result<FrameHeader> header = DecodeHeader(header_bytes, config_.max_body_bytes);
    if (!header.ok()) {
      NCL_LOG(Warning) << "net::Router closing connection: "
                       << header.status().ToString();
      break;
    }
    std::string body;
    if (header->body_size > 0) {
      status = RecvExactly(fd.get(), header->body_size, &body,
                           config_.io_timeout_ms);
      if (!status.ok()) break;
    }
    const uint64_t correlation_id = header->correlation_id;
    std::string reply;
    switch (header->type) {
      case MessageType::kLinkRequest: {
        Result<LinkRequestMsg> request = DecodeLinkRequest(body);
        if (!request.ok()) {
          reply = EncodeErrorResponse(correlation_id, request.status());
          break;
        }
        reply = EncodeLinkResponse(correlation_id,
                                   ForwardLink(*request, &backend_clients));
        break;
      }
      case MessageType::kHealthRequest: {
        // Aggregate: serving while at least one backend is routable; the
        // version reported is the newest live snapshot in the fleet.
        HealthResponseMsg health;
        health.state = ServerState::kDraining;
        for (const auto& backend : backends_) {
          if (backend->healthy.load(std::memory_order_acquire) &&
              !backend->draining.load(std::memory_order_acquire)) {
            health.state = ServerState::kServing;
            health.snapshot_version = std::max(
                health.snapshot_version,
                backend->snapshot_version.load(std::memory_order_relaxed));
          }
        }
        reply = EncodeHealthResponse(correlation_id, health);
        break;
      }
      case MessageType::kStatsRequest: {
        StatsResponseMsg sum;
        for (size_t i = 0; i < backends_.size(); ++i) {
          Client* client = BackendClient(i, &backend_clients);
          if (client == nullptr) continue;
          Result<StatsResponseMsg> stats = client->Stats();
          if (!stats.ok()) continue;
          sum.stats.admitted += stats->stats.admitted;
          sum.stats.rejected += stats->stats.rejected;
          sum.stats.shed += stats->stats.shed;
          sum.stats.deadline_exceeded += stats->stats.deadline_exceeded;
          sum.stats.completed += stats->stats.completed;
          sum.stats.batches += stats->stats.batches;
          sum.stats.queue_depth += stats->stats.queue_depth;
          sum.stats.max_queue_depth =
              std::max(sum.stats.max_queue_depth, stats->stats.max_queue_depth);
        }
        reply = EncodeStatsResponse(correlation_id, sum);
        break;
      }
      case MessageType::kDrainRequest: {
        reply = EncodeDrainResponse(correlation_id, DrainAll());
        break;
      }
      default:
        reply = EncodeErrorResponse(
            correlation_id,
            Status::InvalidArgument(
                "unexpected message type " +
                std::to_string(static_cast<int>(header->type))));
        break;
    }
    status = SendAll(fd.get(), reply, config_.io_timeout_ms);
    if (!status.ok()) break;
  }
  // Deregister before `fd` closes (it outlives this block): once the entry
  // is gone, Stop cannot shutdown(2) whatever the kernel recycles this fd
  // number into. Under Stop, the entry may already have been claimed.
  std::lock_guard<std::mutex> lock(handlers_mutex_);
  auto it = handlers_.find(handler_id);
  if (it != handlers_.end()) {
    finished_handlers_.push_back(std::move(it->second.thread));
    handlers_.erase(it);
  }
}

void Router::ReapFinishedHandlersLocked() {
  for (std::thread& t : finished_handlers_) {
    if (t.joinable()) t.join();
  }
  finished_handlers_.clear();
}

void Router::ProbeAllBackends() {
  // Probe connections are ephemeral: a health check is rare (per interval)
  // and a fresh connect *is* part of what "healthy" means.
  size_t healthy = 0;
  for (auto& backend : backends_) {
    ClientConfig probe_config;
    probe_config.connect_timeout_ms = config_.connect_timeout_ms;
    probe_config.send_timeout_ms = config_.connect_timeout_ms;
    probe_config.recv_timeout_ms = config_.connect_timeout_ms;
    probe_config.max_retries = 0;
    Result<std::unique_ptr<Client>> client =
        Client::Connect(backend->endpoint, probe_config);
    Result<HealthResponseMsg> health =
        client.ok() ? (*client)->Health()
                    : Result<HealthResponseMsg>(client.status());
    if (health.ok()) {
      const bool draining = health->state == ServerState::kDraining;
      backend->draining.store(draining, std::memory_order_release);
      backend->snapshot_version.store(health->snapshot_version,
                                      std::memory_order_relaxed);
      if (!backend->healthy.exchange(true, std::memory_order_acq_rel) &&
          !draining) {
        NCL_LOG(Info) << "net::Router backend " << backend->endpoint.ToString()
                      << " joined rotation (snapshot v"
                      << health->snapshot_version << ")";
      }
      if (!draining) ++healthy;
    } else {
      backend->failures.fetch_add(1, std::memory_order_relaxed);
      if (backend->healthy.exchange(false, std::memory_order_acq_rel)) {
        NCL_LOG(Warning) << "net::Router backend "
                         << backend->endpoint.ToString()
                         << " removed from rotation: "
                         << health.status().ToString();
      }
    }
  }
  GetRouterMetrics().healthy_backends->Set(static_cast<double>(healthy));
}

void Router::HealthLoop() {
  std::unique_lock<std::mutex> lock(health_mutex_);
  while (!stopping_.load(std::memory_order_acquire)) {
    health_cv_.wait_for(lock, std::chrono::milliseconds(config_.health_interval_ms),
                        [this] { return stopping_.load(std::memory_order_acquire); });
    if (stopping_.load(std::memory_order_acquire)) return;
    lock.unlock();
    ProbeAllBackends();
    lock.lock();
  }
}

Status Router::DrainBackend(size_t index) {
  if (index >= backends_.size()) {
    return Status::OutOfRange("backend index " + std::to_string(index) +
                              " out of range (fleet has " +
                              std::to_string(backends_.size()) + ")");
  }
  ClientConfig drain_config;
  drain_config.connect_timeout_ms = config_.connect_timeout_ms;
  drain_config.send_timeout_ms = config_.io_timeout_ms;
  drain_config.recv_timeout_ms = config_.io_timeout_ms;
  drain_config.max_retries = 0;
  NCL_ASSIGN_OR_RETURN(std::unique_ptr<Client> client,
                       Client::Connect(backends_[index]->endpoint, drain_config));
  NCL_RETURN_NOT_OK(client->Drain());
  // Take it out of rotation now; the probe will confirm via kDraining.
  backends_[index]->draining.store(true, std::memory_order_release);
  NCL_LOG(Info) << "net::Router draining backend "
                << backends_[index]->endpoint.ToString();
  return Status::OK();
}

Status Router::DrainAll() {
  Status first_error;
  for (size_t i = 0; i < backends_.size(); ++i) {
    Status status = DrainBackend(i);
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

}  // namespace ncl::net
