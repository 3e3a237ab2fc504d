// net::Router — a tiny front process for a fleet of net::Server replicas.
//
// The router listens on one endpoint and holds client connections to N
// backend replicas. Each link request is routed by *rendezvous (highest-
// random-weight) hashing* of its (ontology, query) key over the currently
// routable backends: score(key, backend) is computed per backend and the
// maximum wins, so a backend joining or leaving only remaps the keys that
// hashed to it — the consistent-routing property that keeps per-replica
// encoding caches warm across membership churn. The per-backend mix uses a
// hash of the backend's *address*, never its position in the config, so
// two routers given the same fleet in any order route identically and
// editing the backend list cannot reshuffle unrelated keys.
//
// Health: a probe thread sends kHealthRequest to every backend each
// `health_interval_ms`. A probe failure (or a kDraining state) takes the
// backend out of rotation; a succeeding probe on a kServing backend puts it
// back — removal and re-add are fully automatic. Forwarding failures
// *also* mark the backend down immediately (faster than the probe), and the
// request is retried on the next backend in rendezvous order, so a replica
// killed mid-load costs in-flight requests at most an internal retry, not a
// client-visible error. Only when no backend remains does the client see
// Unavailable.
//
// Drain / rollout: a kDrainRequest sent *to the router* fans out to every
// backend (fleet shutdown); Router::DrainBackend drains one replica for
// zero-downtime rollout — the replica finishes its queue, health flips to
// kDraining, routing avoids it, the operator restarts it with the newly
// published ModelSnapshot, and the probe re-adds it. kHealthRequest to the
// router reports kServing while >= 1 backend is routable; kStatsRequest
// sums the backends' ServeStats.
//
// Threading: one accept thread, one blocking handler thread per client
// connection (a router connection does a round trip per request, so the
// per-connection model is the simple and correct choice at fleet-front
// scale), one health-probe thread. Handlers keep their own backend
// connections, so no lock is held across network I/O.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/status.h"

namespace ncl::net {

// --- Rendezvous-hash primitives, exposed so tests can pin the routing
// contract (order-independence, minimal disruption) without a live fleet.

/// FNV-1a over arbitrary bytes: route keys and backend addresses.
uint64_t RouteHash(std::string_view data);

/// Rendezvous score of one (key, backend) pair — splitmix64-mixes the key
/// hash with a hash of the backend's *address* (RouteHash of
/// Endpoint::ToString), never its index in the config, so every router
/// agrees on the winner regardless of backend list order.
uint64_t RendezvousScore(uint64_t key_hash, uint64_t backend_hash);

/// The routing key of a request: the tenant id and the query tokens,
/// delimiter-separated so distinct (ontology, tokens) tuples never collide.
/// Keying on the tenant too means one ontology's keyspace spreads over the
/// fleet independently of its neighbours'.
std::string RouteKey(std::string_view ontology,
                     const std::vector<std::string>& tokens);

struct RouterConfig {
  Endpoint listen;
  std::vector<Endpoint> backends;
  /// Pause between probe sweeps; must be positive.
  int health_interval_ms = 200;
  /// Applied to the probe's and the forwarders' backend connections.
  int connect_timeout_ms = 1000;
  int io_timeout_ms = 10000;
  uint32_t max_body_bytes = kDefaultMaxBodyBytes;
  /// listen(2) backlog.
  int backlog = 64;
};

/// Point-in-time view of one backend.
struct BackendStatus {
  Endpoint endpoint;
  bool healthy = false;
  bool draining = false;
  uint64_t snapshot_version = 0;
  uint64_t routed = 0;    ///< link requests forwarded here
  uint64_t failures = 0;  ///< forward/probe failures observed
};

struct RouterStats {
  uint64_t connections = 0;
  uint64_t requests = 0;
  uint64_t retried = 0;  ///< requests that needed a second (or later) backend
  uint64_t failed = 0;   ///< requests that exhausted every backend
  std::vector<BackendStatus> backends;
};

/// \brief The replica front-end.
class Router {
 public:
  explicit Router(RouterConfig config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Bind + listen + start the accept and health threads. The first health
  /// sweep runs synchronously so a freshly started router routes
  /// immediately instead of failing its first requests.
  Status Start();

  /// Close the listener, wake and join every thread. Idempotent. Backends
  /// are left running (stop them via Drain or their own lifecycle).
  void Stop();

  /// Endpoint actually bound (ephemeral ports resolved); valid after Start.
  const Endpoint& bound_endpoint() const { return bound_endpoint_; }

  RouterStats stats() const;

  /// Send Drain to one backend (rollout) — it leaves rotation via the
  /// kDraining health state. Fails OutOfRange on a bad index.
  Status DrainBackend(size_t index);

  /// Send Drain to every backend (fleet shutdown). Returns the first
  /// failure, but attempts all.
  Status DrainAll();

 private:
  struct Backend {
    Endpoint endpoint;
    /// RouteHash of the endpoint address, precomputed once: the backend's
    /// rendezvous identity, stable across config order and fleet edits.
    uint64_t address_hash = 0;
    std::atomic<bool> healthy{false};
    std::atomic<bool> draining{false};
    std::atomic<uint64_t> snapshot_version{0};
    std::atomic<uint64_t> routed{0};
    std::atomic<uint64_t> failures{0};
    explicit Backend(Endpoint ep)
        : endpoint(std::move(ep)), address_hash(RouteHash(endpoint.ToString())) {}
  };

  void AcceptLoop();
  void HandleConnection(uint64_t handler_id, Fd fd);
  void HealthLoop();
  /// Join handler threads that have finished. Requires handlers_mutex_.
  void ReapFinishedHandlersLocked();
  void ProbeAllBackends();
  /// Mark a forwarding failure: out of rotation until the probe readmits.
  void MarkBackendDown(size_t index);

  /// Backend indexes ordered by rendezvous score for `key`, routable
  /// (healthy && !draining) first. Never empty unless there are no backends.
  std::vector<size_t> RouteOrder(std::string_view key) const;

  /// Forward one decoded link request; returns the response to send (always
  /// a valid LinkResponse — exhaustion becomes an Unavailable envelope).
  LinkResponseMsg ForwardLink(const LinkRequestMsg& request,
                              std::vector<std::unique_ptr<Client>>* backends);

  Client* BackendClient(size_t index,
                        std::vector<std::unique_ptr<Client>>* cache);

  const RouterConfig config_;
  Endpoint bound_endpoint_;
  std::vector<std::unique_ptr<Backend>> backends_;

  Fd listener_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::mutex stop_mutex_;
  bool stopped_ = false;

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> retried_{0};
  std::atomic<uint64_t> failed_{0};

  std::mutex health_mutex_;
  std::condition_variable health_cv_;  ///< wakes the probe early on Stop

  std::thread accept_thread_;
  std::thread health_thread_;

  /// One live entry per client connection. The fd is kept so Stop can
  /// shutdown(2) it to unblock the handler's read; the handler erases its
  /// own entry on exit (so Stop never touches a recycled fd number) and
  /// parks its thread on finished_handlers_ for joining — a long-running
  /// router holds state only for connections that are still open.
  struct HandlerEntry {
    std::thread thread;
    int fd = -1;
  };
  std::mutex handlers_mutex_;
  std::map<uint64_t, HandlerEntry> handlers_;
  std::vector<std::thread> finished_handlers_;
  uint64_t next_handler_id_ = 0;
};

}  // namespace ncl::net
