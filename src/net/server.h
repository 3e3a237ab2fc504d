// net::Server — the transport that turns a LinkingService into a network
// replica.
//
// One thread, a poll(2) event loop, owns the listener and every connection:
// it accepts, reads, decodes frames (net/wire.h) and writes buffered
// responses; it never scores. Link requests go to LinkingService::SubmitLink
// with a completion callback — the wire deadline_us field becomes
// RequestOptions::deadline, so admission control, micro-batching and
// deadline enforcement are exactly the in-process semantics. The callback
// runs on the shard that served the request (on the loop, for a refusal at
// admission), encodes the LinkResponse, queues it under the connection's id
// and wakes the loop through a pipe, so replies leave in completion order
// and a slow request holds back no other reply. Health, Stats and Drain
// frames are answered inline on the loop.
//
// Backpressure: `ncl serve-net` has no policy flag and always runs kBlock,
// which blocks SubmitLink on the loop until the admission queue has space:
// the server stops reading, and TCP/UDS flow control pushes back on every
// client (the wire analogue of a blocked in-process submitter). A program
// that builds its service with kReject or kShedOldest fails fast instead,
// with ResourceExhausted or Unavailable intact in the response. A
// connection whose unsent replies pass 1 MiB is not read again until they
// drain, so a client that pipelines requests and never reads is held back
// the same way.
//
// Drain: a kDrainRequest is acknowledged at once and health flips to
// kDraining, so a router stops routing here; the loop answers later link
// requests with Unavailable itself. Once every earlier request has called
// back, the loop runs LinkingService::Drain(), which then holds none of
// ours, and once every reply has left its outbox WaitForDrain() returns.
// This is the per-replica half of zero-downtime rollout: drain, restart with
// the new model (the TenantRegistry publish flow), health flips back to
// kServing, the router re-adds the replica.
//
// Observability (`ncl.net.*`): connections / active_connections,
// bytes_in / bytes_out, requests / responses, decode_errors, in_flight,
// drain_requests.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"
#include "serve/linking_service.h"
#include "serve/model_snapshot.h"
#include "util/status.h"

namespace ncl::net {

struct ServerConfig {
  Endpoint endpoint;
  /// Frames announcing a larger body are rejected and the connection closed.
  uint32_t max_body_bytes = kDefaultMaxBodyBytes;
  /// listen(2) backlog.
  int backlog = 64;
};

/// Point-in-time transport counters (per instance; the same events also
/// feed the global `ncl.net.*` metrics).
struct ServerStats {
  uint64_t connections_accepted = 0;
  size_t active_connections = 0;
  uint64_t requests = 0;        ///< link requests decoded
  uint64_t responses = 0;       ///< link responses written out
  uint64_t decode_errors = 0;   ///< malformed frames / bodies
  size_t in_flight = 0;         ///< submitted, response not yet encoded
  uint64_t drain_requests = 0;
};

/// \brief Serves one LinkingService over TCP or a Unix-domain socket.
///
/// The service may host one model or a whole TenantRegistry of them — the
/// wire request's ontology field rides into RequestOptions::ontology
/// unchanged, so one replica serves every tenant the registry holds.
class Server {
 public:
  /// `service` and `registry` must outlive the server. The registry is only
  /// read for the health response's snapshot version (the newest live
  /// version across tenants).
  Server(serve::LinkingService* service, serve::TenantRegistry* registry,
         ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen and start the event loop. Fails if the endpoint is bad or
  /// already bound; idempotence is not supported (one Start per instance).
  Status Start();

  /// Stop accepting and reading, close every connection and join the loop,
  /// then wait until every submitted request has called back (the service
  /// must still be serving them). Idempotent. Does not stop the service.
  void Stop();

  /// Block until a wire Drain has been requested *and* the service finished
  /// draining *and* every in-flight response has been flushed to its socket.
  /// serve-net uses this to exit cleanly after a remote drain.
  void WaitForDrain();

  /// True once a kDrainRequest has been seen (health reports kDraining).
  bool drain_requested() const {
    return drain_requested_.load(std::memory_order_acquire);
  }

  /// The endpoint actually bound (ephemeral TCP ports resolved). Valid
  /// after a successful Start.
  const Endpoint& bound_endpoint() const { return bound_endpoint_; }

  ServerStats stats() const;

 private:
  struct Connection {
    Fd fd;
    uint64_t id = 0;
    FrameDecoder decoder;
    std::string outbox;      ///< encoded responses awaiting POLLOUT
    size_t outbox_sent = 0;  ///< prefix of outbox already written
    bool closing = false;    ///< close once the outbox flushes
    explicit Connection(uint32_t max_body) : decoder(max_body) {}
  };

  void EventLoop();
  void HandleFrame(Connection* conn, Frame frame);
  void Wakeup();

  serve::LinkingService* service_;
  serve::TenantRegistry* registry_;
  const ServerConfig config_;
  Endpoint bound_endpoint_;

  Fd listener_;
  Fd wakeup_read_;
  Fd wakeup_write_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::mutex stop_mutex_;  ///< serialises Stop/destructor
  bool stopped_ = false;   ///< guarded by stop_mutex_

  /// Replies encoded by completion callbacks, keyed by connection id and
  /// spliced into outboxes by the event loop after a wakeup; `in_flight_`
  /// counts link requests submitted and not yet called back.
  mutable std::mutex pending_mutex_;
  std::condition_variable in_flight_cv_;  ///< Stop: in_flight_ reached 0
  std::vector<std::pair<uint64_t, std::string>> pending_writes_;
  size_t in_flight_ = 0;

  /// Drain state machine: requested (wire) -> drained (service; loop-only
  /// state) -> flushed (all responses on the wire).
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  std::atomic<bool> drain_requested_{false};
  bool drained_ = false;
  bool flushed_ = false;

  /// Per-instance counters (event loop thread + completion callbacks).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<size_t> active_connections_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> responses_{0};
  std::atomic<uint64_t> decode_errors_{0};
  std::atomic<uint64_t> drain_requests_{0};

  std::thread loop_thread_;

  /// Event-loop-private connection table (id -> connection). Ids are
  /// monotonic so a recycled fd never aliases a stale pending write.
  std::map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_connection_id_ = 1;
};

}  // namespace ncl::net
