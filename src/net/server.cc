#include "net/server.h"

#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "util/logging.h"

namespace ncl::net {

namespace {

/// Registry handles for `ncl.net.*`, resolved once.
struct NetMetrics {
  obs::Counter* connections;
  obs::Gauge* active_connections;
  obs::Counter* bytes_in;
  obs::Counter* bytes_out;
  obs::Counter* requests;
  obs::Counter* responses;
  obs::Counter* decode_errors;
  obs::Gauge* in_flight;
  obs::Counter* drain_requests;
};

const NetMetrics& GetNetMetrics() {
  static const NetMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return NetMetrics{registry.GetCounter("ncl.net.connections"),
                      registry.GetGauge("ncl.net.active_connections"),
                      registry.GetCounter("ncl.net.bytes_in"),
                      registry.GetCounter("ncl.net.bytes_out"),
                      registry.GetCounter("ncl.net.requests"),
                      registry.GetCounter("ncl.net.responses"),
                      registry.GetCounter("ncl.net.decode_errors"),
                      registry.GetGauge("ncl.net.in_flight"),
                      registry.GetCounter("ncl.net.drain_requests")};
  }();
  return metrics;
}

/// A connection stops being read while more than this many reply bytes wait
/// unsent, and resumes once they drain. A client that pipelines requests
/// and never reads its replies is then held back by kernel flow control
/// instead of growing this replica's memory without bound.
constexpr size_t kMaxUnsentReplyBytes = size_t{1} << 20;

}  // namespace

Server::Server(serve::LinkingService* service, serve::TenantRegistry* registry,
               ServerConfig config)
    : service_(service), registry_(registry), config_(std::move(config)) {
  NCL_CHECK(service_ != nullptr);
  NCL_CHECK(registry_ != nullptr);
}

Server::~Server() { Stop(); }

Status Server::Start() {
  NCL_CHECK(!started_.load()) << "Server::Start called twice";
  NCL_ASSIGN_OR_RETURN(listener_, Listen(config_.endpoint, config_.backlog));
  NCL_ASSIGN_OR_RETURN(bound_endpoint_,
                       LocalEndpoint(listener_, config_.endpoint));
  NCL_RETURN_NOT_OK(SetNonBlocking(listener_.get()));

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::IOError(std::string("pipe: ") + std::strerror(errno));
  }
  wakeup_read_ = Fd(pipe_fds[0]);
  wakeup_write_ = Fd(pipe_fds[1]);
  NCL_RETURN_NOT_OK(SetNonBlocking(wakeup_read_.get()));
  NCL_RETURN_NOT_OK(SetNonBlocking(wakeup_write_.get()));

  started_.store(true);
  loop_thread_ = std::thread([this] { EventLoop(); });
  NCL_LOG(Info) << "net::Server listening on " << bound_endpoint_.ToString();
  return Status::OK();
}

void Server::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  if (!started_.load() || stopped_) return;
  stopped_ = true;
  {
    // Under drain_mutex_, so a WaitForDrain between its check and its wait
    // cannot miss the stop.
    std::lock_guard<std::mutex> lock(drain_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  Wakeup();
  drain_cv_.notify_all();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    // Every submitted request calls back exactly once, and a callback is
    // done with this server once it has notified under pending_mutex_.
    std::unique_lock<std::mutex> lock(pending_mutex_);
    in_flight_cv_.wait(lock, [this] { return in_flight_ == 0; });
  }
  if (config_.endpoint.kind == Endpoint::Kind::kUnix) {
    ::unlink(config_.endpoint.path.c_str());
  }
}

void Server::Wakeup() {
  if (!wakeup_write_.valid()) return;
  const char byte = 1;
  // Best-effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(wakeup_write_.get(), &byte, 1);
}

void Server::WaitForDrain() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drain_cv_.wait(lock, [this] { return flushed_ || stopping_.load(); });
}

ServerStats Server::stats() const {
  ServerStats stats;
  stats.connections_accepted = connections_accepted_.load(std::memory_order_relaxed);
  stats.active_connections = active_connections_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.responses = responses_.load(std::memory_order_relaxed);
  stats.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  stats.drain_requests = drain_requests_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(pending_mutex_);
  stats.in_flight = in_flight_;
  return stats;
}

void Server::HandleFrame(Connection* conn, Frame frame) {
  const NetMetrics& metrics = GetNetMetrics();
  const uint64_t correlation_id = frame.header.correlation_id;
  switch (frame.header.type) {
    case MessageType::kLinkRequest: {
      Result<LinkRequestMsg> request = DecodeLinkRequest(frame.body);
      if (!request.ok()) {
        decode_errors_.fetch_add(1, std::memory_order_relaxed);
        metrics.decode_errors->Increment();
        conn->outbox += EncodeErrorResponse(correlation_id, request.status());
        return;
      }
      requests_.fetch_add(1, std::memory_order_relaxed);
      metrics.requests->Increment();
      if (drain_requested()) {
        // Nothing new reaches the service after the drain ack, so the
        // service's Drain() in the loop's epilogue waits on none of ours.
        LinkResponseMsg refused;
        refused.status = Status::Unavailable("replica is draining");
        conn->outbox += EncodeLinkResponse(correlation_id, refused);
        responses_.fetch_add(1, std::memory_order_relaxed);
        metrics.responses->Increment();
        return;
      }
      serve::RequestOptions options;
      // deadline_us was clamped to kMaxDeadlineUs at decode, so this
      // conversion can never feed the service an overflowing duration.
      options.deadline = std::chrono::microseconds(request->deadline_us);
      options.ontology = std::move(request->ontology);
      // Counted before the submit: a refusal calls back before SubmitLink
      // returns.
      {
        std::lock_guard<std::mutex> lock(pending_mutex_);
        ++in_flight_;
      }
      metrics.in_flight->Increment();
      // Runs on the shard that served the request (or here, for a refusal).
      // It names the connection by id, never by pointer: the connection
      // may be gone by then. Whatever touches this server happens under
      // pending_mutex_, which Stop waits on, so no callback outlives it.
      auto done = [this, connection_id = conn->id,
                   correlation_id](serve::LinkResult result) {
        LinkResponseMsg response;
        response.status = std::move(result.status);
        response.snapshot_version = result.snapshot_version;
        response.server_request_id = result.request_id;
        response.timings = result.timings;
        response.candidates = std::move(result.candidates);
        std::string bytes = EncodeLinkResponse(correlation_id, response);
        const NetMetrics& net_metrics = GetNetMetrics();
        net_metrics.responses->Increment();
        net_metrics.in_flight->Add(-1.0);
        std::lock_guard<std::mutex> lock(pending_mutex_);
        pending_writes_.emplace_back(connection_id, std::move(bytes));
        responses_.fetch_add(1, std::memory_order_relaxed);
        --in_flight_;
        Wakeup();
        in_flight_cv_.notify_all();
      };
      // May block under a full kBlock admission queue — intentional: the
      // loop stops reading and the kernel back-pressures every client.
      service_->SubmitLink(std::move(request->tokens), std::move(options),
                           std::move(done));
      return;
    }
    case MessageType::kHealthRequest: {
      HealthResponseMsg health;
      health.state = drain_requested() ? ServerState::kDraining
                                       : ServerState::kServing;
      health.snapshot_version = registry_->max_version();
      conn->outbox += EncodeHealthResponse(correlation_id, health);
      return;
    }
    case MessageType::kStatsRequest: {
      StatsResponseMsg stats_msg;
      stats_msg.stats = service_->stats();
      conn->outbox += EncodeStatsResponse(correlation_id, stats_msg);
      return;
    }
    case MessageType::kDrainRequest: {
      drain_requests_.fetch_add(1, std::memory_order_relaxed);
      metrics.drain_requests->Increment();
      // Acknowledge at once. From here on link requests are refused, and
      // the loop's epilogue drains the service once everything submitted
      // before this point has called back.
      drain_requested_.store(true, std::memory_order_release);
      conn->outbox += EncodeDrainResponse(correlation_id, Status::OK());
      NCL_LOG(Info) << "net::Server drain requested over the wire";
      return;
    }
    default: {
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      metrics.decode_errors->Increment();
      conn->outbox += EncodeErrorResponse(
          correlation_id,
          Status::InvalidArgument(
              "unexpected message type " +
              std::to_string(static_cast<int>(frame.header.type))));
      return;
    }
  }
}

void Server::EventLoop() {
  const NetMetrics& metrics = GetNetMetrics();
  std::vector<pollfd> pollfds;
  std::vector<uint64_t> poll_conn_ids;  // parallel to pollfds, 0 = not a conn
  char read_buf[64 * 1024];

  while (!stopping_.load(std::memory_order_acquire)) {
    pollfds.clear();
    poll_conn_ids.clear();
    pollfds.push_back(pollfd{wakeup_read_.get(), POLLIN, 0});
    poll_conn_ids.push_back(0);
    // Accepting continues through a drain: fresh connections must still be
    // able to ask Health (that is how a router's probe sees kDraining —
    // probes reconnect each sweep) and get a proper Unavailable for link
    // requests, instead of hanging in the backlog.
    pollfds.push_back(pollfd{listener_.get(), POLLIN, 0});
    poll_conn_ids.push_back(0);
    for (auto& [id, conn] : connections_) {
      const size_t unsent = conn->outbox.size() - conn->outbox_sent;
      short events = unsent > kMaxUnsentReplyBytes ? 0 : POLLIN;
      if (unsent > 0) events |= POLLOUT;
      pollfds.push_back(pollfd{conn->fd.get(), events, 0});
      poll_conn_ids.push_back(id);
    }

    int ready = ::poll(pollfds.data(), pollfds.size(), /*timeout_ms=*/100);
    if (ready < 0 && errno != EINTR) {
      NCL_LOG(Error) << "net::Server poll: " << std::strerror(errno);
      break;
    }

    // Empty the wakeup pipe before taking the pending replies: a callback
    // that queues a reply after the take writes a byte this read has not
    // consumed, so the next poll returns at once instead of timing out.
    if (pollfds[0].revents != 0) {
      char drain[256];
      while (::read(wakeup_read_.get(), drain, sizeof(drain)) > 0) {
      }
    }
    // Splice replies encoded by completion callbacks into outboxes.
    {
      std::vector<std::pair<uint64_t, std::string>> writes;
      {
        std::lock_guard<std::mutex> lock(pending_mutex_);
        writes.swap(pending_writes_);
      }
      for (auto& [conn_id, bytes] : writes) {
        auto it = connections_.find(conn_id);
        if (it != connections_.end()) it->second->outbox += bytes;
        // else: the client went away before its response was ready — drop.
      }
    }

    for (size_t i = 0; i < pollfds.size(); ++i) {
      const pollfd& pfd = pollfds[i];
      if (pfd.revents == 0 || pfd.fd == wakeup_read_.get()) continue;
      if (pfd.fd == listener_.get() && poll_conn_ids[i] == 0) {
        for (;;) {
          int client = ::accept(listener_.get(), nullptr, nullptr);
          if (client < 0) break;  // EAGAIN or transient error
          Status status = SetNonBlocking(client);
          if (!status.ok()) {
            NCL_LOG(Warning) << "net::Server accept setup: " << status.ToString();
            ::close(client);
            continue;
          }
          auto conn = std::make_unique<Connection>(config_.max_body_bytes);
          conn->fd = Fd(client);
          conn->id = next_connection_id_++;
          connections_.emplace(conn->id, std::move(conn));
          connections_accepted_.fetch_add(1, std::memory_order_relaxed);
          metrics.connections->Increment();
          active_connections_.store(connections_.size(),
                                    std::memory_order_relaxed);
          metrics.active_connections->Set(
              static_cast<double>(connections_.size()));
        }
        continue;
      }

      auto it = connections_.find(poll_conn_ids[i]);
      if (it == connections_.end()) continue;
      Connection* conn = it->second.get();
      bool close_conn = false;

      if (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Flush what we can if only the read side hung up; a hard error
        // closes immediately below.
        conn->closing = true;
        if (pfd.revents & (POLLERR | POLLNVAL)) close_conn = true;
      }

      if (!close_conn && (pfd.revents & POLLIN)) {
        for (;;) {
          ssize_t n = ::recv(conn->fd.get(), read_buf, sizeof(read_buf), 0);
          if (n > 0) {
            metrics.bytes_in->Increment(static_cast<uint64_t>(n));
            conn->decoder.Append(std::string_view(read_buf, n));
            continue;
          }
          if (n == 0) {
            conn->closing = true;  // peer sent FIN; flush pending responses
            break;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
          close_conn = true;
          break;
        }
        Frame frame;
        Status status;
        while (conn->decoder.Next(&frame, &status)) {
          HandleFrame(conn, std::move(frame));
        }
        if (!status.ok()) {
          // Framing is unrecoverable on a byte stream: log, count, close.
          decode_errors_.fetch_add(1, std::memory_order_relaxed);
          metrics.decode_errors->Increment();
          NCL_LOG(Warning) << "net::Server closing connection " << conn->id
                           << ": " << status.ToString();
          close_conn = true;
        }
      }

      if (!close_conn && (conn->outbox_sent < conn->outbox.size())) {
        for (;;) {
          const size_t remaining = conn->outbox.size() - conn->outbox_sent;
          if (remaining == 0) break;
          ssize_t n = ::send(conn->fd.get(), conn->outbox.data() + conn->outbox_sent,
                             remaining, MSG_NOSIGNAL);
          if (n > 0) {
            metrics.bytes_out->Increment(static_cast<uint64_t>(n));
            conn->outbox_sent += static_cast<size_t>(n);
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
            break;
          }
          close_conn = true;  // EPIPE / reset
          break;
        }
        if (conn->outbox_sent == conn->outbox.size()) {
          conn->outbox.clear();
          conn->outbox_sent = 0;
        }
      }

      if (close_conn ||
          (conn->closing && conn->outbox_sent >= conn->outbox.size())) {
        connections_.erase(it);
        active_connections_.store(connections_.size(), std::memory_order_relaxed);
        metrics.active_connections->Set(static_cast<double>(connections_.size()));
      }
    }

    // Drain epilogue: once every request submitted before the drain ack
    // has called back, the service holds none of ours, so its Drain() only
    // stops the shards. Once every outbox is empty too, the fleet owner may
    // stop us.
    if (drain_requested()) {
      bool all_flushed = false;
      {
        std::lock_guard<std::mutex> lock(pending_mutex_);
        all_flushed = in_flight_ == 0 && pending_writes_.empty();
      }
      if (all_flushed && !drained_) {
        service_->Drain();
        drained_ = true;
        NCL_LOG(Info) << "net::Server service drained";
      }
      if (all_flushed) {
        for (auto& [id, conn] : connections_) {
          if (conn->outbox_sent < conn->outbox.size()) {
            all_flushed = false;
            break;
          }
        }
      }
      if (all_flushed) {
        std::lock_guard<std::mutex> lock(drain_mutex_);
        if (!flushed_) {
          flushed_ = true;
          drain_cv_.notify_all();
        }
      }
    }
  }
  connections_.clear();
  active_connections_.store(0, std::memory_order_relaxed);
  GetNetMetrics().active_connections->Set(0.0);
}

}  // namespace ncl::net
