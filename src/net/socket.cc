#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>

namespace ncl::net {

namespace {

using Clock = std::chrono::steady_clock;

Status ErrnoStatus(const char* action, const std::string& detail) {
  const int err = errno;
  return Status::IOError(std::string(action) + " " + detail + ": " +
                         std::strerror(err) + " (errno " + std::to_string(err) +
                         ")");
}

/// Remaining milliseconds of a deadline started `timeout_ms` ago at `start`
/// (<= 0 timeout = unbounded poll, returned as -1).
int RemainingMs(Clock::time_point start, int timeout_ms) {
  if (timeout_ms <= 0) return -1;
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - start)
          .count();
  const long long remaining = timeout_ms - elapsed;
  return remaining > 0 ? static_cast<int>(remaining) : 0;
}

Result<sockaddr_un> MakeUnixAddr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long (" +
                                   std::to_string(path.size()) + " >= " +
                                   std::to_string(sizeof(addr.sun_path)) +
                                   "): " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Clears the way for a listener at a Unix-socket path. Only a stale socket
/// (one nothing accepts on, as a crashed replica leaves behind) is
/// unlinked; a live listener's socket, or anything that is not a socket,
/// is left alone and fails AlreadyExists.
Status ReclaimUnixPath(const Endpoint& endpoint, const sockaddr_un& addr) {
  struct stat st {};
  if (::lstat(endpoint.path.c_str(), &st) != 0) {
    if (errno == ENOENT) return Status::OK();
    return ErrnoStatus("lstat", endpoint.ToString());
  }
  if (!S_ISSOCK(st.st_mode)) {
    return Status::AlreadyExists(endpoint.ToString() +
                                 " exists and is not a socket");
  }
  Fd probe(::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (!probe.valid()) return ErrnoStatus("socket for", endpoint.ToString());
  if (::connect(probe.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) == 0 ||
      errno != ECONNREFUSED) {
    return Status::AlreadyExists("a listener is live on " +
                                 endpoint.ToString());
  }
  ::unlink(endpoint.path.c_str());
  return Status::OK();
}

Result<sockaddr_in> MakeTcpAddr(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  // Dotted-quad only: the fleet topology names replicas by address, and
  // avoiding getaddrinfo keeps connect timeouts honest.
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  return addr;
}

}  // namespace

void Fd::Close() {
  if (fd_ >= 0) {
    // Exactly one close, EINTR included: on Linux the descriptor is released
    // even when close is interrupted, so a retry could close an unrelated fd
    // that another thread was just handed the same number for.
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Endpoint> Endpoint::Parse(std::string_view spec) {
  Endpoint endpoint;
  if (spec.rfind("unix:", 0) == 0) {
    endpoint.kind = Kind::kUnix;
    endpoint.path = std::string(spec.substr(5));
    if (endpoint.path.empty()) {
      return Status::InvalidArgument("empty unix socket path in '" +
                                     std::string(spec) + "'");
    }
    return endpoint;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    std::string_view rest = spec.substr(4);
    size_t colon = rest.rfind(':');
    if (colon == std::string_view::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      return Status::InvalidArgument("expected tcp:<host>:<port>, got '" +
                                     std::string(spec) + "'");
    }
    endpoint.kind = Kind::kTcp;
    endpoint.host = std::string(rest.substr(0, colon));
    int port = 0;
    for (char c : rest.substr(colon + 1)) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument("non-numeric port in '" +
                                       std::string(spec) + "'");
      }
      port = port * 10 + (c - '0');
      if (port > 65535) {
        return Status::InvalidArgument("port out of range in '" +
                                       std::string(spec) + "'");
      }
    }
    endpoint.port = static_cast<uint16_t>(port);
    return endpoint;
  }
  return Status::InvalidArgument(
      "endpoint must start with tcp: or unix:, got '" + std::string(spec) + "'");
}

std::string Endpoint::ToString() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Result<Fd> Listen(const Endpoint& endpoint, int backlog) {
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    NCL_ASSIGN_OR_RETURN(sockaddr_un addr, MakeUnixAddr(endpoint.path));
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) return ErrnoStatus("socket for", endpoint.ToString());
    NCL_RETURN_NOT_OK(ReclaimUnixPath(endpoint, addr));
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return ErrnoStatus("bind", endpoint.ToString());
    }
    if (::listen(fd.get(), backlog) != 0) {
      return ErrnoStatus("listen on", endpoint.ToString());
    }
    return fd;
  }
  NCL_ASSIGN_OR_RETURN(sockaddr_in addr, MakeTcpAddr(endpoint.host, endpoint.port));
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket for", endpoint.ToString());
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return ErrnoStatus("bind", endpoint.ToString());
  }
  if (::listen(fd.get(), backlog) != 0) {
    return ErrnoStatus("listen on", endpoint.ToString());
  }
  return fd;
}

Result<Endpoint> LocalEndpoint(const Fd& listener, const Endpoint& requested) {
  if (requested.kind == Endpoint::Kind::kUnix) return requested;
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(listener.get(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return ErrnoStatus("getsockname on", requested.ToString());
  }
  Endpoint bound = requested;
  bound.port = ntohs(addr.sin_port);
  return bound;
}

Result<Fd> Connect(const Endpoint& endpoint, int timeout_ms) {
  Fd fd;
  sockaddr_storage storage{};
  socklen_t addr_len = 0;
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    NCL_ASSIGN_OR_RETURN(sockaddr_un addr, MakeUnixAddr(endpoint.path));
    fd = Fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    std::memcpy(&storage, &addr, sizeof(addr));
    addr_len = sizeof(addr);
  } else {
    NCL_ASSIGN_OR_RETURN(sockaddr_in addr,
                         MakeTcpAddr(endpoint.host, endpoint.port));
    fd = Fd(::socket(AF_INET, SOCK_STREAM, 0));
    std::memcpy(&storage, &addr, sizeof(addr));
    addr_len = sizeof(addr);
  }
  if (!fd.valid()) return ErrnoStatus("socket for", endpoint.ToString());
  NCL_RETURN_NOT_OK(SetNonBlocking(fd.get()));

  int rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&storage), addr_len);
  if (rc != 0 && errno != EINPROGRESS) {
    // Connection refused &co. map to Unavailable: the peer is down, which
    // is the retryable condition clients and the router key on.
    const int err = errno;
    return Status::Unavailable("connect " + endpoint.ToString() + ": " +
                               std::strerror(err));
  }
  if (rc != 0) {
    pollfd pfd{fd.get(), POLLOUT, 0};
    int ready;
    do {
      ready = ::poll(&pfd, 1, timeout_ms <= 0 ? -1 : timeout_ms);
    } while (ready < 0 && errno == EINTR);
    if (ready == 0) {
      return Status::DeadlineExceeded("connect " + endpoint.ToString() +
                                      " timed out after " +
                                      std::to_string(timeout_ms) + "ms");
    }
    if (ready < 0) return ErrnoStatus("poll connecting to", endpoint.ToString());
    int err = 0;
    socklen_t err_len = sizeof(err);
    ::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &err_len);
    if (err != 0) {
      return Status::Unavailable("connect " + endpoint.ToString() + ": " +
                                 std::strerror(err));
    }
  }
  // Back to blocking: callers use poll-bounded SendAll/RecvExactly.
  int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0 ||
      ::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK) < 0) {
    return ErrnoStatus("fcntl on", endpoint.ToString());
  }
  if (endpoint.kind == Endpoint::Kind::kTcp) {
    int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

Status SendAll(int fd, std::string_view data, int timeout_ms) {
  const auto start = Clock::now();
  size_t sent = 0;
  while (sent < data.size()) {
    pollfd pfd{fd, POLLOUT, 0};
    int ready;
    do {
      ready = ::poll(&pfd, 1, RemainingMs(start, timeout_ms));
    } while (ready < 0 && errno == EINTR);
    if (ready == 0) {
      return Status::DeadlineExceeded("send timed out after " +
                                      std::to_string(timeout_ms) + "ms");
    }
    if (ready < 0) return ErrnoStatus("poll for", "send");
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::Unavailable("peer closed the connection during send");
      }
      return ErrnoStatus("send on", "fd " + std::to_string(fd));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status RecvExactly(int fd, size_t size, std::string* out, int timeout_ms) {
  const auto start = Clock::now();
  const size_t base = out->size();
  out->resize(base + size);
  size_t received = 0;
  while (received < size) {
    pollfd pfd{fd, POLLIN, 0};
    int ready;
    do {
      ready = ::poll(&pfd, 1, RemainingMs(start, timeout_ms));
    } while (ready < 0 && errno == EINTR);
    if (ready == 0) {
      out->resize(base + received);
      return Status::DeadlineExceeded("recv timed out after " +
                                      std::to_string(timeout_ms) + "ms");
    }
    if (ready < 0) {
      out->resize(base + received);
      return ErrnoStatus("poll for", "recv");
    }
    const ssize_t n =
        ::recv(fd, out->data() + base + received, size - received, 0);
    if (n == 0) {
      out->resize(base + received);
      return Status::Unavailable("peer closed the connection during recv");
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      out->resize(base + received);
      if (errno == ECONNRESET) {
        return Status::Unavailable("connection reset during recv");
      }
      return ErrnoStatus("recv on", "fd " + std::to_string(fd));
    }
    received += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoStatus("fcntl O_NONBLOCK on", "fd " + std::to_string(fd));
  }
  return Status::OK();
}

}  // namespace ncl::net
