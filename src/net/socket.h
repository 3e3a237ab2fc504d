// Thin POSIX socket helpers for ncl::net: RAII fds, TCP and Unix-domain
// listeners/connectors with timeouts, and endpoint specs.
//
// Endpoints are spelled as strings so CLI flags, configs and logs agree:
//
//     tcp:<host>:<port>     e.g. tcp:127.0.0.1:7070  (port 0 = ephemeral)
//     unix:<path>           e.g. unix:/tmp/ncl.sock
//
// All helpers return Status/Result instead of throwing; EINTR is retried
// internally.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "util/status.h"

namespace ncl::net {

/// \brief Owning file descriptor (closes on destruction, move-only).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { Close(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.release();
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void Close();

 private:
  int fd_ = -1;
};

/// \brief A parsed listen/connect address.
struct Endpoint {
  enum class Kind { kTcp, kUnix };
  Kind kind = Kind::kTcp;
  std::string host;    ///< kTcp
  uint16_t port = 0;   ///< kTcp (0 = ephemeral when listening)
  std::string path;    ///< kUnix

  /// Parse "tcp:host:port" or "unix:/path".
  static Result<Endpoint> Parse(std::string_view spec);

  /// The canonical spec string ("tcp:127.0.0.1:7070", "unix:/tmp/a.sock").
  std::string ToString() const;
};

/// Bind + listen on `endpoint`. For TCP the socket gets SO_REUSEADDR. For
/// UDS a stale socket file at `path` (one no listener accepts on) is
/// unlinked first; a live listener's socket or a file that is not a socket
/// fails AlreadyExists and is left untouched. `backlog` is the listen(2)
/// backlog.
Result<Fd> Listen(const Endpoint& endpoint, int backlog = 64);

/// The endpoint a listener is actually bound to — resolves an ephemeral
/// TCP port (tcp:host:0) to the kernel-assigned one.
Result<Endpoint> LocalEndpoint(const Fd& listener, const Endpoint& requested);

/// Connect with a timeout (non-blocking connect + poll). The returned fd is
/// back in blocking mode.
Result<Fd> Connect(const Endpoint& endpoint, int timeout_ms);

/// Write all of `data`, retrying partial writes; `timeout_ms` bounds the
/// total wall time (<= 0 = no bound). Fails Unavailable when the peer has
/// closed, DeadlineExceeded on timeout.
Status SendAll(int fd, std::string_view data, int timeout_ms);

/// Read exactly `size` bytes into `out` (appended). Fails Unavailable on
/// EOF, DeadlineExceeded on timeout.
Status RecvExactly(int fd, size_t size, std::string* out, int timeout_ms);

/// Mark `fd` non-blocking (used by the server's event loop).
Status SetNonBlocking(int fd);

}  // namespace ncl::net
