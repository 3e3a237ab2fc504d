// Arrow/RocksDB-style Status and Result<T> error handling.
//
// Library code in this repository does not throw exceptions across module
// boundaries; fallible operations return Status (for void results) or
// Result<T> (for value-producing operations). Invariant violations that
// indicate programmer error use NCL_CHECK / NCL_DCHECK from logging.h.

#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace ncl {

/// Error category carried by a non-OK Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kIOError,
  kNotImplemented,
  kInternal,
  kUnavailable,
  kResourceExhausted,
  kDeadlineExceeded,
};

/// \brief Human-readable name of a StatusCode (e.g. "InvalidArgument").
std::string_view StatusCodeToString(StatusCode code);

/// Streams StatusCodeToString(code), so log lines and gtest failure
/// messages name the code instead of printing its bytes.
std::ostream& operator<<(std::ostream& os, StatusCode code);

/// \brief Inverse of StatusCodeToString: parse a code name back to the enum.
///
/// Round-trips every StatusCode (`StatusCodeFromString(StatusCodeToString(c))
/// == c`); unknown names return nullopt. The ncl::net wire error envelope
/// transports codes by name through this pair, so an old binary decoding a
/// frame from a newer one degrades to nullopt instead of aliasing a
/// renumbered enum value.
std::optional<StatusCode> StatusCodeFromString(std::string_view name);

/// \brief Outcome of a fallible operation: a code plus an optional message.
///
/// A default-constructed Status is OK. Statuses are cheap to copy in the OK
/// case (no allocation) and carry a message only when non-OK.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  /// IOError describing a failed file operation: "<action> <path>: <errno
  /// message>". Reads `errno`, so call immediately after the failing stream
  /// or syscall operation.
  static Status IOErrorFromErrno(std::string_view action, std::string_view path);

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// \brief "OK" or "<Code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// \brief Either a value of type T or a non-OK Status.
///
/// Mirrors arrow::Result. Access the value only after checking ok();
/// ValueOrDie aborts (via NCL_CHECK semantics) on error.
template <typename T>
class Result {
 public:
  /* implicit */ Result(T value) : value_(std::move(value)) {}
  /* implicit */ Result(Status status) : status_(std::move(status)) {}

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return std::move(*value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

  /// Returns the value, or `fallback` when this Result holds an error.
  T ValueOr(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_ = Status::OK();
};

}  // namespace ncl

/// Propagate a non-OK Status out of the enclosing function.
#define NCL_RETURN_NOT_OK(expr)                   \
  do {                                            \
    ::ncl::Status _ncl_status = (expr);           \
    if (!_ncl_status.ok()) return _ncl_status;    \
  } while (0)

#define NCL_CONCAT_IMPL(a, b) a##b
#define NCL_CONCAT(a, b) NCL_CONCAT_IMPL(a, b)

/// Evaluate a Result<T>-producing expression; on success bind the value to
/// `lhs`, on failure return the error Status from the enclosing function.
#define NCL_ASSIGN_OR_RETURN(lhs, expr)                               \
  auto NCL_CONCAT(_ncl_result_, __LINE__) = (expr);                   \
  if (!NCL_CONCAT(_ncl_result_, __LINE__).ok())                       \
    return NCL_CONCAT(_ncl_result_, __LINE__).status();               \
  lhs = std::move(NCL_CONCAT(_ncl_result_, __LINE__)).value()
