#include "util/status.h"

#include <cerrno>
#include <cstring>
#include <ostream>

namespace ncl {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kNotImplemented:
      return "NotImplemented";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
  }
  return "Unknown";
}

std::ostream& operator<<(std::ostream& os, StatusCode code) {
  return os << StatusCodeToString(code);
}

std::optional<StatusCode> StatusCodeFromString(std::string_view name) {
  // The table mirrors StatusCodeToString; the round trip over every code is
  // pinned by status_test.
  static constexpr StatusCode kCodes[] = {
      StatusCode::kOk,
      StatusCode::kInvalidArgument,
      StatusCode::kNotFound,
      StatusCode::kAlreadyExists,
      StatusCode::kOutOfRange,
      StatusCode::kFailedPrecondition,
      StatusCode::kIOError,
      StatusCode::kNotImplemented,
      StatusCode::kInternal,
      StatusCode::kUnavailable,
      StatusCode::kResourceExhausted,
      StatusCode::kDeadlineExceeded,
  };
  for (StatusCode code : kCodes) {
    if (StatusCodeToString(code) == name) return code;
  }
  return std::nullopt;
}

Status Status::IOErrorFromErrno(std::string_view action,
                                std::string_view path) {
  const int err = errno;
  std::string message(action);
  message += " ";
  message += path;
  message += ": ";
  // ofstream failures do not always set errno; name the ambiguity rather
  // than inventing a cause.
  message += err != 0 ? std::strerror(err) : "unknown I/O error (errno not set)";
  if (err != 0) {
    message += " (errno " + std::to_string(err) + ")";
  }
  return Status(StatusCode::kIOError, std::move(message));
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeToString(code_));
  out += ": ";
  out += message_;
  return out;
}

}  // namespace ncl
