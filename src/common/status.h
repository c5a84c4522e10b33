#pragma once

/// \file status.h
/// Error model for GENIE. Library code reports recoverable failures through
/// `Status` / `Result<T>` rather than exceptions, following the conventions
/// of Arrow and RocksDB. Programming errors (violated preconditions the
/// caller cannot recover from) use GENIE_CHECK which aborts.

#include <cstdint>
#include <string>
#include <utility>

namespace genie {

enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kResourceExhausted,
  kInternal,
  kUnimplemented,
  kIOError,
};

/// Returns a human-readable name for a status code, e.g. "InvalidArgument".
const char* StatusCodeToString(StatusCode code);

/// A success-or-error outcome. Cheap to copy in the OK case (no allocation).
/// [[nodiscard]]: a dropped error is a compile warning (an error under
/// GENIE_WERROR), never a silent success.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message);

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg);
  static Status OutOfRange(std::string msg);
  static Status NotFound(std::string msg);
  static Status AlreadyExists(std::string msg);
  static Status ResourceExhausted(std::string msg);
  static Status Internal(std::string msg);
  static Status Unimplemented(std::string msg);
  static Status IOError(std::string msg);

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

}  // namespace genie

/// Propagates a non-OK Status to the caller.
#define GENIE_RETURN_NOT_OK(expr)                \
  do {                                           \
    ::genie::Status _genie_status = (expr);      \
    if (!_genie_status.ok()) return _genie_status; \
  } while (false)
