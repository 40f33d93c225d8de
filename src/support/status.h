// Lightweight status / expected-value error handling for the ROLoad
// libraries. Simulator-internal faults (page faults, traps) are *values*,
// not errors; Status is reserved for genuine API misuse and I/O failures.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace roload {

// Error category for Status. Kept deliberately small: callers branch on
// ok()/!ok() far more often than on the specific code.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kAlreadyExists,
  kInternal,
};

std::string_view StatusCodeName(StatusCode code);

// Value-semantic status object. Cheap to copy when OK (no allocation).
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<code>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// Expected-value wrapper: either a T or a non-OK Status.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {}  // NOLINT
  StatusOr(T value) : value_(std::move(value)) {}          // NOLINT

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return *std::move(value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

// Aborts with a message when `condition` is false. Used for invariants that
// indicate programming errors inside the simulator, never for guest faults.
[[noreturn]] void FatalError(std::string_view message);

#define ROLOAD_CHECK(cond)                                             \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ::roload::FatalError("check failed: " #cond " at " __FILE__);    \
    }                                                                  \
  } while (false)

#define ROLOAD_RETURN_IF_ERROR(expr)         \
  do {                                       \
    ::roload::Status status_ = (expr);       \
    if (!status_.ok()) return status_;       \
  } while (false)

}  // namespace roload
