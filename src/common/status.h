#ifndef SAMYA_COMMON_STATUS_H_
#define SAMYA_COMMON_STATUS_H_

#include <memory>
#include <string>
#include <utility>
#include <variant>

#include "common/macros.h"

namespace samya {

/// Error categories used across the library. Kept deliberately small; the
/// message string carries the specifics.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kResourceExhausted,   ///< acquire rejected: not enough tokens anywhere
  kUnavailable,         ///< site down / partitioned / no quorum
  kTimedOut,
  kAborted,             ///< protocol instance aborted (e.g. superseded ballot)
  kCorruption,          ///< WAL / codec integrity failure
  kInternal,
};

/// \brief Exception-free error type returned by all fallible operations.
///
/// Follows the RocksDB/Abseil idiom: an OK status is one null pointer, so it
/// costs nothing to build, copy or return; an error points to its code and
/// message. Use `Result<T>` when a value is produced on success.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string msg)
      : rep_(code == StatusCode::kOk && msg.empty()
                 ? nullptr
                 : std::make_unique<Rep>(Rep{code, std::move(msg)})) {}
  Status(const Status& other)
      : rep_(other.rep_ == nullptr ? nullptr
                                   : std::make_unique<Rep>(*other.rep_)) {}
  Status& operator=(const Status& other) {
    if (this != &other) *this = Status(other);
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status AlreadyExists(std::string m) {
    return Status(StatusCode::kAlreadyExists, std::move(m));
  }
  static Status ResourceExhausted(std::string m) {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }
  static Status Unavailable(std::string m) {
    return Status(StatusCode::kUnavailable, std::move(m));
  }
  static Status TimedOut(std::string m) {
    return Status(StatusCode::kTimedOut, std::move(m));
  }
  static Status Aborted(std::string m) {
    return Status(StatusCode::kAborted, std::move(m));
  }
  static Status Corruption(std::string m) {
    return Status(StatusCode::kCorruption, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }

  bool ok() const { return code() == StatusCode::kOk; }
  StatusCode code() const {
    return rep_ == nullptr ? StatusCode::kOk : rep_->code;
  }
  const std::string& message() const;

  bool IsResourceExhausted() const {
    return code() == StatusCode::kResourceExhausted;
  }
  bool IsUnavailable() const { return code() == StatusCode::kUnavailable; }
  bool IsTimedOut() const { return code() == StatusCode::kTimedOut; }
  bool IsAborted() const { return code() == StatusCode::kAborted; }
  bool IsCorruption() const { return code() == StatusCode::kCorruption; }

  /// Human-readable "CODE: message" form for logs.
  std::string ToString() const;

 private:
  struct Rep {
    StatusCode code;
    std::string msg;
  };
  std::unique_ptr<Rep> rep_;  // null iff OK with no message
};

/// \brief Value-or-Status, the return type of fallible value-producing calls.
///
/// `Result<T>` is either an engaged value or a non-OK `Status`. Accessing the
/// value of an errored result aborts (programmer error).
template <typename T>
class Result {
 public:
  /* implicit */ Result(T value) : v_(std::move(value)) {}  // NOLINT
  /* implicit */ Result(Status status) : v_(std::move(status)) {  // NOLINT
    SAMYA_CHECK(!std::get<Status>(v_).ok());
  }

  bool ok() const { return std::holds_alternative<T>(v_); }

  const T& value() const& {
    SAMYA_CHECK_MSG(ok(), "%s", status().ToString().c_str());
    return std::get<T>(v_);
  }
  T& value() & {
    SAMYA_CHECK_MSG(ok(), "%s", status().ToString().c_str());
    return std::get<T>(v_);
  }
  T&& value() && {
    SAMYA_CHECK_MSG(ok(), "%s", status().ToString().c_str());
    return std::get<T>(std::move(v_));
  }

  /// Status of the result; OK when a value is present.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(v_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> v_;
};

const char* StatusCodeName(StatusCode code);

}  // namespace samya

#define SAMYA_CONCAT_INNER_(a, b) a##b
#define SAMYA_CONCAT_(a, b) SAMYA_CONCAT_INNER_(a, b)

/// Propagates the error of a `Result<T>` expression, otherwise binds the
/// value to `lhs`.
#define SAMYA_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) return tmp.status();                \
  lhs = std::move(tmp).value()

#define SAMYA_ASSIGN_OR_RETURN(lhs, expr) \
  SAMYA_ASSIGN_OR_RETURN_IMPL_(SAMYA_CONCAT_(_res_, __LINE__), lhs, expr)

#endif  // SAMYA_COMMON_STATUS_H_
