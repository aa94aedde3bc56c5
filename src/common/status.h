// Lightweight Status / Result<T> error-handling vocabulary, modeled after the
// Arrow/Abseil convention: fallible functions return Status (or Result<T>)
// instead of throwing. Protocol code uses SKNN_RETURN_NOT_OK to propagate.
#ifndef SKNN_COMMON_STATUS_H_
#define SKNN_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace sknn {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kProtocolError,
  kCryptoError,
  kIoError,
  kNotFound,
  /// A bounded resource (e.g. a serving front end's in-flight admission
  /// budget) is full; the request was rejected, not failed — retrying later
  /// is expected to succeed.
  kResourceExhausted,
  /// A required peer (e.g. a shard worker of a sharded front end) is dead or
  /// unreachable: the call failed at the transport, not the protocol, layer.
  /// Retrying may succeed once the peer recovers — but unlike
  /// kResourceExhausted it is not *expected* to.
  kUnavailable,
  /// The caller's deadline elapsed before the operation completed: a peer
  /// is alive but too slow (a hung worker, an overloaded link). Retrying —
  /// ideally against a different replica — may succeed.
  kDeadlineExceeded,
  /// Authentication required or failed, or the presented credential lacks
  /// access (bad API key, exhausted per-key quota is kResourceExhausted, a
  /// revoked key is this). Retrying cannot help — fix the credential.
  kPermissionDenied,
};

/// \brief The highest defined code: a code read off the wire above it is
/// unknown. Keep it the enum's last member.
constexpr StatusCode kLastStatusCode = StatusCode::kPermissionDenied;

/// \brief Returns a human-readable name for a status code ("InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// \brief Success-or-error outcome of an operation.
///
/// A default-constructed Status is OK. Error statuses carry a code and a
/// message. Status is cheap to copy in the OK case (no allocation).
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ProtocolError(std::string msg) {
    return Status(StatusCode::kProtocolError, std::move(msg));
  }
  static Status CryptoError(std::string msg) {
    return Status(StatusCode::kCryptoError, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status PermissionDenied(std::string msg) {
    return Status(StatusCode::kPermissionDenied, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// \brief "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// \brief Either a value of type T or an error Status.
///
/// Accessing the value of an errored Result aborts in debug builds; callers
/// must check ok() (or use SKNN_ASSIGN_OR_RETURN).
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace sknn

#define SKNN_RETURN_NOT_OK(expr)             \
  do {                                       \
    ::sknn::Status _st = (expr);             \
    if (!_st.ok()) return _st;               \
  } while (false)

#define SKNN_CONCAT_IMPL(a, b) a##b
#define SKNN_CONCAT(a, b) SKNN_CONCAT_IMPL(a, b)

#define SKNN_ASSIGN_OR_RETURN_IMPL(result_name, lhs, expr) \
  auto result_name = (expr);                               \
  if (!result_name.ok()) return result_name.status();      \
  lhs = std::move(result_name).value()

/// Evaluates an expression returning Result<T>; on error propagates the
/// Status, otherwise assigns the value to `lhs` (which may be a declaration).
#define SKNN_ASSIGN_OR_RETURN(lhs, expr) \
  SKNN_ASSIGN_OR_RETURN_IMPL(SKNN_CONCAT(_res_, __LINE__), lhs, expr)

#endif  // SKNN_COMMON_STATUS_H_
