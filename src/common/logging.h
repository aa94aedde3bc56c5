// Minimal leveled logger. Protocol and benchmark code logs through this so
// verbosity is controlled in one place (SKNN_LOG_LEVEL env or SetLogLevel).
#ifndef SKNN_COMMON_LOGGING_H_
#define SKNN_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace sknn {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kOff = 4,
};

/// \brief Sets the global minimum level that is actually emitted.
void SetLogLevel(LogLevel level);

/// \brief Current global log level (initialized from SKNN_LOG_LEVEL, default
/// Warning so tests and benches stay quiet).
LogLevel GetLogLevel();

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 protected:
  /// Writes the message to std::cerr as one line.
  void Flush();

 private:
  std::ostringstream stream_;
};

/// \brief SKNN_CHECK's message: a broken internal invariant. Logs at error
/// level, flushes, and aborts — carrying on would act on state the code
/// has just proven wrong (e.g. write past the end of a buffer).
class FatalLogMessage : public LogMessage {
 public:
  FatalLogMessage(const char* file, int line)
      : LogMessage(LogLevel::kError, file, line) {}
  [[noreturn]] ~FatalLogMessage();
};

}  // namespace internal
}  // namespace sknn

#define SKNN_LOG(level)                                               \
  if (static_cast<int>(::sknn::LogLevel::k##level) <                  \
      static_cast<int>(::sknn::GetLogLevel())) {                      \
  } else                                                              \
    ::sknn::internal::LogMessage(::sknn::LogLevel::k##level, __FILE__, \
                                 __LINE__)

/// Aborts the process, whatever the log level, when `cond` is false. For
/// internal invariants only: a condition a peer or a user can make false
/// must be a Status instead.
#define SKNN_CHECK(cond)                                      \
  if (cond) {                                                 \
  } else                                                      \
    ::sknn::internal::FatalLogMessage(__FILE__, __LINE__)     \
        << "Check failed: " #cond " "

#endif  // SKNN_COMMON_LOGGING_H_
