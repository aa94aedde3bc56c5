#include "common/logging.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common/mutex.h"

namespace sknn {
namespace {

std::atomic<int> g_log_level{-1};
/// Guards no field — serializes whole messages onto std::cerr so two
/// threads' log lines cannot interleave mid-line.
Mutex g_log_mutex;

LogLevel LevelFromEnv() {
  const char* env = std::getenv("SKNN_LOG_LEVEL");
  if (env == nullptr) return LogLevel::kWarning;
  if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(env, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(env, "warning") == 0) return LogLevel::kWarning;
  if (std::strcmp(env, "error") == 0) return LogLevel::kError;
  if (std::strcmp(env, "off") == 0) return LogLevel::kOff;
  return LogLevel::kWarning;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  int v = g_log_level.load(std::memory_order_relaxed);
  if (v < 0) {
    LogLevel from_env = LevelFromEnv();
    g_log_level.store(static_cast<int>(from_env), std::memory_order_relaxed);
    return from_env;
  }
  return static_cast<LogLevel>(v);
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) {
  const char* base = std::strrchr(file, '/');
  stream_ << "[" << LevelName(level) << " " << (base ? base + 1 : file) << ":"
          << line << "] ";
}

LogMessage::~LogMessage() { Flush(); }

void LogMessage::Flush() {
  MutexLock lock(&g_log_mutex);
  std::cerr << stream_.str() << std::endl;
}

FatalLogMessage::~FatalLogMessage() {
  Flush();
  std::abort();
}

}  // namespace internal
}  // namespace sknn
