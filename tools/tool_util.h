// Tiny --flag=value / --flag value parser shared by the CLI tools (each
// tool names the flags it knows; any other flag exits 2), plus
// defensive numeric parsing: a malformed flag value ("--port abc", an
// out-of-range count, trailing garbage) prints the offending flag and the
// tool's usage string and exits 2 — it never throws out of std::sto* and
// aborts the process. Also the servers' shared SIGINT/SIGTERM machinery
// (InstallShutdownHandler, ServeUntilDone): a signal requests a clean
// unbind-and-drain instead of killing the process mid-response.
#ifndef SKNN_TOOLS_TOOL_UTIL_H_
#define SKNN_TOOLS_TOOL_UTIL_H_

#include <algorithm>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/types.h"
#include "net/rpc_listener.h"

namespace sknn {
namespace tools {

/// \brief Flags in command-line order, repeats preserved — for flags that
/// may legitimately appear many times (sknn_c1_server --table). `known` is
/// the tool's full flag list: any other flag (a typo, or one the tool does
/// not have) prints "unknown flag --x" and the usage and exits 2, so a
/// misspelt flag never silently changes what a deployment runs.
inline std::vector<std::pair<std::string, std::string>> ParseFlagList(
    int argc, char** argv, std::initializer_list<std::string_view> known,
    const char* usage) {
  std::vector<std::pair<std::string, std::string>> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument '%s'\nusage: %s\n",
                   arg.c_str(), usage);
      std::exit(2);
    }
    std::string key = arg.substr(2);
    std::string value = "true";
    std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      std::fprintf(stderr, "unknown flag --%s\nusage: %s\n", key.c_str(),
                   usage);
      std::exit(2);
    }
    flags.emplace_back(std::move(key), std::move(value));
  }
  return flags;
}

inline std::map<std::string, std::string> ParseFlags(
    int argc, char** argv, std::initializer_list<std::string_view> known,
    const char* usage) {
  std::map<std::string, std::string> flags;
  for (auto& [key, value] : ParseFlagList(argc, argv, known, usage)) {
    flags[key] = value;  // last occurrence wins
  }
  return flags;
}

/// \brief Every value a repeated flag was given, command-line order.
inline std::vector<std::string> FlagValues(
    const std::vector<std::pair<std::string, std::string>>& flags,
    const std::string& name) {
  std::vector<std::string> values;
  for (const auto& [key, value] : flags) {
    if (key == name) values.push_back(value);
  }
  return values;
}

// -- Clean shutdown on SIGINT/SIGTERM ---------------------------------------
//
// The standing servers must drain on a signal, not vanish: unbind the
// listener (no new connections), let in-flight handlers finish, exit 0 —
// so scripted deployments (scripts/smoke_deploy.sh) can `kill -TERM` and
// `wait` for a real exit code instead of kill-and-hope.
//
// Mechanics: the handler only sets a flag (async-signal-safe); each
// server's main thread polls it (ShutdownRequested) and then shuts its
// listener down, which closes the port and drains the sessions. A second
// signal during a stubborn drain restores the default disposition, so
// repeated Ctrl-C still kills.

inline volatile std::sig_atomic_t g_shutdown_requested = 0;

inline void ShutdownSignalHandler(int signum) {
  if (g_shutdown_requested) {
    std::signal(signum, SIG_DFL);
    std::raise(signum);
    return;
  }
  g_shutdown_requested = 1;
}

/// \brief Routes SIGINT and SIGTERM into the drain path.
inline void InstallShutdownHandler() {
  struct sigaction sa = {};
  sa.sa_handler = ShutdownSignalHandler;
  sigemptyset(&sa.sa_mask);
  // Interrupted calls restart: the accept thread's accept(2) must not fail
  // with EINTR just because the signal landed on its thread.
  sa.sa_flags = SA_RESTART;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

inline bool ShutdownRequested() { return g_shutdown_requested != 0; }

/// \brief Serves `listener` until SIGINT/SIGTERM or, when `connections` >=
/// 0 (the servers' --connections), until that many links were accepted and
/// all of them have closed; then shuts it down. `link` names one link in
/// the closing line.
inline void ServeUntilDone(RpcListener& listener, int64_t connections,
                           const char* link) {
  while (!ShutdownRequested() &&
         (connections < 0 ||
          listener.accepted() < static_cast<uint64_t>(connections) ||
          listener.live() > 0)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  listener.Shutdown();
  std::printf("served %llu %s(s)%s; shut down\n",
              static_cast<unsigned long long>(listener.accepted()), link,
              ShutdownRequested() ? ", drained on signal" : "");
}

inline std::string RequireFlag(const std::map<std::string, std::string>& flags,
                               const std::string& name, const char* usage) {
  auto it = flags.find(name);
  if (it == flags.end()) {
    std::fprintf(stderr, "missing --%s\nusage: %s\n", name.c_str(), usage);
    std::exit(2);
  }
  return it->second;
}

inline std::string FlagOr(const std::map<std::string, std::string>& flags,
                          const std::string& name, const std::string& def) {
  auto it = flags.find(name);
  return it == flags.end() ? def : it->second;
}

[[noreturn]] inline void DieBadFlag(const std::string& name,
                                    const std::string& value,
                                    const char* usage) {
  std::fprintf(stderr, "bad value '%s' for --%s\nusage: %s\n", value.c_str(),
               name.c_str(), usage);
  std::exit(2);
}

/// \brief Strict whole-string signed parse of a flag value; dies with the
/// usage string on garbage, partial parses, or values outside [min, max].
inline int64_t ParseInt64OrDie(const std::string& value,
                               const std::string& name, const char* usage,
                               int64_t min = INT64_MIN,
                               int64_t max = INT64_MAX) {
  int64_t out = 0;
  const char* begin = value.data();
  const char* end = begin + value.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc() || ptr != end || out < min || out > max) {
    DieBadFlag(name, value, usage);
  }
  return out;
}

/// \brief Unsigned counterpart of ParseInt64OrDie (rejects '-').
inline uint64_t ParseUint64OrDie(const std::string& value,
                                 const std::string& name, const char* usage,
                                 uint64_t min = 0, uint64_t max = UINT64_MAX) {
  uint64_t out = 0;
  const char* begin = value.data();
  const char* end = begin + value.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc() || ptr != end || out < min || out > max) {
    DieBadFlag(name, value, usage);
  }
  return out;
}

/// \brief A TCP port flag: 0 (= pick an ephemeral port) through 65535.
inline uint16_t ParsePortOrDie(const std::string& value,
                               const std::string& name, const char* usage) {
  return static_cast<uint16_t>(ParseUint64OrDie(value, name, usage, 0, 65535));
}

/// \brief "1,2,3" -> {1, 2, 3}; dies with the usage string on any malformed
/// cell ("1,,3", "1,x") instead of throwing out of std::stoll.
inline PlainRecord ParseRecord(const std::string& text, const char* usage) {
  PlainRecord out;
  std::stringstream ss(text);
  std::string cell;
  while (std::getline(ss, cell, ',')) {
    out.push_back(ParseInt64OrDie(cell, "query", usage));
  }
  if (out.empty()) DieBadFlag("query", text, usage);
  return out;
}

}  // namespace tools
}  // namespace sknn

#endif  // SKNN_TOOLS_TOOL_UTIL_H_
