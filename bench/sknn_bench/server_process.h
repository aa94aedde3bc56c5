// The server processes a benchmark run stands up, and their lifecycle:
// spawn with output captured to a log file, wait (bounded) for the port the
// server prints, read its CPU time from /proc, and stop it with SIGTERM +
// waitpid, requiring exit code 0. A server that exits on its own before it
// is stopped fails the run.
//
// Orphans are impossible by construction: every child is spawned with
// PR_SET_PDEATHSIG, so it is killed if the harness dies, and SIGINT/SIGTERM
// to the harness forward SIGTERM to every live child (the run then tears
// down normally and exits non-zero without a result).
#ifndef SKNN_BENCH_SKNN_BENCH_SERVER_PROCESS_H_
#define SKNN_BENCH_SKNN_BENCH_SERVER_PROCESS_H_

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace sknn {
namespace bench {

inline std::atomic<bool> g_interrupted{false};
/// Live children, for the signal handler (lock-free atomics only).
inline std::array<std::atomic<pid_t>, 8> g_children{};

inline void OnInterrupt(int) {
  g_interrupted.store(true);
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGTERM);
  }
}

inline void InstallInterruptHandler() {
  struct sigaction sa = {};
  sa.sa_handler = OnInterrupt;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

class ServerProcess {
 public:
  /// \brief fork + exec `binary args...` with stdout and stderr appended to
  /// `log_path`. Call from the main thread: the death signal is tied to
  /// the thread that forks.
  static Result<std::unique_ptr<ServerProcess>> Spawn(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& log_path) {
    std::vector<std::string> store = {binary};
    store.insert(store.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& s : store) argv.push_back(s.data());
    argv.push_back(nullptr);
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
    const int null_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (log_fd < 0 || null_fd < 0) {
      if (log_fd >= 0) ::close(log_fd);
      if (null_fd >= 0) ::close(null_fd);
      return Status::IoError("cannot open " + log_path);
    }
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Only async-signal-safe calls between fork and exec.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(null_fd, 0);
      ::dup2(log_fd, 1);
      ::dup2(log_fd, 2);
      ::close_range(3, ~0U, 0);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(log_fd);
    ::close(null_fd);
    if (pid < 0) return Status::IoError("fork failed for " + binary);
    auto proc = std::unique_ptr<ServerProcess>(
        new ServerProcess(pid, binary.substr(binary.rfind('/') + 1),
                          log_path));
    for (std::size_t i = 0; i < g_children.size(); ++i) {
      pid_t empty = 0;
      if (g_children[i].compare_exchange_strong(empty, pid)) {
        proc->slot_ = static_cast<int>(i);
        break;
      }
    }
    if (g_interrupted.load()) ::kill(pid, SIGTERM);
    return proc;
  }

  ~ServerProcess() {
    if (!reaped_) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    Release();
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  const std::string& name() const { return name_; }

  /// \brief False once the process has exited (and reaps it).
  bool Running() {
    if (reaped_) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      reaped_ = true;
      status_ = status;
      Release();
    }
    return !reaped_;
  }

  /// \brief The port from the server's "serving on 127.0.0.1:<port>" line.
  Result<uint16_t> AwaitPort(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    const std::string marker = "serving on 127.0.0.1:";
    for (;;) {
      const std::string log = Log();
      const std::size_t at = log.find(marker);
      if (at != std::string::npos) {
        unsigned port = 0;
        std::size_t i = at + marker.size();
        while (i < log.size() && log[i] >= '0' && log[i] <= '9' &&
               port <= 65535) {
          port = port * 10 + static_cast<unsigned>(log[i++] - '0');
        }
        if (port > 0 && port <= 65535) return static_cast<uint16_t>(port);
      }
      if (!Running()) {
        return Status::Unavailable(name_ + " exited before listening:\n" +
                                   log);
      }
      if (g_interrupted.load()) return Status::Unavailable("interrupted");
      if (std::chrono::steady_clock::now() > deadline) {
        return Status::DeadlineExceeded(name_ + " did not listen in time");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  /// \brief User + system CPU seconds the process has used so far.
  double CpuSeconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) return 0;
    std::istringstream fields(stat.substr(close + 1));
    std::string field;
    double ticks = 0;
    // Fields 3.. follow the command name; utime and stime are 14 and 15.
    for (int index = 3; index <= 15 && fields >> field; ++index) {
      if (index >= 14) ticks += std::stod(field);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// \brief SIGTERM, then wait up to `grace` for a clean exit (SIGKILL
  /// after that). Anything but exit code 0 is an error, including having
  /// exited before this call.
  Status Stop(std::chrono::milliseconds grace) {
    if (!Running()) {
      return Status::Internal(name_ + " died during the run (" +
                              Describe(status_) + "):\n" + Log());
    }
    ::kill(pid_, SIGTERM);
    const auto deadline = std::chrono::steady_clock::now() + grace;
    while (Running()) {
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        int status = 0;
        ::waitpid(pid_, &status, 0);
        reaped_ = true;
        Release();
        return Status::DeadlineExceeded(name_ + " ignored SIGTERM");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (WIFEXITED(status_) && WEXITSTATUS(status_) == 0) return Status::OK();
    return Status::Internal(name_ + " stopped with " + Describe(status_) +
                            ":\n" + Log());
  }

 private:
  ServerProcess(pid_t pid, std::string name, std::string log_path)
      : pid_(pid), name_(std::move(name)), log_path_(std::move(log_path)) {}

  std::string Log() const {
    std::ifstream in(log_path_);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  static std::string Describe(int status) {
    if (WIFEXITED(status)) {
      return "exit code " + std::to_string(WEXITSTATUS(status));
    }
    if (WIFSIGNALED(status)) {
      return "signal " + std::to_string(WTERMSIG(status));
    }
    return "status " + std::to_string(status);
  }

  void Release() {
    if (slot_ >= 0) g_children[static_cast<std::size_t>(slot_)].store(0);
    slot_ = -1;
  }

  pid_t pid_;
  std::string name_;
  std::string log_path_;
  int slot_ = -1;
  bool reaped_ = false;
  int status_ = 0;
};

}  // namespace bench
}  // namespace sknn

#endif  // SKNN_BENCH_SKNN_BENCH_SERVER_PROCESS_H_
