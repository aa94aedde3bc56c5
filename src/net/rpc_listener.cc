#include "net/rpc_listener.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>

#include "common/logging.h"

namespace sknn {

Result<std::unique_ptr<RpcListener>> RpcListener::Start(
    uint16_t port, HandlerFactory factory, std::size_t worker_threads) {
  SKNN_ASSIGN_OR_RETURN(TcpListener listener, TcpListener::Bind(port));
  return std::unique_ptr<RpcListener>(new RpcListener(
      std::move(listener), std::move(factory), worker_threads));
}

RpcListener::RpcListener(TcpListener listener, HandlerFactory factory,
                         std::size_t worker_threads)
    : listener_(std::move(listener)),
      factory_(std::move(factory)),
      worker_threads_(worker_threads) {
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

RpcListener::~RpcListener() { Shutdown(); }

uint64_t RpcListener::accepted() const {
  MutexLock lock(&mutex_);
  return accepted_;
}

std::size_t RpcListener::live() const {
  MutexLock lock(&mutex_);
  return static_cast<std::size_t>(std::count_if(
      sessions_.begin(), sessions_.end(),
      [](const std::unique_ptr<RpcServer>& s) { return !s->Finished(); }));
}

void RpcListener::PushToAll(const Message& note) {
  MutexLock lock(&mutex_);
  for (const auto& session : sessions_) {
    if (!session->Finished()) session->Push(note);
  }
}

void RpcListener::Shutdown() {
  MutexLock shutdown_lock(&shutdown_mutex_);
  if (shutdown_done_) return;
  shutdown_done_ = true;
  stopping_.store(true);
  listener_.Close();
  // shutdown(2) on the listening fd wakes a blocked accept(2) on Linux; a
  // throwaway connection covers platforms where it does not.
  if (auto kick = ConnectTcp("127.0.0.1", port()); kick.ok()) {
    (*kick)->Close();
  }
  accept_thread_.join();
  std::vector<std::unique_ptr<RpcServer>> sessions;
  {
    MutexLock lock(&mutex_);
    sessions.swap(sessions_);
  }
  for (auto& session : sessions) session->Shutdown();
  sessions.clear();  // destructors wait for in-flight handlers
}

void RpcListener::AcceptLoop() {
  for (;;) {
    auto endpoint = listener_.Accept();
    if (stopping_.load()) return;
    if (!endpoint.ok()) {
      // Transient failures (ECONNABORTED handshake resets, EMFILE under a
      // connection burst) must not stop the server for good: pause briefly
      // and keep accepting until Shutdown says stop.
      SKNN_LOG(Warning) << "RpcListener: accept failed: "
                        << endpoint.status();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    auto session = std::make_unique<RpcServer>(std::move(endpoint).value(),
                                               factory_(), worker_threads_);
    // Reap the sessions whose peer hung up. They are destroyed outside the
    // lock, as a reaped session may still be joining a handler that is
    // finishing a long query, and before the new link is counted: once
    // accepted() counts a link, the sessions that finished before it are
    // gone, their sockets and threads included.
    std::vector<std::unique_ptr<RpcServer>> dead;
    {
      MutexLock lock(&mutex_);
      auto finished = std::partition(
          sessions_.begin(), sessions_.end(),
          [](const std::unique_ptr<RpcServer>& s) { return !s->Finished(); });
      std::move(finished, sessions_.end(), std::back_inserter(dead));
      sessions_.erase(finished, sessions_.end());
      sessions_.push_back(std::move(session));
    }
    dead.clear();
    MutexLock lock(&mutex_);
    ++accepted_;
  }
}

}  // namespace sknn
