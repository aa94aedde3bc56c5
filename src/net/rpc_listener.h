// RpcListener — the one TCP accept loop behind every server (sknn_c2_server,
// sknn_c1_shard, serve/QueryService). It binds the port, runs the accept
// thread, serves each link with an RpcServer whose handler a per-link
// factory builds (QueryService keeps its per-session state there), reaps
// the sessions whose peer hung up, and rides out failed accepts. A server
// churning through short links holds only its live ones: a closed link's
// socket and handler threads are freed on the next accept.
#ifndef SKNN_NET_RPC_LISTENER_H_
#define SKNN_NET_RPC_LISTENER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/message.h"
#include "net/rpc.h"
#include "net/socket.h"

namespace sknn {

class RpcListener {
 public:
  /// \brief Builds the handler of one accepted link. Runs on the accept
  /// thread, once per link, before the link's first frame is read.
  using HandlerFactory = std::function<RpcServer::Handler()>;

  /// \brief Binds `port` on 127.0.0.1 (0 = ephemeral; see port()) and
  /// starts accepting. Each link is served by an RpcServer with
  /// `worker_threads` handler threads (RpcServer's constructor).
  static Result<std::unique_ptr<RpcListener>> Start(
      uint16_t port, HandlerFactory factory, std::size_t worker_threads);

  /// \brief Runs Shutdown.
  ~RpcListener();

  RpcListener(const RpcListener&) = delete;
  RpcListener& operator=(const RpcListener&) = delete;

  uint16_t port() const { return listener_.port(); }

  /// \brief Links accepted since Start. A link is counted only once the
  /// sessions its accept reaped are destroyed.
  uint64_t accepted() const;

  /// \brief Accepted links whose peer has not yet hung up.
  std::size_t live() const;

  /// \brief Sends `note` unsolicited (RpcServer::Push) on every live link,
  /// best effort: a peer that raced its disconnect simply misses it.
  void PushToAll(const Message& note);

  /// \brief Closes the listening socket, wakes and joins the accept thread,
  /// then closes every link and waits for its in-flight handlers.
  /// Idempotent; safe to call from several threads, but not from a handler
  /// of this listener (that handler would wait for itself).
  void Shutdown();

 private:
  RpcListener(TcpListener listener, HandlerFactory factory,
              std::size_t worker_threads);

  void AcceptLoop();

  TcpListener listener_;
  const HandlerFactory factory_;
  const std::size_t worker_threads_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  /// Held only to edit or walk the list, never while a session is
  /// destroyed (which joins its handlers, perhaps mid-query).
  mutable Mutex mutex_;
  std::vector<std::unique_ptr<RpcServer>> sessions_ GUARDED_BY(mutex_);
  uint64_t accepted_ GUARDED_BY(mutex_) = 0;
  /// Serializes Shutdown: two threads joining one std::thread is UB.
  Mutex shutdown_mutex_ ACQUIRED_BEFORE(mutex_);
  bool shutdown_done_ GUARDED_BY(shutdown_mutex_) = false;
};

}  // namespace sknn

#endif  // SKNN_NET_RPC_LISTENER_H_
