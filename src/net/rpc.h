// Request/response layer over an Endpoint: a stream socket, TCP or an
// in-process socketpair (net/socket.h).
//
// RpcClient is used by C1 (the protocol driver): Call() serializes a request,
// assigns a fresh correlation id and blocks until the matching response
// arrives. Many threads may Call() concurrently — a demux thread routes
// responses by correlation id, which is what makes the paper's parallel
// variant (Section 5.3) possible without one link per worker.
//
// RpcServer is used by C2 (the key holder): it loops over incoming requests
// and dispatches them to a Handler, optionally on a worker pool. One
// RpcServer serves one link; net/rpc_listener.h gives one to every link a
// TCP server accepts.
//
// The layer owns its errors, on every link (C1<->C2, coordinator<->shard
// worker, client<->front end): a handler's failure crosses as one kError
// status frame and comes out of Call as the same Status, and a call that
// gets no answer over its link is kUnavailable. Callers never see or test
// the kError frame itself.
#ifndef SKNN_NET_RPC_H_
#define SKNN_NET_RPC_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "net/message.h"
#include "net/socket.h"

namespace sknn {

class RpcClient {
 public:
  explicit RpcClient(std::unique_ptr<Endpoint> endpoint);
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// \brief Sends `request` (correlation id is assigned internally) and
  /// blocks until the response with the same id arrives. Thread-safe.
  ///
  /// A peer's kError answer (its handler failed) comes back as the Status
  /// it carries, code included. A call the link cannot answer — closed
  /// before, during or after the send, or after Shutdown() — is
  /// kUnavailable.
  ///
  /// `timeout` bounds the wait: zero means wait forever (the pre-deadline
  /// behavior); a positive timeout resolves a call whose peer is alive but
  /// silent — hung, SIGSTOPped, overloaded — to kDeadlineExceeded instead
  /// of blocking until the link dies. A response that arrives after the
  /// timeout is dropped by the demux as an unknown correlation id.
  Result<Message> Call(Message request,
                       std::chrono::milliseconds timeout =
                           std::chrono::milliseconds{0});

  /// \brief Installs a handler for unsolicited server->client notes (frames
  /// with correlation id 0, which no Call ever uses — see RpcServer::Push).
  /// Runs on the demux thread: keep it fast and non-blocking. Pass nullptr
  /// to uninstall. Thread-safe.
  void SetNoteHandler(std::function<void(const Message&)> handler);

  /// \brief Closes the underlying link; outstanding calls fail with
  /// kUnavailable.
  void Shutdown();

 private:
  void DemuxLoop();

  struct PendingCall {
    Mutex mutex;
    CondVar cv;
    bool done GUARDED_BY(mutex) = false;
    Result<Message> result GUARDED_BY(mutex) =
        Status::ProtocolError("uninitialized");
  };

  std::unique_ptr<Endpoint> endpoint_;
  std::atomic<uint64_t> next_id_{1};
  Mutex pending_mutex_;
  std::map<uint64_t, std::shared_ptr<PendingCall>> pending_
      GUARDED_BY(pending_mutex_);
  Mutex note_mutex_;
  std::function<void(const Message&)> note_handler_ GUARDED_BY(note_mutex_);
  std::thread demux_thread_;
  std::atomic<bool> shutdown_{false};
  /// Set by the demux loop on its way out (peer closed the link): calls
  /// issued AFTER the final pending sweep must fail fast, not wait on a
  /// response thread that no longer exists.
  std::atomic<bool> link_down_{false};
};

class RpcServer {
 public:
  /// \brief Handler maps a request to a response. It runs on server threads
  /// and must be thread-safe when worker_threads > 1. The response's
  /// correlation id is overwritten with the request's. A failed handler is
  /// answered with a kError status frame (proto/opcodes.h Op::kError,
  /// aux = [code:u32][text]), which the peer's RpcClient::Call returns as
  /// that Status.
  using Handler = std::function<Result<Message>(const Message&)>;

  RpcServer(std::unique_ptr<Endpoint> endpoint, Handler handler,
            std::size_t worker_threads = 1);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// \brief Closes the link: the receive loop exits and in-flight handlers
  /// can no longer answer. Does not wait for them; the destructor joins
  /// the receive thread and the workers.
  void Shutdown();

  /// \brief Sends an unsolicited server->client note. The frame goes out
  /// with correlation id 0 — an id Call never assigns — so the client's
  /// demux routes it to its note handler (RpcClient::SetNoteHandler)
  /// instead of a pending call. Returns false once the link is down.
  bool Push(Message note);

  /// \brief True once the peer has closed the link and the receive loop
  /// has exited (queued pool work may still be draining). Lets a connection
  /// manager (net/RpcListener) reap dead sessions without blocking.
  bool Finished() const { return finished_.load(std::memory_order_acquire); }

 private:
  void ReceiveLoop();
  void HandleFrame(std::vector<uint8_t> frame);

  std::unique_ptr<Endpoint> endpoint_;
  Handler handler_;
  std::unique_ptr<ThreadPool> pool_;  // null => handle inline
  std::thread receive_thread_;
  /// Serializes response frames from concurrent pool workers; guards no
  /// field — the endpoint itself is internally synchronized, the mutex only
  /// keeps whole frames from interleaving on the wire.
  Mutex send_mutex_;
  std::atomic<bool> finished_{false};
};

}  // namespace sknn

#endif  // SKNN_NET_RPC_H_
