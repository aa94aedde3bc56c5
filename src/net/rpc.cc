#include "net/rpc.h"

#include <string>

#include "common/logging.h"
#include "proto/opcodes.h"

namespace sknn {

RpcClient::RpcClient(std::unique_ptr<Endpoint> endpoint)
    : endpoint_(std::move(endpoint)) {
  demux_thread_ = std::thread([this] { DemuxLoop(); });
}

RpcClient::~RpcClient() {
  Shutdown();
  if (demux_thread_.joinable()) demux_thread_.join();
}

Result<Message> RpcClient::Call(Message request,
                                std::chrono::milliseconds timeout) {
  if (shutdown_.load()) {
    return Status::Unavailable("RpcClient: already shut down");
  }
  if (link_down_.load()) {
    return Status::Unavailable("RpcClient: link closed");
  }
  uint64_t id = next_id_.fetch_add(1);
  request.correlation_id = id;
  auto call = std::make_shared<PendingCall>();
  {
    MutexLock lock(&pending_mutex_);
    pending_[id] = call;
  }
  if (!endpoint_->Send(WireCodec::Encode(request))) {
    MutexLock lock(&pending_mutex_);
    pending_.erase(id);
    return Status::Unavailable("RpcClient: link closed on send");
  }
  // Re-check AFTER registering: a TCP send can still succeed (buffered)
  // once the peer is gone, and if the demux loop exited before our entry
  // landed in pending_, nobody would ever complete this call. The demux
  // sets link_down_ before its final sweep, so one of the two — the sweep
  // or this check — always settles the call instead of letting it hang.
  // Only a call still IN pending_ is failed here: if the demux already
  // took it, it was completed (a real response that raced the link close,
  // or the sweep's error) and that result must be delivered as-is.
  if (link_down_.load()) {
    bool still_pending;
    {
      MutexLock lock(&pending_mutex_);
      still_pending = pending_.erase(id) > 0;
    }
    if (still_pending) {
      return Status::Unavailable("RpcClient: link closed");
    }
  }
  PendingCall& pending = *call;
  if (timeout.count() <= 0) {
    MutexLock lock(&pending.mutex);
    while (!pending.done) pending.cv.Wait(pending.mutex);
    return std::move(pending.result);
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  {
    MutexLock lock(&pending.mutex);
    while (!pending.done) {
      if (std::chrono::steady_clock::now() >= deadline) break;
      pending.cv.WaitUntil(pending.mutex, deadline);
    }
    if (pending.done) return std::move(pending.result);
  }
  // Timed out. Unregister so the demux drops the late response as an
  // unknown correlation id. Lock order matters: pending.mutex was released
  // above, because the demux takes pending_mutex_ BEFORE a call's mutex.
  bool erased;
  {
    MutexLock lock(&pending_mutex_);
    erased = pending_.erase(id) > 0;
  }
  if (erased) {
    return Status::DeadlineExceeded(
        "RpcClient: no response within " + std::to_string(timeout.count()) +
        " ms");
  }
  // The demux claimed the entry between our timeout and the erase: a result
  // is being delivered right now — take it instead of fabricating a timeout.
  MutexLock lock(&pending.mutex);
  while (!pending.done) pending.cv.Wait(pending.mutex);
  return std::move(pending.result);
}

void RpcClient::SetNoteHandler(std::function<void(const Message&)> handler) {
  MutexLock lock(&note_mutex_);
  note_handler_ = std::move(handler);
}

void RpcClient::Shutdown() {
  shutdown_.store(true);
  endpoint_->Close();
}

void RpcClient::DemuxLoop() {
  std::vector<uint8_t> frame;
  while (endpoint_->Recv(&frame)) {
    Result<Message> decoded = WireCodec::Decode(frame);
    if (decoded.ok() && decoded->correlation_id == 0) {
      // Correlation id 0 is never assigned to a Call: it marks an
      // unsolicited server note (RpcServer::Push). Deliver it to the note
      // handler; clients that installed none simply ignore notes.
      std::function<void(const Message&)> handler;
      {
        MutexLock lock(&note_mutex_);
        handler = note_handler_;
      }
      if (handler) handler(*decoded);
      continue;
    }
    std::shared_ptr<PendingCall> call;
    if (decoded.ok()) {
      MutexLock lock(&pending_mutex_);
      auto it = pending_.find(decoded->correlation_id);
      if (it != pending_.end()) {
        call = it->second;
        pending_.erase(it);
      }
    }
    if (!call) {
      SKNN_LOG(Warning) << "RpcClient: dropping frame (unknown correlation "
                           "id or decode failure)";
      continue;
    }
    // A kError answer is the Status it carries; a frame of the old
    // text-only layout decodes as kProtocolError, never as another code.
    if (decoded->type == OpCode(Op::kError)) {
      decoded = DecodeStatusFrame(OpCode(Op::kError), *decoded);
    }
    PendingCall& pending = *call;
    {
      MutexLock lock(&pending.mutex);
      pending.result = std::move(decoded);
      pending.done = true;
    }
    pending.cv.NotifyOne();
  }
  // Link closed: refuse new calls, then fail everything still pending.
  link_down_.store(true);
  std::map<uint64_t, std::shared_ptr<PendingCall>> leftover;
  {
    MutexLock lock(&pending_mutex_);
    leftover.swap(pending_);
  }
  for (auto& [id, call] : leftover) {
    (void)id;
    PendingCall& pending = *call;
    {
      MutexLock lock(&pending.mutex);
      pending.result = Status::Unavailable("RpcClient: link closed");
      pending.done = true;
    }
    pending.cv.NotifyOne();
  }
}

RpcServer::RpcServer(std::unique_ptr<Endpoint> endpoint,
                     Handler handler, std::size_t worker_threads)
    : endpoint_(std::move(endpoint)), handler_(std::move(handler)) {
  if (worker_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(worker_threads);
  }
  receive_thread_ = std::thread([this] { ReceiveLoop(); });
}

RpcServer::~RpcServer() {
  Shutdown();
  if (receive_thread_.joinable()) receive_thread_.join();
  pool_.reset();  // joins workers (pending tasks finish first)
}

void RpcServer::Shutdown() { endpoint_->Close(); }

bool RpcServer::Push(Message note) {
  note.correlation_id = 0;
  MutexLock lock(&send_mutex_);
  return endpoint_->Send(WireCodec::Encode(note));
}

void RpcServer::ReceiveLoop() {
  std::vector<uint8_t> frame;
  while (endpoint_->Recv(&frame)) {
    if (pool_) {
      auto owned = std::make_shared<std::vector<uint8_t>>(std::move(frame));
      pool_->Submit([this, owned] { HandleFrame(std::move(*owned)); });
    } else {
      HandleFrame(std::move(frame));
    }
  }
  finished_.store(true, std::memory_order_release);
}

void RpcServer::HandleFrame(std::vector<uint8_t> frame) {
  Result<Message> request = WireCodec::Decode(frame);
  if (!request.ok()) {
    SKNN_LOG(Warning) << "RpcServer: dropping undecodable frame: "
                      << request.status();
    return;
  }
  uint64_t cid = request->correlation_id;
  Result<Message> response = handler_(*request);
  Message out = response.ok()
                    ? std::move(*response)
                    : EncodeStatusFrame(OpCode(Op::kError), response.status());
  out.correlation_id = cid;
  out.query_id = request->query_id;
  MutexLock lock(&send_mutex_);
  endpoint_->Send(WireCodec::Encode(out));
}

}  // namespace sknn
