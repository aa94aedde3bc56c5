// TCP transport: the real two-process deployment of the federated cloud.
//
// SocketEndpoint speaks the same framing as the in-memory channel — each
// frame is a little-endian u32 length prefix followed by the WireCodec
// bytes — so RpcClient/RpcServer and all protocol code run unchanged over
// it. tools/ uses this to run C2 as a standalone key-holder server and the
// C1 driver (plus Bob) as separate processes.
#ifndef SKNN_NET_SOCKET_H_
#define SKNN_NET_SOCKET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/endpoint.h"

namespace sknn {

class SocketEndpoint : public Endpoint {
 public:
  /// \brief Takes ownership of a connected stream-socket fd.
  explicit SocketEndpoint(int fd) : fd_(fd) {}
  ~SocketEndpoint() override;

  /// \brief Recv grows the frame buffer by at most this many bytes ahead of
  /// the bytes that have actually arrived, whatever length the peer's
  /// prefix claims.
  static constexpr std::size_t kRecvChunkBytes = std::size_t{64} << 10;

  bool Send(std::vector<uint8_t> frame) override;
  bool Recv(std::vector<uint8_t>* frame) override;

  /// \brief Half-closes the connection: shutdown(2) unblocks any thread
  /// sitting in Send/Recv and fails future calls. The fd itself is released
  /// by the destructor only — a concurrent reader must never observe its fd
  /// number closed (and potentially reused by another open()) under it.
  void Close() override;

  /// \brief Bytes written/read so far on this socket.
  uint64_t bytes_sent() const { return bytes_sent_.load(); }
  uint64_t bytes_received() const { return bytes_received_.load(); }

 private:
  /// Assigned once at construction, closed by the destructor. Concurrent
  /// Send/Recv/Close only ever read it.
  const int fd_;
  Mutex send_mutex_;  // serializes writers: frames must not interleave
  Mutex recv_mutex_;  // serializes readers: one frame per caller
  std::atomic<bool> closed_{false};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
};

/// \brief Connects to host:port (IPv4 dotted quad or "localhost").
Result<std::unique_ptr<SocketEndpoint>> ConnectTcp(const std::string& host,
                                                   uint16_t port);

/// \brief Splits "host:port" at its last colon — the one parser for every
/// address the tools and the shard coordinator dial or redial. Rejects
/// (kInvalidArgument) an empty host, an empty port, any non-digit in the
/// port (signs and spaces included), port 0 and ports above 65535; the
/// outputs are written only on success.
Status ParseHostPort(const std::string& addr, std::string* host,
                     uint16_t* port);

/// \brief Listening socket; Bind with port 0 chooses an ephemeral port
/// (query it with port()). Servers take their links through
/// net/rpc_listener.h, which owns the one accept loop.
class TcpListener {
 public:
  static Result<TcpListener> Bind(uint16_t port);
  ~TcpListener();

  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// \brief Blocks for the next inbound connection.
  Result<std::unique_ptr<SocketEndpoint>> Accept();

  /// \brief Stops accepting; a blocked Accept returns an error. Safe to
  /// call from another thread than the accept loop's (the shutdown state is
  /// atomic — RpcListener::Shutdown races its accept thread by design).
  void Close();

  uint16_t port() const { return port_; }

 private:
  TcpListener(int fd, uint16_t port) : fd_(fd), port_(port) {}

  /// -1 once closed (or moved from). Atomic because Close() is called from
  /// a shutdown thread while the accept thread reads it — previously a
  /// plain int, which was a data race TSan flagged on every clean shutdown.
  std::atomic<int> fd_;
  uint16_t port_;
};

}  // namespace sknn

#endif  // SKNN_NET_SOCKET_H_
