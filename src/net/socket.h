// The one C1<->C2 transport: a stream socket carrying length-prefixed
// frames. Each frame is a little-endian u32 length prefix followed by the
// WireCodec bytes, and RpcClient/RpcServer and all protocol code run over
// it. A served link is a TCP connection (ConnectTcp / TcpListener; tools/
// runs C2, the C1 front end and shard workers as separate processes). An
// in-process link (Channel::CreatePair) is a socketpair(2) of the same
// SocketEndpoints, so both frame and read alike. DelayedEndpoint adds a
// simulated one-way latency to either.
#ifndef SKNN_NET_SOCKET_H_
#define SKNN_NET_SOCKET_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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

/// \brief An in-process link: two connected SocketEndpoints over
/// socketpair(AF_UNIX, SOCK_STREAM). Frames sent on one end are received on
/// the other, in order; closing either end fails both.
class Channel {
 public:
  struct EndpointPair {
    std::unique_ptr<SocketEndpoint> a;
    std::unique_ptr<SocketEndpoint> b;
  };

  /// \brief Creates a connected endpoint pair. Both ends are null when
  /// socketpair(2) fails (the process is out of fds); the errno is logged.
  static EndpointPair CreatePair();
};

/// \brief Delays every frame by a fixed one-way latency: how a bench
/// models the WAN between the two clouds, which makes round-trip depth
/// measurable. Send prefixes the frame with its steady_clock send time and
/// returns at once; Recv holds the frame until that time plus the latency.
/// Frames sent back to back are therefore in flight together, as on a real
/// link. Both ends of a link must be wrapped, in one process (they share
/// the clock).
class DelayedEndpoint : public Endpoint {
 public:
  DelayedEndpoint(std::unique_ptr<Endpoint> inner,
                  std::chrono::microseconds latency)
      : inner_(std::move(inner)), latency_(latency) {}

  bool Send(std::vector<uint8_t> frame) override;
  /// \brief False also for a frame too short to carry its send time.
  bool Recv(std::vector<uint8_t>* frame) override;
  void Close() override { inner_->Close(); }

 private:
  const std::unique_ptr<Endpoint> inner_;
  const std::chrono::microseconds latency_;
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
