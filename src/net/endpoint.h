// Frame endpoint: what the RPC layer sends and receives frames through.
// Every link is a SocketEndpoint (net/socket.h): a TCP connection between
// processes, or a socketpair(2) within one. DelayedEndpoint wraps either to
// simulate a one-way link latency.
#ifndef SKNN_NET_ENDPOINT_H_
#define SKNN_NET_ENDPOINT_H_

#include <cstdint>
#include <vector>

namespace sknn {

class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// \brief Writes one frame. Returns false once closed.
  virtual bool Send(std::vector<uint8_t> frame) = 0;

  /// \brief Blocks for the next frame; false when closed and drained.
  virtual bool Recv(std::vector<uint8_t>* frame) = 0;

  /// \brief Closes the link; unblocks any waiting Recv on both sides.
  virtual void Close() = 0;
};

}  // namespace sknn

#endif  // SKNN_NET_ENDPOINT_H_
