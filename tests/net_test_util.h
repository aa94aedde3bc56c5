// Loopback TCP helpers for the suites that serve over real sockets: the
// in-test sknn_c2_server (one RpcListener), and the two ends of one
// connection for tests that hold the server-side RpcServer themselves (a
// shard worker they kill mid-query).
#ifndef SKNN_TESTS_NET_TEST_UTIL_H_
#define SKNN_TESTS_NET_TEST_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "net/rpc.h"
#include "net/rpc_listener.h"
#include "net/socket.h"
#include "proto/c2_service.h"

namespace sknn {

/// \brief Serves `handler` on every link an ephemeral loopback port takes,
/// `workers` handler threads per link.
inline std::unique_ptr<RpcListener> ListenOnLoopback(
    RpcServer::Handler handler, std::size_t workers) {
  auto listener = RpcListener::Start(
      0, [handler] { return handler; }, workers);
  SKNN_CHECK(listener.ok()) << listener.status();
  return std::move(listener).value();
}

/// \brief A link to 127.0.0.1:`port`.
inline std::unique_ptr<SocketEndpoint> MustConnect(uint16_t port) {
  auto link = ConnectTcp("127.0.0.1", port);
  SKNN_CHECK(link.ok()) << link.status();
  return std::move(link).value();
}

/// \brief A C2 key holder serving every link it takes (the engine's and
/// each shard worker's) on an ephemeral loopback port.
class LoopbackC2 {
 public:
  LoopbackC2(PaillierSecretKey sk, std::size_t pool_capacity)
      : c2_(std::move(sk)) {
    c2_.EnableRandomizerPool(pool_capacity);
    listener_ = ListenOnLoopback(
        [this](const Message& req) { return c2_.Handle(req); },
        /*workers=*/2);
  }

  std::unique_ptr<Endpoint> Connect() { return MustConnect(listener_->port()); }
  /// \brief The served C2Service (record_views / TakeViews in tests).
  C2Service& service() { return c2_; }

 private:
  C2Service c2_;
  std::unique_ptr<RpcListener> listener_;  // goes before c2_
};

struct TcpLink {
  std::unique_ptr<SocketEndpoint> client;
  std::unique_ptr<SocketEndpoint> server;
};

/// \brief Both ends of one loopback TCP connection. The connect completes
/// in the listen backlog, so the accept needs no thread of its own.
inline TcpLink LoopbackTcpLink() {
  auto listener = TcpListener::Bind(0);
  SKNN_CHECK(listener.ok()) << listener.status();
  TcpLink link;
  link.client = MustConnect(listener->port());
  auto accepted = listener->Accept();
  SKNN_CHECK(accepted.ok()) << accepted.status();
  link.server = std::move(accepted).value();
  return link;
}

}  // namespace sknn

#endif  // SKNN_TESTS_NET_TEST_UTIL_H_
