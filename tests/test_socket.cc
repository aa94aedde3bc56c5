// Tests for the TCP transport: framing round trips over localhost, close
// semantics, the Endpoint abstraction under the RPC layer, the RpcListener
// every server accepts through, and a full secure-multiplication protocol
// run over real sockets — the two-process deployment path exercised in one
// process.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <iterator>
#include <thread>

#include "net/rpc.h"
#include "net/rpc_listener.h"
#include "net/socket.h"
#include "proto/c2_service.h"
#include "proto/sm.h"
#include "serve/query_service.h"
#include "tests/net_test_util.h"
#include "tests/proto_test_util.h"

namespace sknn {
namespace {

TEST(SocketTest, FrameRoundTrip) {
  TcpLink pair = LoopbackTcpLink();
  ASSERT_TRUE(pair.client->Send({1, 2, 3, 4, 5}));
  std::vector<uint8_t> frame;
  ASSERT_TRUE(pair.server->Recv(&frame));
  EXPECT_EQ(frame, (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  // And the other direction.
  ASSERT_TRUE(pair.server->Send({9}));
  ASSERT_TRUE(pair.client->Recv(&frame));
  EXPECT_EQ(frame, std::vector<uint8_t>{9});
}

TEST(SocketTest, EmptyFrame) {
  TcpLink pair = LoopbackTcpLink();
  ASSERT_TRUE(pair.client->Send({}));
  std::vector<uint8_t> frame = {42};
  ASSERT_TRUE(pair.server->Recv(&frame));
  EXPECT_TRUE(frame.empty());
}

TEST(SocketTest, LargeFrame) {
  TcpLink pair = LoopbackTcpLink();
  std::vector<uint8_t> big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 31);
  }
  ASSERT_TRUE(pair.client->Send(big));
  std::vector<uint8_t> frame;
  ASSERT_TRUE(pair.server->Recv(&frame));
  EXPECT_EQ(frame, big);
}

TEST(SocketTest, TrafficCounters) {
  TcpLink pair = LoopbackTcpLink();
  pair.client->Send({1, 2, 3});
  std::vector<uint8_t> frame;
  pair.server->Recv(&frame);
  EXPECT_EQ(pair.client->bytes_sent(), 7u);  // 4-byte prefix + 3 payload
  EXPECT_EQ(pair.server->bytes_received(), 7u);
}

TEST(SocketTest, CloseUnblocksPeerRecv) {
  TcpLink pair = LoopbackTcpLink();
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pair.client->Close();
  });
  std::vector<uint8_t> frame;
  EXPECT_FALSE(pair.server->Recv(&frame));
  closer.join();
  EXPECT_FALSE(pair.client->Send({1}));
}

TEST(SocketTest, HugeLengthPrefixAllocatesOnlyWhatArrives) {
  // A peer claims a ~4 GiB frame, sends 10 bytes of it and hangs up. Recv
  // must fail without having sized its buffer from the claim.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SocketEndpoint endpoint(fds[0]);
  const uint8_t bytes[14] = {0xF0, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 5,
                             6,    7,    8,    9,    10};
  ASSERT_EQ(::write(fds[1], bytes, sizeof(bytes)),
            static_cast<ssize_t>(sizeof(bytes)));
  ::close(fds[1]);
  std::vector<uint8_t> frame;
  EXPECT_FALSE(endpoint.Recv(&frame));
  EXPECT_LE(frame.capacity(), SocketEndpoint::kRecvChunkBytes);
}

TEST(SocketTest, ConnectFailsToClosedPort) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  uint16_t port = listener->port();
  listener->Close();
  EXPECT_FALSE(ConnectTcp("127.0.0.1", port).ok());
}

TEST(SocketTest, ConnectRejectsBadAddress) {
  EXPECT_FALSE(ConnectTcp("not-an-address", 1).ok());
}

TEST(SocketTest, ParseHostPortAcceptsOnlyHostColonPort) {
  struct Case {
    const char* addr;
    bool ok;
  };
  const Case cases[] = {
      {"h:9200", true},   {"h:9200x", false}, {"h:", false},
      {":9200", false},   {"h:0", false},     {"h:65536", false},
      {"h:+1", false},    {"h: 1", false},    {"h:65535", true},
      {"9200", false},    {"h:99999999999999999999", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.addr);
    std::string host = "unchanged";
    uint16_t port = 7;
    Status parsed = ParseHostPort(c.addr, &host, &port);
    EXPECT_EQ(parsed.ok(), c.ok) << parsed;
    if (c.ok) {
      EXPECT_EQ(host, "h");
      EXPECT_EQ(std::string("h:") + std::to_string(port), c.addr);
    } else {
      EXPECT_EQ(parsed.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(host, "unchanged");
      EXPECT_EQ(port, 7);
    }
  }
}

TEST(SocketTest, ShardedEngineRejectsBadWorkerAddressBeforeDialing) {
  // "9200x" must not be read as port 9200: it would be dialed now and then
  // be a redial address the coordinator's probe can never use.
  Channel::EndpointPair c2 = Channel::CreatePair();
  auto engine = QueryService::CreateShardedEngine(
      PaillierPublicKey(), std::move(c2.a), SknnEngine::Options(),
      {"127.0.0.1:9200x"});
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument)
      << engine.status();
}

TEST(SocketTest, RpcOverTcp) {
  TcpLink link = LoopbackTcpLink();
  RpcServer server(
      std::move(link.server),
      [](const Message& req) -> Result<Message> {
        Message resp;
        resp.type = req.type + 1;
        resp.ints = req.ints;
        return resp;
      },
      1);
  RpcClient client(std::move(link.client));

  Message req;
  req.type = 41;
  req.ints = {BigInt(12345)};
  auto resp = client.Call(std::move(req));
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->type, 42);
  EXPECT_EQ(resp->ints[0], BigInt(12345));
}

TEST(SocketTest, SecureMultiplicationOverRealSockets) {
  // The full two-cloud topology over TCP: C2 behind a socket RPC server,
  // C1 driving SM through a socket RPC client.
  Random rng(2025);
  auto keys = GeneratePaillierKeyPair(256, rng).value();
  C2Service c2(std::move(keys.sk));
  auto listener = ListenOnLoopback(
      [&c2](const Message& req) { return c2.Handle(req); }, 1);

  RpcClient client(MustConnect(listener->port()));
  ProtoContext ctx(&keys.pk, &client);
  auto product = SecureMultiply(ctx, keys.pk.Encrypt(BigInt(59), rng),
                                keys.pk.Encrypt(BigInt(58), rng));
  ASSERT_TRUE(product.ok()) << product.status();
  EXPECT_EQ(c2.secret_key().Decrypt(*product), BigInt(3422));
}

std::size_t CountEntries(const char* dir) {
  return static_cast<std::size_t>(
      std::distance(std::filesystem::directory_iterator(dir),
                    std::filesystem::directory_iterator()));
}

// Polls `done` every millisecond for up to 10 s.
bool WaitFor(const std::function<bool()>& done) {
  for (int i = 0; i < 10000 && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

TEST(RpcListenerTest, ClosedLinksAreReapedUnderChurn) {
  // Peers that connect and hang up, over and over, as front ends, shard
  // workers and reloads do against a standing C2. Each session holds a
  // socket and 4 handler threads; a listener that kept the closed ones
  // would end 100 fds and 400 threads up.
  auto listener = ListenOnLoopback(
      [](const Message& req) -> Result<Message> { return req; },
      /*workers=*/4);
  const std::size_t fds = CountEntries("/proc/self/fd");
  const std::size_t threads = CountEntries("/proc/self/task");
  for (uint64_t cycle = 1; cycle <= 100; ++cycle) {
    auto link = MustConnect(listener->port());
    ASSERT_TRUE(WaitFor([&] { return listener->accepted() == cycle; }));
    link.reset();
    // Once the session has seen the hang-up, the next accept must reap it.
    ASSERT_TRUE(WaitFor([&] { return listener->live() == 0; }));
  }
  // Each accept destroys the sessions it reaps before it counts the new
  // link, so once link 101 is counted the 100 closed sessions, their
  // sockets and their threads are gone.
  auto last = MustConnect(listener->port());
  ASSERT_TRUE(WaitFor([&] { return listener->accepted() == 101; }));
  EXPECT_EQ(listener->live(), 1u);
  // Both ends of the last link; its receive thread and 4 workers.
  EXPECT_LE(CountEntries("/proc/self/fd"), fds + 2);
  EXPECT_LE(CountEntries("/proc/self/task"), threads + 5);
}

TEST(RpcListenerTest, EachLinkHasItsOwnHandlerAndShutdownWaitsForInFlight) {
  // Each response carries in aux how many calls its link has made.
  constexpr uint16_t kSlow = 1;
  std::atomic<bool> slow_started{false};
  std::atomic<bool> slow_finished{false};
  auto started = RpcListener::Start(
      0,
      [&] {
        // Per-link state: how many calls this link has made.
        auto calls = std::make_shared<std::atomic<uint64_t>>(0);
        return RpcServer::Handler([&, calls](const Message& req) {
          Message resp;
          FrameWriter(resp.aux).U64(++*calls);
          if (req.type == kSlow) {
            slow_started.store(true);
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            slow_finished.store(true);
          }
          return Result<Message>(std::move(resp));
        });
      },
      /*worker_threads=*/2);
  ASSERT_TRUE(started.ok()) << started.status();
  RpcListener& listener = **started;
  RpcClient a(MustConnect(listener.port()));
  RpcClient b(MustConnect(listener.port()));
  auto call = [](RpcClient& client, uint16_t type) {
    Message req;
    req.type = type;
    auto resp = client.Call(std::move(req));
    return resp.ok() ? FrameReader(resp->aux).U64() : 0;
  };
  EXPECT_EQ(call(a, 0), 1u);
  EXPECT_EQ(call(a, 0), 2u);
  EXPECT_EQ(call(b, 0), 1u);  // b's handler keeps its own count
  EXPECT_EQ(call(a, 0), 3u);
  EXPECT_EQ(listener.accepted(), 2u);
  EXPECT_EQ(listener.live(), 2u);

  // Shutdown while a handler is mid-call returns only after that handler.
  std::thread caller([&] { call(b, kSlow); });  // its link closes under it
  ASSERT_TRUE(WaitFor([&] { return slow_started.load(); }));
  listener.Shutdown();
  EXPECT_TRUE(slow_finished.load());
  EXPECT_EQ(listener.live(), 0u);
  caller.join();
}

TEST(SocketTest, BobOutboxFetchOpcode) {
  // The two-process pickup path: decrypted masked values queued for Bob are
  // returned (and cleared) by kFetchBobOutbox.
  TwoPartyHarness harness(256, 3030);
  Random rng(3031);
  const auto& pk = harness.pk();
  std::vector<BigInt> gamma = {pk.Encrypt(BigInt(11), rng).value(),
                               pk.Encrypt(BigInt(22), rng).value()};
  ASSERT_TRUE(harness.ctx().Call(Op::kMaskedDecryptToBob, gamma).ok());
  auto fetched = harness.ctx().Call(Op::kFetchBobOutbox, {});
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched->ints.size(), 2u);
  EXPECT_EQ(fetched->ints[0], BigInt(11));
  EXPECT_EQ(fetched->ints[1], BigInt(22));
  // Second fetch: empty.
  auto again = harness.ctx().Call(Op::kFetchBobOutbox, {});
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->ints.empty());
}

TEST(SocketTest, BobOutboxFetchTakesOnlyItsOwnQuery) {
  // Records queued under query ids 0, A and B. A fetch returns only the
  // bucket of its own query id — 0 is one more key, not "everything" — so
  // no connection can take, and destroy, another query's results.
  TwoPartyHarness harness(256, 3040);
  Random rng(3041);
  const auto& pk = harness.pk();
  const uint64_t kA = 0xA11CE;
  const uint64_t kB = 0xB0B;
  ProtoContext untagged(&pk, harness.ctx().client());
  ProtoContext ctx_a(&pk, harness.ctx().client(), nullptr, kA);
  ProtoContext ctx_b(&pk, harness.ctx().client(), nullptr, kB);
  auto ship = [&](ProtoContext& ctx, int64_t v) {
    ASSERT_TRUE(ctx.Call(Op::kMaskedDecryptToBob,
                         {pk.Encrypt(BigInt(v), rng).value()})
                    .ok());
  };
  ship(untagged, 10);
  ship(ctx_a, 20);
  ship(ctx_b, 30);

  auto zero = untagged.Call(Op::kFetchBobOutbox, {});
  ASSERT_TRUE(zero.ok()) << zero.status();
  EXPECT_EQ(zero->ints, std::vector<BigInt>{BigInt(10)});
  auto b = ctx_b.Call(Op::kFetchBobOutbox, {});
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(b->ints, std::vector<BigInt>{BigInt(30)});
  // A's records are still queued, and only they remain.
  EXPECT_EQ(harness.c2().TakeBobOutbox(kA), std::vector<BigInt>{BigInt(20)});
  EXPECT_TRUE(harness.c2().TakeBobOutbox().empty());
}

}  // namespace
}  // namespace sknn
