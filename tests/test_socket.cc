// Tests for the TCP transport: framing round trips over localhost, close
// semantics, the Endpoint abstraction under the RPC layer, and a full
// secure-multiplication protocol run over real sockets — the two-process
// deployment path exercised in one process.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include "net/rpc.h"
#include "net/socket.h"
#include "proto/c2_service.h"
#include "proto/sm.h"
#include "serve/query_service.h"
#include "tests/proto_test_util.h"

namespace sknn {
namespace {

struct SocketPair {
  std::unique_ptr<SocketEndpoint> client;
  std::unique_ptr<SocketEndpoint> server;
};

SocketPair MakeConnectedPair() {
  auto listener = TcpListener::Bind(0);
  EXPECT_TRUE(listener.ok()) << listener.status();
  SocketPair pair;
  std::thread accepter([&] {
    auto accepted = listener->Accept();
    EXPECT_TRUE(accepted.ok()) << accepted.status();
    pair.server = std::move(accepted).value();
  });
  auto connected = ConnectTcp("127.0.0.1", listener->port());
  EXPECT_TRUE(connected.ok()) << connected.status();
  pair.client = std::move(connected).value();
  accepter.join();
  return pair;
}

TEST(SocketTest, FrameRoundTrip) {
  SocketPair pair = MakeConnectedPair();
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
  SocketPair pair = MakeConnectedPair();
  ASSERT_TRUE(pair.client->Send({}));
  std::vector<uint8_t> frame = {42};
  ASSERT_TRUE(pair.server->Recv(&frame));
  EXPECT_TRUE(frame.empty());
}

TEST(SocketTest, LargeFrame) {
  SocketPair pair = MakeConnectedPair();
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
  SocketPair pair = MakeConnectedPair();
  pair.client->Send({1, 2, 3});
  std::vector<uint8_t> frame;
  pair.server->Recv(&frame);
  EXPECT_EQ(pair.client->bytes_sent(), 7u);  // 4-byte prefix + 3 payload
  EXPECT_EQ(pair.server->bytes_received(), 7u);
}

TEST(SocketTest, CloseUnblocksPeerRecv) {
  SocketPair pair = MakeConnectedPair();
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
      PaillierPublicKey(), EncryptedDatabase(), std::move(c2.a),
      SknnEngine::Options(), /*shards=*/0, ShardScheme::kContiguous,
      {"127.0.0.1:9200x"});
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument)
      << engine.status();
}

TEST(SocketTest, RpcOverTcp) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  std::unique_ptr<RpcServer> server;
  std::thread accepter([&] {
    auto accepted = listener->Accept();
    ASSERT_TRUE(accepted.ok());
    server = std::make_unique<RpcServer>(
        std::move(accepted).value(),
        [](const Message& req) -> Result<Message> {
          Message resp;
          resp.type = req.type + 1;
          resp.ints = req.ints;
          return resp;
        },
        1);
  });
  auto connected = ConnectTcp("127.0.0.1", listener->port());
  ASSERT_TRUE(connected.ok());
  accepter.join();
  RpcClient client(std::move(connected).value());

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

  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  std::unique_ptr<RpcServer> server;
  std::thread accepter([&] {
    auto accepted = listener->Accept();
    ASSERT_TRUE(accepted.ok());
    server = std::make_unique<RpcServer>(
        std::move(accepted).value(),
        [&c2](const Message& req) { return c2.Handle(req); }, 1);
  });
  auto connected = ConnectTcp("127.0.0.1", listener->port());
  ASSERT_TRUE(connected.ok());
  accepter.join();

  RpcClient client(std::move(connected).value());
  ProtoContext ctx(&keys.pk, &client);
  auto product = SecureMultiply(ctx, keys.pk.Encrypt(BigInt(59), rng),
                                keys.pk.Encrypt(BigInt(58), rng));
  ASSERT_TRUE(product.ok()) << product.status();
  EXPECT_EQ(c2.secret_key().Decrypt(*product), BigInt(3422));
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
