// RPC failure-path coverage, parameterized over both links the stack runs
// on — an in-process socketpair and a real loopback TCP socket: client
// shutdown with calls in flight, a handler returning an error Status, and
// the peer disconnecting mid-call. A serving deployment lives or dies by
// these paths; none of them may hang or crash.
//
// The shard channel (coordinator <-> sknn_c1_shard worker, net/
// shard_wire.h) rides the same RpcClient/RpcServer stack, so its failure
// modes are covered here too: a worker vanishing mid-kShardQuery, calls
// issued AFTER the link already died (they must fail fast — the demux
// thread is gone and nobody would ever complete them), and a worker's
// refusal, which crosses as the kError status frame with its code intact.
// A call that gets no answer over its link is kUnavailable.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "net/rpc.h"
#include "net/shard_wire.h"
#include "net/socket.h"
#include "proto/context.h"
#include "tests/net_test_util.h"

namespace sknn {
namespace {

struct EndpointPair {
  std::unique_ptr<Endpoint> client;
  std::unique_ptr<Endpoint> server;
};

EndpointPair MakePair(bool tcp) {
  if (!tcp) {
    Channel::EndpointPair link = Channel::CreatePair();
    return {std::move(link.a), std::move(link.b)};
  }
  TcpLink link = LoopbackTcpLink();
  return {std::move(link.client), std::move(link.server)};
}

class RpcFailureTest : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(Transports, RpcFailureTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Tcp" : "Channel";
                         });

TEST_P(RpcFailureTest, ShutdownFailsCallsInFlight) {
  EndpointPair pair = MakePair(GetParam());
  // The handler stalls long enough that Shutdown() races ahead of any
  // response; the blocked Call must fail, not hang.
  RpcServer server(std::move(pair.server),
                   [](const Message& req) -> Result<Message> {
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(400));
                     Message resp;
                     resp.type = req.type;
                     return resp;
                   });
  RpcClient client(std::move(pair.client));

  Result<Message> in_flight = Status::Internal("unset");
  std::thread caller([&] {
    Message req;
    req.type = 7;
    in_flight = client.Call(std::move(req));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  client.Shutdown();
  caller.join();
  EXPECT_FALSE(in_flight.ok());
  EXPECT_EQ(in_flight.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(in_flight.status().message().find("link closed"),
            std::string::npos)
      << in_flight.status();

  // And the client stays failed-fast for later calls.
  Message again;
  again.type = 8;
  auto after = client.Call(std::move(again));
  EXPECT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
}

TEST_P(RpcFailureTest, HandlerErrorStatusSurfacesToCaller) {
  EndpointPair pair = MakePair(GetParam());
  RpcServer server(std::move(pair.server),
                   [](const Message&) -> Result<Message> {
                     return Status::Internal("handler exploded");
                   });
  RpcClient client(std::move(pair.client));

  // The RPC layer returns the handler's Status itself, code and text.
  Message req;
  req.type = OpCode(Op::kPing);
  auto resp = client.Call(std::move(req));
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kInternal);
  EXPECT_EQ(resp.status().message(), "handler exploded");

  // The protocol layer passes it on unchanged.
  ProtoContext ctx(/*pk=*/nullptr, &client);
  auto converted = ctx.Call(Op::kPing, {});
  ASSERT_FALSE(converted.ok());
  EXPECT_EQ(converted.status().code(), StatusCode::kInternal);
  EXPECT_EQ(converted.status().message(), "handler exploded");
}

TEST_P(RpcFailureTest, OldLayoutErrorFrameDecodesAsProtocolError) {
  EndpointPair pair = MakePair(GetParam());
  Endpoint* server_raw = pair.server.get();
  // A peer of the former layout: its kError aux is Status::ToString() text
  // with no code word. Whatever code that text names, the caller must read
  // a kProtocolError, never another code.
  std::vector<Status> old_errors;
  for (uint32_t code = 1; code <= static_cast<uint32_t>(kLastStatusCode);
       ++code) {
    old_errors.emplace_back(static_cast<StatusCode>(code), "why");
  }
  old_errors.push_back(Status::Internal(""));
  std::thread peer([&] {
    std::vector<uint8_t> frame;
    for (const Status& old : old_errors) {
      if (!server_raw->Recv(&frame)) return;
      Result<Message> request = WireCodec::Decode(frame);
      ASSERT_TRUE(request.ok()) << request.status();
      Message reply;
      reply.type = OpCode(Op::kError);
      reply.correlation_id = request->correlation_id;
      FrameWriter(reply.aux).Text(old.ToString());
      ASSERT_TRUE(server_raw->Send(WireCodec::Encode(reply)));
    }
  });
  RpcClient client(std::move(pair.client));
  for (const Status& old : old_errors) {
    Message req;
    req.type = OpCode(Op::kPing);
    auto resp = client.Call(std::move(req));
    EXPECT_EQ(resp.status().code(), StatusCode::kProtocolError)
        << old << " read as " << resp.status();
  }
  peer.join();
}

TEST_P(RpcFailureTest, ShardQueryAgainstDeadPeerFailsFastNotForever) {
  EndpointPair pair = MakePair(GetParam());
  // The worker dies before (or while) the coordinator speaks to it: close
  // the server side outright and give the client's demux a moment to
  // observe it.
  pair.server->Close();
  RpcClient client(std::move(pair.client));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  ShardQueryFrame frame;
  frame.query_id = 7;
  frame.k = 2;
  frame.enc_query = {Ciphertext(BigInt(123)), Ciphertext(BigInt(456))};
  // Regression: a Call AFTER the demux loop exited used to block forever if
  // the transport still buffered the send. It must fail, immediately.
  auto first = client.Call(EncodeShardQuery(frame));
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);
  auto second = client.Call(EncodeShardPing());
  EXPECT_FALSE(second.ok());
}

TEST_P(RpcFailureTest, ShardWorkerDisconnectMidQueryFailsTheCall) {
  EndpointPair pair = MakePair(GetParam());
  Endpoint* server_raw = pair.server.get();
  // A worker that reads the query leg and then dies without answering —
  // the kill/disconnect the shard coordinator maps to kUnavailable.
  std::thread peer([&] {
    std::vector<uint8_t> frame;
    (void)server_raw->Recv(&frame);
    server_raw->Close();
  });
  RpcClient client(std::move(pair.client));
  ShardQueryFrame frame;
  frame.query_id = 9;
  frame.k = 1;
  frame.enc_query = {Ciphertext(BigInt(5))};
  auto result = client.Call(EncodeShardQuery(frame));
  peer.join();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST_P(RpcFailureTest, ShardErrorFramesCarryStatusCodesIntact) {
  EndpointPair pair = MakePair(GetParam());
  // A live worker that refuses every frame — the path a coordinator uses
  // to tell "worker says no" (its real code, e.g. CryptoError) from
  // "worker is gone" (kUnavailable, the only code it fails over on besides
  // kDeadlineExceeded).
  RpcServer server(std::move(pair.server),
                   [](const Message& req) -> Result<Message> {
                     if (req.type == ShardOpCode(ShardOp::kShardPing)) {
                       return Status::Unavailable("worker draining");
                     }
                     return Status::CryptoError("bad ciphertext");
                   });
  RpcClient client(std::move(pair.client));

  auto ping = client.Call(EncodeShardPing());
  ASSERT_FALSE(ping.ok());
  EXPECT_EQ(ping.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(ping.status().message(), "worker draining");

  ShardQueryFrame frame;
  frame.query_id = 11;
  frame.k = 1;
  frame.enc_query = {Ciphertext(BigInt(5))};
  auto reply = client.Call(EncodeShardQuery(frame));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kCryptoError);
  EXPECT_EQ(reply.status().message(), "bad ciphertext");
}

TEST_P(RpcFailureTest, HungPeerResolvesToDeadlineExceededNotAStall) {
  EndpointPair pair = MakePair(GetParam());
  Endpoint* server_raw = pair.server.get();
  Mutex release_mutex;
  CondVar release_cv;
  bool released = false;
  // The silent-stall gap: a peer that READS the request and then sits on it
  // — alive (the link never closes) but never answering. Before per-call
  // timeouts, this Call blocked forever; kill -9 was the only way out.
  std::thread peer([&] {
    std::vector<uint8_t> frame;
    (void)server_raw->Recv(&frame);
    MutexLock lock(&release_mutex);
    while (!released) release_cv.Wait(release_mutex);
  });
  RpcClient client(std::move(pair.client));

  Message req;
  req.type = 7;
  const auto started = std::chrono::steady_clock::now();
  auto result = client.Call(std::move(req), std::chrono::milliseconds(200));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - started);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status();
  // Resolved by the timeout, not by some multi-second transport default.
  EXPECT_GE(elapsed.count(), 200);
  EXPECT_LT(elapsed.count(), 5000);

  // The client survives the timed-out call: wake the peer so the link is
  // torn down cleanly and later calls fail with the link error, not UB.
  {
    MutexLock lock(&release_mutex);
    released = true;
    release_cv.NotifyAll();
  }
  peer.join();
  client.Shutdown();
}

TEST_P(RpcFailureTest, PeerDisconnectMidCallFailsAllInFlight) {
  EndpointPair pair = MakePair(GetParam());
  Endpoint* server_raw = pair.server.get();
  // A raw peer that swallows a few requests and then slams the link shut
  // without answering any of them.
  constexpr int kCalls = 3;
  std::thread peer([&] {
    std::vector<uint8_t> frame;
    for (int i = 0; i < kCalls; ++i) {
      if (!server_raw->Recv(&frame)) break;
    }
    server_raw->Close();
  });
  RpcClient client(std::move(pair.client));

  std::vector<std::thread> callers;
  std::vector<Result<Message>> results(kCalls, Status::Internal("unset"));
  for (int i = 0; i < kCalls; ++i) {
    callers.emplace_back([&, i] {
      Message req;
      req.type = static_cast<uint16_t>(100 + i);
      results[i] = client.Call(std::move(req));
    });
  }
  for (auto& t : callers) t.join();
  peer.join();
  for (const auto& result : results) {
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  }
}

}  // namespace
}  // namespace sknn
