// Tests for the network substrate: wire codec round trips and malformed
// frames, in-process link semantics (FIFO, close, drain), the latency
// decorator, and the RPC layer including concurrent correlated calls — the
// property the parallel protocol variant depends on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "net/message.h"
#include "net/rpc.h"
#include "net/socket.h"

namespace sknn {
namespace {

TEST(WireCodecTest, RoundTripAllFields) {
  Message msg;
  msg.type = 7;
  msg.correlation_id = 0xDEADBEEFCAFEBABEull;
  msg.query_id = 0x0123456789ABCDEFull;
  msg.ints = {BigInt(0), BigInt(255),
              BigInt::FromString("123456789012345678901234567890").value()};
  msg.aux = {1, 2, 3, 0, 255};

  auto decoded = WireCodec::Decode(WireCodec::Encode(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, msg.type);
  EXPECT_EQ(decoded->correlation_id, msg.correlation_id);
  EXPECT_EQ(decoded->query_id, msg.query_id);
  ASSERT_EQ(decoded->ints.size(), msg.ints.size());
  for (std::size_t i = 0; i < msg.ints.size(); ++i) {
    EXPECT_EQ(decoded->ints[i], msg.ints[i]);
  }
  EXPECT_EQ(decoded->aux, msg.aux);
}

TEST(WireCodecTest, EmptyMessage) {
  Message msg;
  auto decoded = WireCodec::Decode(WireCodec::Encode(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->ints.empty());
  EXPECT_TRUE(decoded->aux.empty());
}

TEST(WireCodecTest, WireSizeMatchesEncodedSize) {
  Message msg;
  msg.type = 3;
  msg.ints = {BigInt(12345), BigInt(0)};
  msg.aux = {9, 9};
  EXPECT_EQ(WireCodec::Encode(msg).size(), msg.WireSize());
}

TEST(WireCodecTest, RejectsTruncatedFrames) {
  Message msg;
  msg.ints = {BigInt(1000)};
  std::vector<uint8_t> bytes = WireCodec::Encode(msg);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(WireCodec::Decode(truncated).ok()) << "cut at " << cut;
  }
}

TEST(WireCodecTest, RejectsTrailingBytes) {
  std::vector<uint8_t> bytes = WireCodec::Encode(Message{});
  bytes.push_back(0);
  EXPECT_FALSE(WireCodec::Decode(bytes).ok());
}

TEST(ChannelTest, FifoDelivery) {
  auto pair = Channel::CreatePair();
  EXPECT_TRUE(pair.a->Send({1}));
  EXPECT_TRUE(pair.a->Send({2}));
  std::vector<uint8_t> frame;
  ASSERT_TRUE(pair.b->Recv(&frame));
  EXPECT_EQ(frame, std::vector<uint8_t>{1});
  ASSERT_TRUE(pair.b->Recv(&frame));
  EXPECT_EQ(frame, std::vector<uint8_t>{2});
}

TEST(ChannelTest, CloseUnblocksReceiver) {
  auto pair = Channel::CreatePair();
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pair.a->Close();
  });
  std::vector<uint8_t> frame;
  EXPECT_FALSE(pair.b->Recv(&frame));
  closer.join();
  EXPECT_FALSE(pair.a->Send({1}));
}

TEST(DelayedEndpointTest, BackToBackFramesAreInFlightTogether) {
  // Each frame arrives one latency after its own send, not after the frame
  // ahead of it: a decorator that slept in Send would deliver the second
  // frame two latencies after the first send.
  constexpr std::chrono::milliseconds kLatency(30);
  auto pair = Channel::CreatePair();
  DelayedEndpoint a(std::move(pair.a), kLatency);
  DelayedEndpoint b(std::move(pair.b), kLatency);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(a.Send({1}));
  ASSERT_TRUE(a.Send({2}));
  std::vector<uint8_t> frame;
  ASSERT_TRUE(b.Recv(&frame));
  EXPECT_EQ(frame, std::vector<uint8_t>{1});
  EXPECT_GE(std::chrono::steady_clock::now() - start, kLatency);
  ASSERT_TRUE(b.Recv(&frame));
  EXPECT_EQ(frame, std::vector<uint8_t>{2});
  EXPECT_LT(std::chrono::steady_clock::now() - start, 2 * kLatency);
}

TEST(ChannelTest, ZeroLatencyDeliversImmediately) {
  auto pair = Channel::CreatePair();
  auto start = std::chrono::steady_clock::now();
  pair.a->Send({1});
  std::vector<uint8_t> frame;
  ASSERT_TRUE(pair.b->Recv(&frame));
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            50);
}

TEST(ChannelTest, DrainsQueuedFramesAfterClose) {
  auto pair = Channel::CreatePair();
  pair.a->Send({7});
  pair.a->Close();
  std::vector<uint8_t> frame;
  EXPECT_TRUE(pair.b->Recv(&frame));  // queued frame still delivered
  EXPECT_EQ(frame, std::vector<uint8_t>{7});
  EXPECT_FALSE(pair.b->Recv(&frame));
}

class EchoServerFixture : public ::testing::Test {
 protected:
  void StartServer(std::size_t workers) {
    auto pair = Channel::CreatePair();
    server_ = std::make_unique<RpcServer>(
        std::move(pair.b),
        [](const Message& req) -> Result<Message> {
          if (req.type == 99) return Status::InvalidArgument("boom");
          Message resp;
          resp.type = req.type + 1;
          resp.ints = req.ints;
          resp.aux = req.aux;
          return resp;
        },  // NOTE: the server echoes the request's query id into responses
        workers);
    client_ = std::make_unique<RpcClient>(std::move(pair.a));
  }

  std::unique_ptr<RpcServer> server_;
  std::unique_ptr<RpcClient> client_;
};

TEST_F(EchoServerFixture, BasicCall) {
  StartServer(1);
  Message req;
  req.type = 5;
  req.query_id = 42;
  req.ints = {BigInt(77)};
  auto resp = client_->Call(std::move(req));
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->type, 6);
  ASSERT_EQ(resp->ints.size(), 1u);
  EXPECT_EQ(resp->ints[0], BigInt(77));
  // The RPC server stamps every response with the request's query id, so
  // per-query demux state on the caller side can trust it.
  EXPECT_EQ(resp->query_id, 42u);
}

TEST_F(EchoServerFixture, HandlerErrorSurfacesAsErrorFrame) {
  StartServer(1);
  Message req;
  req.type = 99;
  // The error frame carries the handler's Status, and Call returns it.
  auto resp = client_->Call(std::move(req));
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(resp.status().message(), "boom");
}

TEST_F(EchoServerFixture, ConcurrentCallsAreCorrectlyCorrelated) {
  StartServer(4);
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        Message req;
        req.type = 10;
        req.ints = {BigInt(t * 1000 + i)};
        auto resp = client_->Call(std::move(req));
        if (!resp.ok() || resp->ints.size() != 1 ||
            resp->ints[0] != BigInt(t * 1000 + i)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(EchoServerFixture, CallAfterShutdownFails) {
  StartServer(1);
  client_->Shutdown();
  Message req;
  req.type = 1;
  EXPECT_FALSE(client_->Call(std::move(req)).ok());
}

}  // namespace
}  // namespace sknn
