// End-to-end tests of the serving split (PR 3): thin client ->
// QueryService (C1 query front end) -> SknnEngine::CreateWithRemoteC2 ->
// standalone C2 over a real loopback TCP link — the four-party deployment
// of docs/DEPLOY.md, exercised in one process.
//
// The reference for every assertion is the in-process engine: the remote
// path must return records bitwise-identical to SknnEngine::Query for
// basic, secure and farthest, under concurrency, with per-query
// instrumentation intact across both process boundaries.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "baseline/plaintext_knn.h"
#include "core/engine.h"
#include "net/query_wire.h"
#include "serve/query_service.h"
#include "serve/remote_query_client.h"
#include "tests/net_test_util.h"
#include "tests/shard_test_util.h"

namespace sknn {
namespace {

// Records {i, 0} against queries on the x-axis have pairwise-distinct
// squared distances, so every protocol's answer is deterministic and the
// remote path can be compared to the local engine bitwise.
PlainTable DistinctDistanceTable(std::size_t n) {
  PlainTable table;
  for (int64_t i = 0; i < static_cast<int64_t>(n); ++i) {
    table.push_back({i, 0});
  }
  return table;
}

QueryRequest MakeRequest(PlainRecord record, unsigned k,
                         QueryProtocol protocol) {
  QueryRequest request;
  request.record = std::move(record);
  request.k = k;
  request.protocol = protocol;
  return request;
}

// The whole deployment in one object: a local reference engine (which also
// supplies the keys), a standalone C2 behind a TCP listener, a
// CreateWithRemoteC2 engine driving it, and a QueryService in front.
class ServingTopology {
 public:
  explicit ServingTopology(const PlainTable& table,
                           std::size_t c1_threads = 2,
                           std::size_t max_in_flight = 8,
                           std::size_t shards = 1) {
    SknnEngine::Options options;
    options.key_bits = 256;
    options.attr_bits = 3;
    options.c1_threads = c1_threads;
    options.c2_threads = 2;
    options.randomizer_pool_capacity = 64;  // keep background fill light
    auto reference = SknnEngine::Create(table, options);
    EXPECT_TRUE(reference.ok()) << reference.status();
    reference_ = std::move(reference).value();

    // The standalone key holder: same secret key, own process in the real
    // deployment, own socket server here.
    c2_ = std::make_unique<LoopbackC2>(
        PaillierSecretKey(reference_->c2_service().secret_key()),
        /*pool_capacity=*/64);

    // The C1 front end: public artifacts only (pk + Epk(T)) plus the link,
    // or, sharded, shard workers that hold Epk(T) and reach the same C2.
    // The reference engine above stays UNSHARDED on purpose: the sharded
    // front end must be indistinguishable from it on the wire.
    EncryptedDatabase db(reference_->database());
    Result<std::unique_ptr<SknnEngine>> engine = Status::Internal("unset");
    if (shards == 1) {
      engine = SknnEngine::CreateWithRemoteC2(
          reference_->public_key(), std::move(db), c2_->Connect(), options);
    } else {
      shards_ = std::make_unique<ShardSet>(reference_->public_key(),
                                           std::move(db), c2_.get(), shards,
                                           ShardScheme::kContiguous);
      engine = shards_->MakeEngine(options);
    }
    EXPECT_TRUE(engine.ok()) << engine.status();
    engine_ = std::move(engine).value();

    QueryService::Options service_options;
    service_options.max_in_flight = max_in_flight;
    service_ = std::make_unique<QueryService>(engine_.get(), service_options);
    Status started = service_->Start(0);
    EXPECT_TRUE(started.ok()) << started;
  }

  ~ServingTopology() {
    if (service_ != nullptr) service_->Shutdown();
  }

  SknnEngine& reference() { return *reference_; }
  QueryService& service() { return *service_; }

  std::unique_ptr<RemoteQueryClient> NewClient() {
    auto client = RemoteQueryClient::Connect("127.0.0.1", service_->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(client).value();
  }

 private:
  // Declaration order is teardown order in reverse: the service goes first
  // (drains clients), then the front-end engine (closes the C2 link), then
  // the shard workers, then C2.
  std::unique_ptr<SknnEngine> reference_;
  std::unique_ptr<LoopbackC2> c2_;
  std::unique_ptr<ShardSet> shards_;
  std::unique_ptr<SknnEngine> engine_;
  std::unique_ptr<QueryService> service_;
};

TEST(ServingTest, RemotePathMatchesLocalEngineBitwise) {
  ServingTopology topology(DistinctDistanceTable(8));
  auto client = topology.NewClient();
  for (QueryProtocol protocol :
       {QueryProtocol::kBasic, QueryProtocol::kSecure,
        QueryProtocol::kFarthest}) {
    QueryRequest request = MakeRequest({7, 0}, 2, protocol);
    auto local = topology.reference().Query(request);
    ASSERT_TRUE(local.ok()) << local.status();
    auto remote = client->Query(request);
    ASSERT_TRUE(remote.ok()) << remote.status();
    EXPECT_EQ(remote->records, local->records)
        << "protocol " << QueryProtocolName(protocol);
    // Instrumentation crossed both wires: the thin client sees the real
    // C1<->C2 traffic and both clouds' Paillier ops.
    EXPECT_GT(remote->traffic.total_frames(), 0u);
    EXPECT_GT(remote->ops.decryptions, 0u);
    if (protocol != QueryProtocol::kBasic) {
      EXPECT_GT(remote->breakdown.total(), 0.0);
    }
  }
}

// kQueryResult carries all five op counters: a thin client reports the
// same OpSnapshot as the in-process engine, inversions included.
TEST(ServingTest, ThinClientSeesEveryOpCounter) {
  ServingTopology topology(DistinctDistanceTable(8));
  auto client = topology.NewClient();
  for (QueryProtocol protocol :
       {QueryProtocol::kBasic, QueryProtocol::kSecure}) {
    SCOPED_TRACE(QueryProtocolName(protocol));
    QueryRequest request = MakeRequest({5, 0}, 2, protocol);
    request.want_op_counts = true;
    auto local = topology.reference().Query(request);
    ASSERT_TRUE(local.ok()) << local.status();
    auto remote = client->Query(request);
    ASSERT_TRUE(remote.ok()) << remote.status();
    EXPECT_GT(local->ops.inversions, 0u);
    EXPECT_EQ(remote->ops.encryptions, local->ops.encryptions);
    EXPECT_EQ(remote->ops.decryptions, local->ops.decryptions);
    EXPECT_EQ(remote->ops.exponentiations, local->ops.exponentiations);
    EXPECT_EQ(remote->ops.multiplications, local->ops.multiplications);
    EXPECT_EQ(remote->ops.inversions, local->ops.inversions);
    EXPECT_FALSE(local->c2_ops_missing);
    EXPECT_FALSE(remote->c2_ops_missing);
  }
}

// A front end of another revision: its ack, byte for byte as a revision-6
// server wrote it, is refused by the client with FailedPrecondition.
TEST(ServingTest, ClientRefusesARevision6Ack) {
  Channel::EndpointPair link = Channel::CreatePair();
  // The client sends nothing but hellos: each is answered with that ack.
  RpcServer front_end(std::move(link.b), [](const Message&) -> Result<Message> {
    Message ack;
    ack.type = FrontendOpCode(FrontendOp::kHelloAck);
    FrameWriter(ack.aux).U32(6).U32(0x3FF).U32(1);
    return ack;
  });
  RemoteQueryClient client(std::move(link.a));
  auto hello = client.Hello();
  ASSERT_FALSE(hello.ok());
  EXPECT_EQ(hello.status().code(), StatusCode::kFailedPrecondition)
      << hello.status();
  auto query = client.Query(MakeRequest({1, 0}, 1, QueryProtocol::kBasic));
  EXPECT_EQ(query.status().code(), StatusCode::kFailedPrecondition)
      << query.status();
}

TEST(ServingTest, ConcurrentThinClientsAllGetTheirOwnAnswer) {
  ServingTopology topology(DistinctDistanceTable(8), /*c1_threads=*/2,
                           /*max_in_flight=*/8);
  // Distinct queries with distinct answers, so any cross-query interleaving
  // of outboxes or responses would be visible.
  std::vector<QueryRequest> requests = {
      MakeRequest({0, 0}, 2, QueryProtocol::kBasic),
      MakeRequest({5, 0}, 1, QueryProtocol::kBasic),
      MakeRequest({7, 0}, 2, QueryProtocol::kSecure),
      MakeRequest({1, 0}, 1, QueryProtocol::kSecure),
  };
  std::vector<PlainTable> expected;
  for (const auto& request : requests) {
    auto local = topology.reference().Query(request);
    ASSERT_TRUE(local.ok()) << local.status();
    expected.push_back(local->records);
  }

  std::vector<std::thread> clients;
  std::vector<Result<QueryResponse>> responses(
      requests.size(), Result<QueryResponse>(Status::Internal("unset")));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    clients.emplace_back([&, i] {
      auto client = topology.NewClient();
      responses[i] = client->Query(requests[i]);
    });
  }
  for (auto& t : clients) t.join();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << responses[i].status();
    EXPECT_EQ(responses[i]->records, expected[i]) << "request " << i;
  }
  EXPECT_EQ(topology.service().stats().queries_completed, requests.size());
}

TEST(ServingTest, BackpressureRejectsAndRetrySucceeds) {
  ServingTopology topology(DistinctDistanceTable(8), /*c1_threads=*/1,
                           /*max_in_flight=*/1);
  QueryRequest request = MakeRequest({7, 0}, 2, QueryProtocol::kSecure);
  auto expected = topology.reference().Query(request);
  ASSERT_TRUE(expected.ok()) << expected.status();

  constexpr int kClients = 5;
  std::atomic<int> rejected{0};
  std::vector<std::thread> clients;
  std::vector<Result<QueryResponse>> responses(
      kClients, Result<QueryResponse>(Status::Internal("unset")));
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      auto client = topology.NewClient();
      for (;;) {
        responses[i] = client->Query(request);
        if (responses[i].ok() || responses[i].status().code() !=
                                     StatusCode::kResourceExhausted) {
          return;
        }
        // The thin-client contract: ResourceExhausted means back off and
        // retry; eventually everyone is served.
        rejected.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  for (auto& t : clients) t.join();
  for (const auto& response : responses) {
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->records, expected->records);
  }
  // Five secure queries admitted one at a time: the burst must have tripped
  // the admission bound at least once.
  EXPECT_GT(rejected.load(), 0);
  EXPECT_EQ(topology.service().stats().queries_rejected,
            static_cast<uint64_t>(rejected.load()));
  EXPECT_EQ(topology.service().stats().queries_completed,
            static_cast<uint64_t>(kClients));
}

TEST(ServingTest, ShardedServiceBackpressureRejectsNotQueuesAndRetriesSucceed) {
  // The sharded front end under overload: an in-process 2-shard engine
  // behind a QueryService with a one-slot admission budget and a burst of
  // concurrent clients. Backpressure semantics must be exactly the
  // unsharded ones — reject with ResourceExhausted, never queue — and
  // every retried query must come back with the correct (reference-equal)
  // records and per-shard stats.
  ServingTopology topology(DistinctDistanceTable(8), /*c1_threads=*/2,
                           /*max_in_flight=*/1, /*shards=*/2);
  QueryRequest request = MakeRequest({7, 0}, 2, QueryProtocol::kSecure);
  auto expected = topology.reference().Query(request);
  ASSERT_TRUE(expected.ok()) << expected.status();

  constexpr int kClients = 4;
  std::atomic<int> rejected{0};
  std::vector<std::thread> clients;
  std::vector<Result<QueryResponse>> responses(
      kClients, Result<QueryResponse>(Status::Internal("unset")));
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      auto client = topology.NewClient();
      for (;;) {
        responses[i] = client->Query(request);
        if (responses[i].ok() || responses[i].status().code() !=
                                     StatusCode::kResourceExhausted) {
          return;
        }
        rejected.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  for (auto& t : clients) t.join();
  for (const auto& response : responses) {
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->records, expected->records)
        << "a retried sharded query returned wrong records";
    // The shard split crossed the client wire intact.
    ASSERT_EQ(response->shards.size(), 2u);
    EXPECT_GT(response->shards[0].traffic.total_frames(), 0u);
    EXPECT_GT(response->shards[1].traffic.total_frames(), 0u);
  }
  EXPECT_GT(rejected.load(), 0);
  EXPECT_EQ(topology.service().stats().queries_rejected,
            static_cast<uint64_t>(rejected.load()));
  EXPECT_EQ(topology.service().stats().queries_completed,
            static_cast<uint64_t>(kClients));
}

TEST(ServingTest, InvalidRequestsGetRealStatusCodesOverTheWire) {
  ServingTopology topology(DistinctDistanceTable(4));
  auto client = topology.NewClient();

  auto k_zero = client->Query(MakeRequest({1, 0}, 0, QueryProtocol::kBasic));
  ASSERT_FALSE(k_zero.ok());
  EXPECT_EQ(k_zero.status().code(), StatusCode::kInvalidArgument);

  auto k_too_big =
      client->Query(MakeRequest({1, 0}, 99, QueryProtocol::kBasic));
  ASSERT_FALSE(k_too_big.ok());
  // k > k_max is a malformed REQUEST (fail fast at admission), not a range
  // overrun mid-protocol: typed kInvalidArgument, before any crypto runs.
  EXPECT_EQ(k_too_big.status().code(), StatusCode::kInvalidArgument);

  auto bad_dim =
      client->Query(MakeRequest({1, 0, 3}, 1, QueryProtocol::kBasic));
  ASSERT_FALSE(bad_dim.ok());
  EXPECT_EQ(bad_dim.status().code(), StatusCode::kInvalidArgument);

  auto out_of_domain =
      client->Query(MakeRequest({12345, 0}, 1, QueryProtocol::kSecure));
  ASSERT_FALSE(out_of_domain.ok());
  EXPECT_EQ(out_of_domain.status().code(), StatusCode::kOutOfRange);

  // The failures above must not have consumed the admission budget.
  auto still_fine =
      client->Query(MakeRequest({1, 0}, 1, QueryProtocol::kBasic));
  EXPECT_TRUE(still_fine.ok()) << still_fine.status();
}

TEST(ServingTest, RetryBackoffSurvivesDegenerateAndExtremePolicies) {
  // The backoff arithmetic must stay positive and finite for ANY policy a
  // config file can express — a mis-parsed zero/negative initial backoff
  // must not busy-loop, and extreme values must not overflow the int64
  // conversion into a zero or negative sleep.
  RetryPolicy policy;
  policy.jitter = 0.0;

  policy.initial_backoff = std::chrono::milliseconds(0);
  EXPECT_EQ(RetryBackoff(policy, 1, 0.5).count(), 1);
  policy.initial_backoff = std::chrono::milliseconds(-50);
  EXPECT_EQ(RetryBackoff(policy, 1, 0.5).count(), 1);
  policy.max_backoff = std::chrono::milliseconds(-1);
  EXPECT_GE(RetryBackoff(policy, 40, 0.5).count(), 1);

  // Huge attempt counts: the exponential shift is capped, the wait lands on
  // max_backoff instead of wrapping to zero/negative.
  policy.initial_backoff = std::chrono::milliseconds(50);
  policy.max_backoff = std::chrono::milliseconds(2000);
  EXPECT_EQ(RetryBackoff(policy, 1000000, 0.5).count(), 2000);
  EXPECT_EQ(RetryBackoff(policy, std::numeric_limits<int>::max(), 0.5).count(),
            2000);

  // milliseconds::max() everywhere: the result is clamped below int64
  // range, still positive, still monotone in spirit (a cap, not a wrap).
  policy.initial_backoff = std::chrono::milliseconds::max();
  policy.max_backoff = std::chrono::milliseconds::max();
  const auto extreme = RetryBackoff(policy, 100, 1.0);
  EXPECT_GT(extreme.count(), 0);
  EXPECT_LE(extreme.count(), static_cast<int64_t>(9.0e15));

  // Jitter never zeroes the wait either: even full jitter with a 0 draw
  // keeps the 1 ms floor.
  policy.initial_backoff = std::chrono::milliseconds(1);
  policy.max_backoff = std::chrono::milliseconds(1);
  policy.jitter = 1.0;
  EXPECT_GE(RetryBackoff(policy, 1, 0.0).count(), 1);
}

TEST(ServingTest, DeadlineZeroMeansUnboundedEverywhere) {
  // deadline_ms = 0 is "no deadline" at every layer: the wire carries the
  // word as an explicit 0 in every index mode, the decoder reproduces 0,
  // and the serving stack runs the query to completion instead of
  // expiring it instantly.
  QueryRequest request = MakeRequest({1, 0}, 2, QueryProtocol::kSecure);
  request.deadline_ms = 0;
  for (IndexMode mode : {IndexMode::kExact, IndexMode::kClustered}) {
    request.index_mode = mode;
    auto decoded = DecodeQueryRequest(EncodeQueryRequest(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->deadline_ms, 0u);
  }

  ServingTopology topology(DistinctDistanceTable(6));
  auto client = topology.NewClient();
  QueryRequest unbounded = MakeRequest({2, 0}, 3, QueryProtocol::kSecure);
  unbounded.deadline_ms = 0;
  auto no_deadline = client->Query(unbounded);
  ASSERT_TRUE(no_deadline.ok()) << no_deadline.status();
  QueryRequest generous = MakeRequest({2, 0}, 3, QueryProtocol::kSecure);
  generous.deadline_ms = 600000;
  auto with_deadline = client->Query(generous);
  ASSERT_TRUE(with_deadline.ok()) << with_deadline.status();
  EXPECT_EQ(no_deadline->records, with_deadline->records);
}

TEST(ServingTest, MalformedFramesAreRejectedNotHung) {
  ServingTopology topology(DistinctDistanceTable(4));
  auto link = ConnectTcp("127.0.0.1", topology.service().port());
  ASSERT_TRUE(link.ok()) << link.status();
  RpcClient raw(std::move(link).value());

  // A frame with the right opcode and garbage aux.
  Message garbage;
  garbage.type = FrontendOpCode(FrontendOp::kQuery);
  garbage.aux = {1, 2, 3};
  auto reply = raw.Call(std::move(garbage));
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->type, FrontendOpCode(FrontendOp::kQueryError));
  EXPECT_EQ(DecodeQueryError(*reply).code(), StatusCode::kProtocolError);

  // A frame from the wrong opcode space entirely (a C1<->C2 opcode).
  Message wrong_space;
  wrong_space.type = OpCode(Op::kSmVec);
  auto reply2 = raw.Call(std::move(wrong_space));
  ASSERT_TRUE(reply2.ok()) << reply2.status();
  EXPECT_EQ(reply2->type, FrontendOpCode(FrontendOp::kQueryError));
}

TEST(ServingTest, CreateWithRemoteC2FailsFastOnDeadLink) {
  PlainTable table = DistinctDistanceTable(4);
  SknnEngine::Options options;
  options.key_bits = 256;
  options.attr_bits = 3;
  auto reference = SknnEngine::Create(table, options);
  ASSERT_TRUE(reference.ok()) << reference.status();

  // A listener that is immediately closed: the connect may succeed at the
  // TCP level, but the ping gets no answer.
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  uint16_t dead_port = listener->port();
  auto link = ConnectTcp("127.0.0.1", dead_port);
  listener->Close();
  if (!link.ok()) return;  // connect itself failed: equally fine
  auto engine = SknnEngine::CreateWithRemoteC2(
      (*reference)->public_key(), EncryptedDatabase((*reference)->database()),
      std::move(link).value(), options);
  EXPECT_FALSE(engine.ok());
}

// A C2 stand-in that answers the join ping and refuses every other frame
// with the code under test: each defined non-OK code comes out of the
// engine's Query unchanged, and out of a thin client's Query through a
// QueryService in front of that engine.
TEST(ServingTest, C2ErrorCodesReachTheEngineAndTheThinClient) {
  PlainTable table = DistinctDistanceTable(4);
  SknnEngine::Options options;
  options.key_bits = 256;
  options.attr_bits = 3;
  options.randomizer_pool_capacity = 64;
  auto reference = SknnEngine::Create(table, options);
  ASSERT_TRUE(reference.ok()) << reference.status();

  std::atomic<uint32_t> injected{0};
  Channel::EndpointPair link = Channel::CreatePair();
  RpcServer c2(std::move(link.b),
               [&injected](const Message& req) -> Result<Message> {
                 if (req.type == OpCode(Op::kPing)) return req;
                 return Status(static_cast<StatusCode>(injected.load()),
                               "injected by the C2 stand-in");
               });
  auto engine = SknnEngine::CreateWithRemoteC2(
      (*reference)->public_key(), EncryptedDatabase((*reference)->database()),
      std::move(link.a), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  QueryService service(engine->get(), QueryService::Options{});
  ASSERT_TRUE(service.Start(0).ok());
  auto client = RemoteQueryClient::Connect("127.0.0.1", service.port());
  ASSERT_TRUE(client.ok()) << client.status();

  for (uint32_t code = 1; code <= static_cast<uint32_t>(kLastStatusCode);
       ++code) {
    injected.store(code);
    const QueryRequest request = MakeRequest({2, 0}, 1, QueryProtocol::kBasic);
    auto direct = (*engine)->Query(request);
    ASSERT_FALSE(direct.ok()) << code;
    EXPECT_EQ(direct.status().code(), static_cast<StatusCode>(code))
        << direct.status();
    EXPECT_EQ(direct.status().message(), "injected by the C2 stand-in");
    auto served = (*client)->Query(request);
    ASSERT_FALSE(served.ok()) << code;
    EXPECT_EQ(served.status().code(), static_cast<StatusCode>(code))
        << served.status();
  }
  client->reset();
  service.Shutdown();
}

// A front end that drops its link mid-query: its first link answers the
// hello and closes when the query arrives, its second answers normally.
// The dropped link reads kUnavailable, so a single-endpoint client that
// retries kUnavailable redials and gets the answer.
TEST(ServingTest, SingleEndpointClientRetriesAFrontEndThatDroppedItsLink) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  QueryResponse answer;
  answer.records = {{3, 0}};
  std::thread front_end([&] {
    for (int link_no = 0; link_no < 2; ++link_no) {
      auto link = listener->Accept();
      if (!link.ok()) return;
      std::vector<uint8_t> frame;
      while ((*link)->Recv(&frame)) {
        Result<Message> request = WireCodec::Decode(frame);
        if (!request.ok()) break;
        Message reply;
        if (request->type == FrontendOpCode(FrontendOp::kHello)) {
          reply = EncodeHelloAck(HelloInfo{});
        } else if (link_no == 0) {
          break;  // the drop, with the query in flight
        } else {
          reply = EncodeQueryResponse(answer);
        }
        reply.correlation_id = request->correlation_id;
        if (!(*link)->Send(WireCodec::Encode(reply))) break;
      }
      (*link)->Close();
    }
  });

  auto client = RemoteQueryClient::Connect("127.0.0.1", listener->port());
  EXPECT_TRUE(client.ok()) << client.status();
  if (client.ok()) {
    RetryPolicy policy;
    policy.retry_unavailable = true;
    policy.initial_backoff = std::chrono::milliseconds(1);
    policy.jitter = 0;
    auto response = (*client)->QueryWithRetry(
        MakeRequest({3, 0}, 1, QueryProtocol::kBasic), policy);
    EXPECT_TRUE(response.ok()) << response.status();
    if (response.ok()) {
      EXPECT_EQ(response->records, answer.records);
    }
    client->reset();  // closes the client's link, so the front end returns
  }
  listener->Close();  // or gives up waiting for a second link
  front_end.join();
}

// The engine's two meta-reply readers (kFetchQueryOps, kFetchPoolStats)
// against a C2 whose answers to them arrive one byte short: instrumentation
// is best-effort, so the query still returns the oracle's records, C2's
// share of the ops and the C2 pool counters read zero, and the lost op
// counts leave one warning in the log and mark the response
// c2_ops_missing, in-process and through a thin client alike.
TEST(ServingTest, TruncatedC2MetaRepliesCostOnlyInstrumentation) {
  PlainTable table = DistinctDistanceTable(6);
  SknnEngine::Options options;
  options.key_bits = 256;
  options.attr_bits = 3;
  options.randomizer_pool_capacity = 64;
  auto reference = SknnEngine::Create(table, options);
  ASSERT_TRUE(reference.ok()) << reference.status();

  C2Service c2(PaillierSecretKey((*reference)->c2_service().secret_key()));
  c2.EnableRandomizerPool(/*capacity=*/64);
  Channel::EndpointPair link = Channel::CreatePair();
  RpcServer server(
      std::move(link.b),
      [&c2](const Message& req) -> Result<Message> {
        Result<Message> resp = c2.Handle(req);
        if (resp.ok() && (resp->type == OpCode(Op::kFetchQueryOps) ||
                          resp->type == OpCode(Op::kFetchPoolStats))) {
          resp->aux.pop_back();
        }
        return resp;
      },
      /*worker_threads=*/1);
  auto engine = SknnEngine::CreateWithRemoteC2(
      (*reference)->public_key(), EncryptedDatabase((*reference)->database()),
      std::move(link.a), options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  QueryRequest request = MakeRequest({4, 0}, 3, QueryProtocol::kSecure);
  request.want_op_counts = true;
  testing::internal::CaptureStderr();
  auto response = (*engine)->Query(request);
  const std::string log = testing::internal::GetCapturedStderr();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->records, PlainKnn(table, request.record, request.k));
  // Only C2 decrypts, so no decryption in the total means C2's share of
  // the ops was dropped; C1's share is still there.
  EXPECT_EQ(response->ops.decryptions, 0u);
  EXPECT_GT(response->ops.encryptions, 0u);
  EXPECT_NE(log.find("C2's op counts are missing"), std::string::npos)
      << log;
  EXPECT_TRUE(response->c2_ops_missing);

  QueryService service(engine->get(), QueryService::Options{});
  ASSERT_TRUE(service.Start(0).ok());
  auto client = RemoteQueryClient::Connect("127.0.0.1", service.port());
  ASSERT_TRUE(client.ok()) << client.status();
  testing::internal::CaptureStderr();
  auto served = (*client)->Query(request);
  testing::internal::GetCapturedStderr();
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(served->records, response->records);
  EXPECT_EQ(served->ops.decryptions, 0u);
  EXPECT_TRUE(served->c2_ops_missing);
  client->reset();
  service.Shutdown();

  const SknnEngine::RandomizerPoolStats stats =
      (*engine)->randomizer_pool_stats();
  EXPECT_EQ(stats.c1_capacity, 64u);
  EXPECT_EQ(stats.c2_hits, 0u);
  EXPECT_EQ(stats.c2_misses, 0u);
  EXPECT_EQ(stats.c2_stock, 0u);
  EXPECT_EQ(stats.c2_capacity, 0u);
}

}  // namespace
}  // namespace sknn
