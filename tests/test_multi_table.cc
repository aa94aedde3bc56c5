// The multi-table serving contract (PR 5): one QueryService hosting many
// independent tables — each with its own Paillier keys, database and
// geometry — behind the versioned wire protocol of docs/API.md.
//
// What must hold: (1) two tables with different keys and dimensions served
// concurrently return records bitwise-identical to their dedicated
// single-table engines; (2) hello version mismatch, unknown table, and
// pre-hello traffic all yield typed Status codes over the wire, never
// garbage or hangs; (3) the control plane (ListTables / TableInfo /
// ServiceStats) round-trips through RemoteQueryClient; (4) the legacy
// single-table shape (empty table name against a sole-table service) still
// works; (5) the thin-client retry policy backs off with bounded jitter
// under a max-elapsed cap.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "net/query_wire.h"
#include "serve/query_service.h"
#include "serve/remote_query_client.h"
#include "serve/table_registry.h"
#include "tests/net_test_util.h"
#include "tests/shard_test_util.h"

namespace sknn {
namespace {

QueryRequest MakeRequest(std::string table, PlainRecord record, unsigned k,
                         QueryProtocol protocol = QueryProtocol::kSecure) {
  QueryRequest request;
  request.table = std::move(table);
  request.record = std::move(record);
  request.k = k;
  request.protocol = protocol;
  return request;
}

// One table's complete backing: a local reference engine (which supplies
// the keys — every MakeTable call therefore mints a DIFFERENT key pair), a
// standalone C2 behind a TCP listener, and the CreateWithRemoteC2 engine
// the front end serves.
struct TableStack {
  std::unique_ptr<SknnEngine> reference;
  std::unique_ptr<LoopbackC2> c2;
  // Sharded tables only: the shard workers, which hold Epk(T).
  std::unique_ptr<ShardSet> shards;
  std::unique_ptr<SknnEngine> engine;
};

TableStack MakeTable(const PlainTable& table, unsigned attr_bits,
                     std::size_t shards = 1) {
  TableStack stack;
  SknnEngine::Options options;
  options.key_bits = 256;
  options.attr_bits = attr_bits;
  options.c1_threads = 2;
  options.c2_threads = 2;
  options.randomizer_pool_capacity = 64;  // keep background fill light
  auto reference = SknnEngine::Create(table, options);
  EXPECT_TRUE(reference.ok()) << reference.status();
  stack.reference = std::move(reference).value();

  stack.c2 = std::make_unique<LoopbackC2>(
      PaillierSecretKey(stack.reference->c2_service().secret_key()),
      /*pool_capacity=*/64);

  EncryptedDatabase db(stack.reference->database());
  Result<std::unique_ptr<SknnEngine>> engine = Status::Internal("unset");
  if (shards == 1) {
    engine = SknnEngine::CreateWithRemoteC2(stack.reference->public_key(),
                                            std::move(db), stack.c2->Connect(),
                                            options);
  } else {
    stack.shards = std::make_unique<ShardSet>(
        stack.reference->public_key(), std::move(db), stack.c2.get(), shards,
        ShardScheme::kContiguous);
    engine = stack.shards->MakeEngine(options);
  }
  EXPECT_TRUE(engine.ok()) << engine.status();
  stack.engine = std::move(engine).value();
  return stack;
}

// Two tables with nothing in common — keys, dimension, attribute domain —
// behind one service. "alpha": 8 records of 2 attributes in [0, 8);
// "beta": 6 records of 3 attributes in [0, 16), sharded when asked.
class MultiTableTopology {
 public:
  explicit MultiTableTopology(std::size_t beta_shards = 1,
                              std::size_t max_in_flight = 8) {
    PlainTable alpha_table;
    for (int64_t i = 0; i < 8; ++i) alpha_table.push_back({i, 0});
    PlainTable beta_table;
    for (int64_t i = 0; i < 6; ++i) beta_table.push_back({2 * i, 1, 3});
    alpha_ = MakeTable(alpha_table, /*attr_bits=*/3);
    beta_ = MakeTable(beta_table, /*attr_bits=*/4, beta_shards);

    EXPECT_TRUE(registry_.Register("alpha", alpha_.engine.get()).ok());
    EXPECT_TRUE(registry_.Register("beta", beta_.engine.get()).ok());
    QueryService::Options options;
    options.max_in_flight = max_in_flight;
    service_ = std::make_unique<QueryService>(&registry_, options);
    Status started = service_->Start(0);
    EXPECT_TRUE(started.ok()) << started;
  }

  ~MultiTableTopology() {
    if (service_ != nullptr) service_->Shutdown();
  }

  SknnEngine& alpha_reference() { return *alpha_.reference; }
  SknnEngine& beta_reference() { return *beta_.reference; }
  QueryService& service() { return *service_; }
  TableRegistry& registry() { return registry_; }

  std::unique_ptr<RemoteQueryClient> NewClient() {
    auto client = RemoteQueryClient::Connect("127.0.0.1", service_->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(client).value();
  }

  // A raw frame pipe around the client library — for speaking the protocol
  // wrong on purpose.
  std::unique_ptr<RpcClient> NewRawLink() {
    auto link = ConnectTcp("127.0.0.1", service_->port());
    EXPECT_TRUE(link.ok()) << link.status();
    return std::make_unique<RpcClient>(std::move(link).value());
  }

 private:
  // Teardown order: service first (drains clients), then each stack's
  // engine (closes its C2 link), then the C2 servers.
  TableStack alpha_;
  TableStack beta_;
  TableRegistry registry_;
  std::unique_ptr<QueryService> service_;
};

TEST(MultiTableTest, TwoTablesWithDifferentKeysServeConcurrentlyBitwise) {
  MultiTableTopology topology;
  // The dedicated single-table engines are the ground truth; the served
  // multi-table path must be indistinguishable from them, per table.
  struct Case {
    QueryRequest request;
    PlainTable expected;
  };
  std::vector<Case> cases;
  for (QueryProtocol protocol :
       {QueryProtocol::kBasic, QueryProtocol::kSecure}) {
    Case alpha{MakeRequest("alpha", {7, 0}, 2, protocol), {}};
    auto alpha_local = topology.alpha_reference().Query(alpha.request);
    ASSERT_TRUE(alpha_local.ok()) << alpha_local.status();
    alpha.expected = alpha_local->records;
    cases.push_back(std::move(alpha));

    Case beta{MakeRequest("beta", {9, 1, 3}, 3, protocol), {}};
    auto beta_local = topology.beta_reference().Query(beta.request);
    ASSERT_TRUE(beta_local.ok()) << beta_local.status();
    beta.expected = beta_local->records;
    cases.push_back(std::move(beta));
  }

  // All four queries in flight at once, alternating tables, one connection
  // each: cross-table interleaving of outboxes, keys, or responses would
  // corrupt at least one answer.
  std::vector<std::thread> clients;
  std::vector<Result<QueryResponse>> responses(
      cases.size(), Result<QueryResponse>(Status::Internal("unset")));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    clients.emplace_back([&, i] {
      auto client = topology.NewClient();
      responses[i] = client->Query(cases[i].request);
    });
  }
  for (auto& t : clients) t.join();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << responses[i].status();
    EXPECT_EQ(responses[i]->records, cases[i].expected)
        << "case " << i << " (table " << cases[i].request.table << ")";
  }
  EXPECT_EQ(topology.service().stats().queries_completed, cases.size());
}

TEST(MultiTableTest, ShardedTableBehindTheSameContract) {
  MultiTableTopology topology(/*beta_shards=*/2);
  auto client = topology.NewClient();
  QueryRequest request = MakeRequest("beta", {9, 1, 3}, 3);
  auto local = topology.beta_reference().Query(request);
  ASSERT_TRUE(local.ok()) << local.status();
  auto remote = client->Query(request);
  ASSERT_TRUE(remote.ok()) << remote.status();
  EXPECT_EQ(remote->records, local->records);
  EXPECT_EQ(remote->shards.size(), 2u);

  auto info = client->TableInfo("beta");
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->num_shards, 2u);
  EXPECT_TRUE(info->remote_workers);

  // kHealth reports one replica per shard worker of the sharded table, and
  // none for the unsharded one: it has nothing to fail over to.
  auto health = client->Health();
  ASSERT_TRUE(health.ok()) << health.status();
  ASSERT_EQ(health->tables.size(), 2u);
  for (const TableHealthEntry& table : health->tables) {
    if (table.name != "beta") {
      EXPECT_TRUE(table.replicas.empty()) << table.name;
      continue;
    }
    ASSERT_EQ(table.replicas.size(), 2u);
    for (uint32_t shard = 0; shard < 2; ++shard) {
      EXPECT_EQ(table.replicas[shard].shard, shard);
      EXPECT_EQ(table.replicas[shard].replica, 0u);
      EXPECT_TRUE(table.replicas[shard].healthy);
    }
  }
}

TEST(MultiTableTest, WrongTableNamesYieldTypedStatusCodes) {
  MultiTableTopology topology;
  auto client = topology.NewClient();

  auto unknown = client->Query(MakeRequest("gamma", {1, 0}, 1));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  // Two tables served: the sole-table shorthand (empty name) is ambiguous.
  auto ambiguous = client->Query(MakeRequest("", {1, 0}, 1));
  ASSERT_FALSE(ambiguous.ok());
  EXPECT_EQ(ambiguous.status().code(), StatusCode::kInvalidArgument);

  // Neither failure consumed the admission budget or wedged the session.
  auto fine = client->Query(MakeRequest("alpha", {1, 0}, 1,
                                        QueryProtocol::kBasic));
  EXPECT_TRUE(fine.ok()) << fine.status();
}

TEST(MultiTableTest, OversizedKIsRejectedAtAdmissionWithInvalidArgument) {
  // k > k_max is a malformed REQUEST, caught at admission — typed
  // kInvalidArgument over the wire, before any Paillier work runs. (The
  // regression this pins: the engine used to start the protocol and fail
  // mid-flight with kOutOfRange, burning a full SSED round on C1.)
  MultiTableTopology topology;
  auto client = topology.NewClient();

  auto info = client->TableInfo("alpha");
  ASSERT_TRUE(info.ok()) << info.status();
  ASSERT_EQ(info->k_max, 8u);  // = num_records

  auto too_big = client->Query(MakeRequest("alpha", {1, 0}, info->k_max + 1));
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kInvalidArgument);

  // The boundary itself is fine, and the rejection neither consumed the
  // admission budget nor wedged the session.
  auto at_max = client->Query(
      MakeRequest("alpha", {1, 0}, info->k_max, QueryProtocol::kBasic));
  EXPECT_TRUE(at_max.ok()) << at_max.status();
  EXPECT_EQ(at_max->records.size(), std::size_t{info->k_max});
}

TEST(MultiTableTest, PreHelloTrafficGetsTypedStatusNeverGarbage) {
  MultiTableTopology topology;
  auto raw = topology.NewRawLink();

  // A perfectly well-formed query — but the session never negotiated.
  auto reply = raw->Call(EncodeQueryRequest(MakeRequest("alpha", {1, 0}, 1)));
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->type, FrontendOpCode(FrontendOp::kQueryError));
  EXPECT_EQ(DecodeQueryError(*reply).code(),
            StatusCode::kFailedPrecondition);

  // Control frames are gated exactly the same.
  auto list_reply = raw->Call(EncodeListTablesRequest());
  ASSERT_TRUE(list_reply.ok()) << list_reply.status();
  ASSERT_EQ(list_reply->type, FrontendOpCode(FrontendOp::kQueryError));
  EXPECT_EQ(DecodeQueryError(*list_reply).code(),
            StatusCode::kFailedPrecondition);

  // The gate is an answer, not a hangup: the same session can still hello
  // and then be served.
  HelloInfo hello;
  auto ack = raw->Call(EncodeHello(hello));
  ASSERT_TRUE(ack.ok()) << ack.status();
  ASSERT_EQ(ack->type, FrontendOpCode(FrontendOp::kHelloAck));
  auto served = raw->Call(EncodeQueryRequest(
      MakeRequest("alpha", {1, 0}, 1, QueryProtocol::kBasic)));
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(served->type, FrontendOpCode(FrontendOp::kQueryResult));
  EXPECT_GT(topology.service().stats().hello_rejected, 0u);
}

TEST(MultiTableTest, HelloVersionMismatchIsRejectedWithTypedStatus) {
  MultiTableTopology topology;
  auto raw = topology.NewRawLink();

  // A revision-1 client (the PR 3/4 era predates the hello frame entirely,
  // but a hypothetical one), a client from the future, and a revision-6
  // client's hello byte for byte as its encoder wrote it ([revision 6]
  // [feature bits][reserved], longer than this revision's hello) all get
  // the same typed answer, naming the revision this server speaks: the
  // decoder reads the revision word before the frame's length.
  std::vector<Message> hellos;
  for (uint32_t revision : {uint32_t{1}, kProtocolRevision + 1}) {
    hellos.push_back(EncodeHello(HelloInfo{revision, 0}));
  }
  hellos.push_back(EncodeHello(HelloInfo{}));
  hellos.back().aux.clear();
  FrameWriter(hellos.back().aux).U32(6).U32(0x3FF).U32(0);
  const uint64_t rejected_before = topology.service().stats().hello_rejected;
  for (const Message& hello : hellos) {
    auto reply = raw->Call(hello);
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_EQ(reply->type, FrontendOpCode(FrontendOp::kQueryError));
    const Status refused = DecodeQueryError(*reply);
    EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition) << refused;
    EXPECT_NE(refused.message().find("revision 7"), std::string::npos)
        << refused;
  }
  EXPECT_EQ(topology.service().stats().hello_rejected,
            rejected_before + hellos.size());
  // The rejected hellos did not mark the session negotiated.
  auto still_gated = raw->Call(EncodeQueryRequest(
      MakeRequest("alpha", {1, 0}, 1, QueryProtocol::kBasic)));
  ASSERT_TRUE(still_gated.ok()) << still_gated.status();
  EXPECT_EQ(still_gated->type, FrontendOpCode(FrontendOp::kQueryError));

  // A correct hello on the same session unlocks it.
  auto good = raw->Call(EncodeHello(HelloInfo{}));
  ASSERT_TRUE(good.ok()) << good.status();
  auto decoded = DecodeHelloAck(*good);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->revision, kProtocolRevision);
  EXPECT_EQ(decoded->num_tables, 2u);
}

TEST(MultiTableTest, ControlPlaneRoundTripsThroughRemoteQueryClient) {
  MultiTableTopology topology;
  auto client = topology.NewClient();

  auto hello = client->Hello();
  ASSERT_TRUE(hello.ok()) << hello.status();
  EXPECT_EQ(hello->revision, kProtocolRevision);
  EXPECT_EQ(hello->num_tables, 2u);

  auto tables = client->ListTables();
  ASSERT_TRUE(tables.ok()) << tables.status();
  EXPECT_EQ(*tables, (std::vector<std::string>{"alpha", "beta"}));

  auto info = client->TableInfo("alpha");
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->name, "alpha");
  EXPECT_EQ(info->num_records, 8u);
  EXPECT_EQ(info->num_attributes, 2u);
  EXPECT_EQ(info->attr_bits, 3u);
  EXPECT_EQ(info->k_max, 8u);
  EXPECT_EQ(info->num_shards, 1u);
  auto beta_info = client->TableInfo("beta");
  ASSERT_TRUE(beta_info.ok()) << beta_info.status();
  EXPECT_EQ(beta_info->num_attributes, 3u);
  EXPECT_EQ(beta_info->attr_bits, 4u);

  auto missing = client->TableInfo("gamma");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // Stats reflect real per-table traffic: run 2 alpha + 1 beta queries and
  // one failing alpha query, then read the counters back over the wire.
  for (int i = 0; i < 2; ++i) {
    auto ok = client->Query(MakeRequest("alpha", {1, 0}, 1,
                                        QueryProtocol::kBasic));
    ASSERT_TRUE(ok.ok()) << ok.status();
  }
  auto ok = client->Query(MakeRequest("beta", {0, 1, 3}, 1,
                                      QueryProtocol::kBasic));
  ASSERT_TRUE(ok.ok()) << ok.status();
  auto bad = client->Query(MakeRequest("alpha", {1, 0}, 99));
  ASSERT_FALSE(bad.ok());

  auto stats = client->ServiceStats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->uptime_seconds, 0.0);
  EXPECT_GE(stats->connections_accepted, 1u);
  EXPECT_EQ(stats->in_flight, 0u);
  ASSERT_EQ(stats->tables.size(), 2u);
  EXPECT_EQ(stats->tables[0].name, "alpha");
  EXPECT_EQ(stats->tables[0].completed, 2u);
  EXPECT_EQ(stats->tables[0].failed, 1u);
  EXPECT_EQ(stats->tables[1].name, "beta");
  EXPECT_EQ(stats->tables[1].completed, 1u);
  EXPECT_EQ(stats->tables[1].failed, 0u);
}

TEST(MultiTableTest, LegacySoleTableShapeStillServesEmptyName) {
  // The single-engine QueryService constructor — the PR 3/4 deployments'
  // shape — must keep working, including the empty (sole-table) name.
  PlainTable table;
  for (int64_t i = 0; i < 4; ++i) table.push_back({i, 0});
  TableStack stack = MakeTable(table, /*attr_bits=*/3);
  QueryService::Options options;
  QueryService service(stack.engine.get(), options);
  ASSERT_TRUE(service.Start(0).ok());

  auto client = RemoteQueryClient::Connect("127.0.0.1", service.port());
  ASSERT_TRUE(client.ok()) << client.status();
  QueryRequest request = MakeRequest("", {3, 0}, 2, QueryProtocol::kBasic);
  auto local = stack.reference->Query(request);
  ASSERT_TRUE(local.ok()) << local.status();
  auto remote = (*client)->Query(request);
  ASSERT_TRUE(remote.ok()) << remote.status();
  EXPECT_EQ(remote->records, local->records);

  // The sole table is discoverable under its registered name too.
  auto tables = (*client)->ListTables();
  ASSERT_TRUE(tables.ok()) << tables.status();
  EXPECT_EQ(*tables, std::vector<std::string>{"default"});
  auto info = (*client)->TableInfo("");
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->name, "default");
  service.Shutdown();
}

TEST(MultiTableTest, QueryWithRetryRidesOutBackpressure) {
  MultiTableTopology topology(/*beta_shards=*/1, /*max_in_flight=*/1);
  QueryRequest request = MakeRequest("alpha", {7, 0}, 2);
  auto expected = topology.alpha_reference().Query(request);
  ASSERT_TRUE(expected.ok()) << expected.status();

  RetryPolicy policy;
  policy.max_attempts = 200;
  policy.initial_backoff = std::chrono::milliseconds(5);
  policy.max_backoff = std::chrono::milliseconds(40);
  policy.max_elapsed = std::chrono::milliseconds(60000);

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::vector<Result<QueryResponse>> responses(
      kClients, Result<QueryResponse>(Status::Internal("unset")));
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      auto client = topology.NewClient();
      responses[i] = client->QueryWithRetry(request, policy);
    });
  }
  for (auto& t : clients) t.join();
  for (const auto& response : responses) {
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->records, expected->records);
  }
  // A 1-slot budget under a 4-client burst must have rejected someone, and
  // the rejections must be attributed to the right table.
  auto stats = topology.service().stats();
  EXPECT_GT(stats.queries_rejected, 0u);
  TableRegistry::Entry* alpha = topology.registry().Find("alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->counters.rejected.load(), stats.queries_rejected);
  EXPECT_EQ(alpha->counters.completed.load(),
            static_cast<uint64_t>(kClients));
}

TEST(MultiTableTest, RetryBackoffGrowsJittersAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff = std::chrono::milliseconds(100);
  policy.max_backoff = std::chrono::milliseconds(1000);
  policy.jitter = 0.5;

  // Deterministic floor: with uniform01 = 0 only the guaranteed share
  // remains; growth is exponential until the cap.
  EXPECT_EQ(RetryBackoff(policy, 1, 0.0).count(), 50);
  EXPECT_EQ(RetryBackoff(policy, 2, 0.0).count(), 100);
  EXPECT_EQ(RetryBackoff(policy, 3, 0.0).count(), 200);
  EXPECT_EQ(RetryBackoff(policy, 5, 0.0).count(), 500);   // capped at 1000
  EXPECT_EQ(RetryBackoff(policy, 50, 0.0).count(), 500);  // shift-safe

  // Jitter ceiling: uniform01 -> 1 approaches the full backoff, never
  // exceeds it.
  EXPECT_LE(RetryBackoff(policy, 1, 0.999).count(), 100);
  EXPECT_GT(RetryBackoff(policy, 1, 0.999).count(), 90);
  EXPECT_LE(RetryBackoff(policy, 10, 0.999).count(), 1000);

  // jitter = 0: fully deterministic regardless of the random draw.
  policy.jitter = 0.0;
  EXPECT_EQ(RetryBackoff(policy, 2, 0.7).count(),
            RetryBackoff(policy, 2, 0.1).count());
  // Degenerate inputs stay sane: attempt 0 behaves as 1, out-of-range
  // jitter and uniform01 are clamped.
  EXPECT_EQ(RetryBackoff(policy, 0, 0.5).count(), 100);
  policy.jitter = 7.0;
  EXPECT_EQ(RetryBackoff(policy, 1, 2.0).count(), 100);
}

TEST(MultiTableTest, QueryWithRetryHonorsTheElapsedCap) {
  // One admission slot, held by a slow secure query; a second client with
  // a tiny elapsed cap must give up with the retry signal promptly instead
  // of sleeping through its full attempt budget.
  MultiTableTopology topology(/*beta_shards=*/1, /*max_in_flight=*/1);
  std::atomic<bool> holder_done{false};
  std::thread holder([&] {
    auto client = topology.NewClient();
    // The holder retries generously: the impatient client's probes below
    // may transiently win the slot.
    RetryPolicy patient;
    patient.max_attempts = 1000;
    patient.initial_backoff = std::chrono::milliseconds(5);
    patient.max_backoff = std::chrono::milliseconds(20);
    patient.max_elapsed = std::chrono::milliseconds(0);  // no cap
    auto slow = client->QueryWithRetry(MakeRequest("alpha", {7, 0}, 4),
                                       patient);
    EXPECT_TRUE(slow.ok()) << slow.status();
    holder_done.store(true);
  });
  // Wait until the slot is actually occupied.
  auto impatient = topology.NewClient();
  while (!holder_done.load()) {
    auto probe = impatient->Query(MakeRequest("alpha", {1, 0}, 1,
                                              QueryProtocol::kBasic));
    if (!probe.ok() &&
        probe.status().code() == StatusCode::kResourceExhausted) {
      break;
    }
  }
  if (!holder_done.load()) {
    RetryPolicy policy;
    policy.max_attempts = 1000;  // attempts would take ages...
    policy.initial_backoff = std::chrono::milliseconds(20);
    policy.max_backoff = std::chrono::milliseconds(20);
    policy.max_elapsed = std::chrono::milliseconds(40);  // ...the cap wins
    const auto started = std::chrono::steady_clock::now();
    auto capped = impatient->QueryWithRetry(
        MakeRequest("alpha", {1, 0}, 1, QueryProtocol::kBasic), policy);
    const auto elapsed = std::chrono::steady_clock::now() - started;
    // Either the cap fired (the expected path) or the holder finished
    // mid-retry and the query went through — both are contract-correct;
    // what may NOT happen is retrying past the cap.
    if (!capped.ok()) {
      EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted);
      EXPECT_LT(elapsed, std::chrono::seconds(5));
    }
  }
  holder.join();
}

}  // namespace
}  // namespace sknn
