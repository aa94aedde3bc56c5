// Concurrency stress for ThreadSanitizer — and regression tests for the
// data races the sanitizer pass surfaced.
//
// Every scenario here is chosen for the interleavings it provokes, not for
// protocol coverage (the differential suites own correctness):
//
//  * many thin clients hammering one QueryService under a deliberately tiny
//    admission budget, so the backpressure CAS loop, the per-table atomic
//    counters and the stats mutex all contend while the control plane
//    (kServiceStats / kListTables) reads them;
//  * a shard worker killed mid-serving, so the coordinator's failure path
//    races live queries;
//  * concurrent Shutdown callers racing each other and the accept thread
//    (regression: two callers used to race to accept_thread_.join(), which
//    is undefined behavior on a std::thread);
//  * TcpListener::Close against a blocked Accept (regression: the listening
//    fd was a plain int written by Close while Accept read it);
//  * RandomizerPool::Take from three threads against two fill threads;
//  * four threads sharing one key pair's Montgomery contexts (N^2, p^2,
//    q^2) for every exponentiation the library performs;
//  * the revision-6 result cache churned by concurrent hits, misses,
//    no_cache bypasses, LRU evictions and hot-reload-style invalidation
//    while the stats plane reads its counters.
//
// The suite is part of the regular ctest run (it must also PASS functionally)
// and is the workload of the tsan CI job, where the whole binary runs under
// -fsanitize=thread and any report fails the build.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/data_owner.h"
#include "core/engine.h"
#include "core/shard_worker.h"
#include "core/sharding.h"
#include "data/synthetic.h"
#include "net/shard_wire.h"
#include "net/socket.h"
#include "proto/c2_service.h"
#include "serve/qos/result_cache.h"
#include "serve/query_service.h"
#include "serve/remote_query_client.h"
#include "serve/table_registry.h"
#include "tests/net_test_util.h"
#include "tests/query_test_util.h"

namespace sknn {
namespace {

constexpr unsigned kKeyBits = 256;
constexpr unsigned kAttrBits = 3;
constexpr int64_t kMaxValue = 7;  // [0, 2^kAttrBits)

// One Alice for the whole binary: keygen dominates setup, and every engine
// under test may share the same key pair (they simulate ONE deployment).
DataOwner& SharedAlice() {
  static DataOwner* alice = [] {
    auto created = DataOwner::Create(kKeyBits);
    SKNN_CHECK(created.ok()) << created.status();
    return new DataOwner(std::move(created).value());
  }();
  return *alice;
}

SknnEngine::Options BaseOptions() {
  SknnEngine::Options options;
  options.c1_threads = 2;
  options.c2_threads = 2;
  options.randomizer_pool_capacity = 32;  // keep background fill light
  return options;
}

std::unique_ptr<SknnEngine> MakeLocalEngine(const PlainTable& table) {
  auto db = SharedAlice().EncryptDatabase(table, kAttrBits);
  SKNN_CHECK(db.ok()) << db.status();
  auto engine = SknnEngine::CreateFromParts(
      SharedAlice().public_key(),
      PaillierSecretKey(SharedAlice().secret_key_for_c2()),
      std::move(db).value(), BaseOptions());
  SKNN_CHECK(engine.ok()) << engine.status();
  return std::move(engine).value();
}

QueryRequest MakeRequest(PlainRecord record, unsigned k) {
  QueryRequest request;
  request.record = std::move(record);
  request.k = k;
  request.protocol = QueryProtocol::kBasic;
  return request;
}

RetryPolicy PatientRetry() {
  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff = std::chrono::milliseconds(5);
  policy.max_backoff = std::chrono::milliseconds(100);
  policy.max_elapsed = std::chrono::milliseconds(0);  // no elapsed cap
  policy.jitter = 0.5;
  return policy;
}

// ---------------------------------------------------------------------------
// 1. Concurrent clients vs a one-slot admission budget + control plane.

TEST(TsanStress, ConcurrentClientsBackpressureAndControlPlane) {
  PlainTable table = GenerateUniformTable(8, 2, kMaxValue, 9001);
  std::unique_ptr<SknnEngine> engine = MakeLocalEngine(table);

  QueryService::Options options;
  // One slot for four clients: most arrivals bounce with kResourceExhausted
  // and re-enter through QueryWithRetry, so the admission CAS and the
  // rejection counters are contended the whole run.
  options.max_in_flight = 1;
  options.connection_workers = 1;
  QueryService service(engine.get(), options);
  ASSERT_TRUE(service.Start(0).ok());

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 3;
  const PlainRecord query = GenerateUniformQuery(2, kMaxValue, 9002);
  const auto expected = RunQuery(*engine, query, 2, QueryProtocol::kBasic);
  ASSERT_TRUE(expected.ok()) << expected.status();

  std::atomic<bool> done{false};
  std::atomic<int> successes{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto client = RemoteQueryClient::Connect("127.0.0.1", service.port());
      ASSERT_TRUE(client.ok()) << client.status();
      for (int q = 0; q < kQueriesPerClient; ++q) {
        auto response =
            (*client)->QueryWithRetry(MakeRequest(query, 2), PatientRetry());
        ASSERT_TRUE(response.ok()) << response.status();
        EXPECT_EQ(response->records, expected->records);
        successes.fetch_add(1);
      }
    });
  }
  // The control plane polls while queries are in flight: kServiceStats
  // snapshots the same counters the handlers are writing.
  std::thread poller([&] {
    auto client = RemoteQueryClient::Connect("127.0.0.1", service.port());
    ASSERT_TRUE(client.ok()) << client.status();
    while (!done.load()) {
      auto stats = (*client)->ServiceStats();
      ASSERT_TRUE(stats.ok()) << stats.status();
      EXPECT_LE(stats->in_flight, options.max_in_flight);
      auto tables = (*client)->ListTables();
      ASSERT_TRUE(tables.ok()) << tables.status();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (auto& t : clients) t.join();
  done.store(true);
  poller.join();

  EXPECT_EQ(successes.load(), kClients * kQueriesPerClient);
  const QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.queries_completed,
            static_cast<uint64_t>(kClients * kQueriesPerClient));
  EXPECT_EQ(stats.queries_failed, 0u);
  service.Shutdown();
}

// ---------------------------------------------------------------------------
// 2. Concurrent Shutdown callers (regression for the double-join race).

TEST(TsanStress, ConcurrentShutdownIsSerialized) {
  PlainTable table = GenerateUniformTable(4, 2, kMaxValue, 9101);
  std::unique_ptr<SknnEngine> engine = MakeLocalEngine(table);
  QueryService service(engine.get(), QueryService::Options{});
  ASSERT_TRUE(service.Start(0).ok());

  // A client keeps the accept loop and a session busy while the shutdowns
  // race it.
  auto client = RemoteQueryClient::Connect("127.0.0.1", service.port());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE((*client)->Hello().ok());

  // Before Shutdown was serialized, every caller past the first took the
  // "already stopping" path and joined accept_thread_ — several threads
  // joining ONE std::thread concurrently is undefined behavior.
  std::vector<std::thread> killers;
  for (int i = 0; i < 4; ++i) {
    killers.emplace_back([&] { service.Shutdown(); });
  }
  for (auto& t : killers) t.join();
  EXPECT_EQ(service.active_sessions(), 0u);
}

// ---------------------------------------------------------------------------
// 3. TcpListener::Close vs a blocked Accept (regression for the plain-int
//    listening fd).

TEST(TsanStress, ListenerCloseRacesBlockedAccept) {
  for (int round = 0; round < 8; ++round) {
    auto listener = TcpListener::Bind(0);
    ASSERT_TRUE(listener.ok()) << listener.status();
    std::thread acceptor([&] {
      // Either outcome is fine — an error after Close, or a connection that
      // sneaked in first; the point is that the fd handoff is clean.
      auto accepted = listener->Accept();
      (void)accepted;
    });
    // No sleep: sometimes Close lands before Accept blocks, sometimes
    // after — both orders must be race-free.
    listener->Close();
    // Unblock platforms where shutdown(2) does not wake a parked accept(2).
    if (auto kick = ConnectTcp("127.0.0.1", listener->port()); kick.ok()) {
      (*kick)->Close();
    }
    acceptor.join();
    EXPECT_FALSE(listener->Accept().ok());  // closed for good
  }
}

// ---------------------------------------------------------------------------
// 4. RandomizerPool: three takers race two fill threads.

TEST(TsanStress, RandomizerPoolTakeUnderLoad) {
  const PaillierPublicKey& pk = SharedAlice().public_key();
  RandomizerPool pool(pk.n(), /*capacity=*/16, /*workers=*/2);
  std::atomic<bool> stop{false};
  std::vector<std::thread> takers;
  for (int t = 0; t < 3; ++t) {
    takers.emplace_back([&] {
      while (!stop.load()) {
        BigInt r = pool.Take();
        EXPECT_NE(r, BigInt(0));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pool.WaitUntilFull();
  stop.store(true);
  for (auto& t : takers) t.join();
  EXPECT_GT(pool.hits() + pool.misses(), 0u);
}

// One key pair's Montgomery contexts (N^2 on the public key, p^2 and q^2 on
// the secret key) are built once and shared by every copy of the key. Four
// threads drive all of them at once — MulScalar, MulScalarPair, unpooled
// Encrypt (r^N) and CRT decryption — and each thread's results must equal
// the same seed's serial run bitwise.
TEST(TsanStress, SharedKeyContextsUnderConcurrentExponentiation) {
  PaillierPublicKey pk = SharedAlice().public_key();
  pk.set_randomizer_pool(nullptr);  // r^N through the shared N^2 context
  const PaillierSecretKey& sk = SharedAlice().secret_key_for_c2();
  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  struct Results {
    std::vector<Ciphertext> encrypted, scaled, paired;
    std::vector<BigInt> decrypted;
  };
  auto run = [&](int thread) {
    Random rng(7000 + static_cast<uint64_t>(thread));
    Results out;
    for (int i = 0; i < kRounds; ++i) {
      Ciphertext a = pk.Encrypt(rng.Below(pk.n()), rng);
      Ciphertext b = pk.Encrypt(rng.Below(pk.n()), rng);
      const BigInt s = rng.Below(pk.n()), t = rng.Below(pk.n());
      out.encrypted.push_back(a);
      out.scaled.push_back(pk.MulScalar(a, s));
      out.paired.push_back(pk.MulScalarPair(a, s, b, t));
      out.decrypted.push_back(sk.Decrypt(out.paired.back()));
    }
    return out;
  };
  std::vector<Results> serial;
  for (int t = 0; t < kThreads; ++t) serial.push_back(run(t));
  std::vector<Results> concurrent(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { concurrent[t] = run(t); });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(concurrent[t].encrypted == serial[t].encrypted) << t;
    EXPECT_TRUE(concurrent[t].scaled == serial[t].scaled) << t;
    EXPECT_TRUE(concurrent[t].paired == serial[t].paired) << t;
    EXPECT_EQ(concurrent[t].decrypted, serial[t].decrypted) << t;
  }
}

// ---------------------------------------------------------------------------
// 5. A shard worker dies mid-serving; the front end must fail queries with
//    a Status and keep its control plane alive, never crash or hang.

// One shard worker served over a loopback TCP link (the in-test
// tools/sknn_c1_shard), killable mid-run.
class StressWorker {
 public:
  StressWorker(const EncryptedDatabase& db, const ShardManifest& manifest,
               std::size_t shard, LoopbackC2* c2) {
    c2_client_ = std::make_unique<RpcClient>(c2->Connect());
    PaillierPublicKey pk = SharedAlice().public_key();
    pk.set_randomizer_pool(&rand_pool_);
    auto worker = ShardWorker::Create(pk, db, manifest, shard,
                                      c2_client_.get(), &pool_);
    SKNN_CHECK(worker.ok()) << worker.status();
    worker_ = std::move(worker).value();

    TcpLink link = LoopbackTcpLink();
    ShardWorker* raw = worker_.get();
    server_ = std::make_unique<RpcServer>(
        std::move(link.server),
        [raw](const Message& req) { return raw->Handle(req); },
        /*worker_threads=*/2);
    link_ = std::move(link.client);
  }

  std::unique_ptr<Endpoint> TakeLink() { return std::move(link_); }

  /// The "kill -9": slams the worker's link shut.
  void Kill() { server_->Shutdown(); }

 private:
  // What sknn_c1_shard builds around its worker, declared first so the
  // server and the worker go before them.
  std::unique_ptr<RpcClient> c2_client_;
  ThreadPool pool_{2};
  RandomizerPool rand_pool_{SharedAlice().public_key().n(), /*capacity=*/32};
  std::unique_ptr<ShardWorker> worker_;
  std::unique_ptr<RpcServer> server_;
  std::unique_ptr<Endpoint> link_;
};

TEST(TsanStress, ShardWorkerKilledMidServing) {
  PlainTable table = GenerateUniformTable(8, 2, kMaxValue, 9201);
  auto encrypted = SharedAlice().EncryptDatabase(table, kAttrBits);
  ASSERT_TRUE(encrypted.ok()) << encrypted.status();
  EncryptedDatabase db = std::move(encrypted).value();
  auto manifest = MakeShardManifest(8, 2, ShardScheme::kContiguous);
  ASSERT_TRUE(manifest.ok()) << manifest.status();

  LoopbackC2 c2(PaillierSecretKey(SharedAlice().secret_key_for_c2()),
                /*pool_capacity=*/32);
  auto worker0 = std::make_unique<StressWorker>(db, *manifest, 0, &c2);
  auto worker1 = std::make_unique<StressWorker>(db, *manifest, 1, &c2);
  std::vector<std::unique_ptr<Endpoint>> links;
  links.push_back(worker0->TakeLink());
  links.push_back(worker1->TakeLink());
  auto engine = SknnEngine::CreateWithShardWorkers(
      SharedAlice().public_key(), std::move(links), c2.Connect(),
      BaseOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();

  QueryService service(engine->get(), QueryService::Options{});
  ASSERT_TRUE(service.Start(0).ok());
  auto client = RemoteQueryClient::Connect("127.0.0.1", service.port());
  ASSERT_TRUE(client.ok()) << client.status();

  const PlainRecord query = GenerateUniformQuery(2, kMaxValue, 9202);
  auto healthy = (*client)->Query(MakeRequest(query, 2));
  ASSERT_TRUE(healthy.ok()) << healthy.status();

  // Kill one worker while two clients keep querying: every subsequent
  // query must come back as a Status (the dead shard surfaces as an
  // engine error through the wire), never hang or crash the front end.
  worker1->Kill();
  std::vector<std::thread> mourners;
  for (int t = 0; t < 2; ++t) {
    mourners.emplace_back([&] {
      auto doomed = RemoteQueryClient::Connect("127.0.0.1", service.port());
      ASSERT_TRUE(doomed.ok()) << doomed.status();
      for (int q = 0; q < 2; ++q) {
        auto response = (*doomed)->Query(MakeRequest(query, 2));
        EXPECT_FALSE(response.ok());
      }
    });
  }
  for (auto& t : mourners) t.join();

  // The control plane must still answer after the data plane degraded.
  auto stats = (*client)->ServiceStats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(stats->tables.at(0).failed, 4u);
  service.Shutdown();
}

// ---------------------------------------------------------------------------
// 6. Replica churn (ISSUE 7): replicas killed mid-load while clients hammer
//    the front end and the health plane polls over the wire. Queries must
//    keep SUCCEEDING — the sibling replica absorbs each stage — and every
//    concurrent reader of the per-replica health state (query path, probe
//    thread, kHealth snapshots) must be race-free.

TEST(TsanStress, ReplicaChurnUnderLoad) {
  PlainTable table = GenerateUniformTable(8, 2, kMaxValue, 9301);
  auto encrypted = SharedAlice().EncryptDatabase(table, kAttrBits);
  ASSERT_TRUE(encrypted.ok()) << encrypted.status();
  EncryptedDatabase db = std::move(encrypted).value();
  auto manifest = MakeShardManifest(8, 2, ShardScheme::kContiguous);
  ASSERT_TRUE(manifest.ok()) << manifest.status();

  LoopbackC2 c2(PaillierSecretKey(SharedAlice().secret_key_for_c2()),
                /*pool_capacity=*/32);
  // Two replicas per shard; the killer later takes one of EACH shard, so
  // both failover paths run while full coverage survives.
  auto shard0_a = std::make_unique<StressWorker>(db, *manifest, 0, &c2);
  auto shard0_b = std::make_unique<StressWorker>(db, *manifest, 0, &c2);
  auto shard1_a = std::make_unique<StressWorker>(db, *manifest, 1, &c2);
  auto shard1_b = std::make_unique<StressWorker>(db, *manifest, 1, &c2);
  std::vector<std::unique_ptr<Endpoint>> links;
  links.push_back(shard0_a->TakeLink());
  links.push_back(shard0_b->TakeLink());
  links.push_back(shard1_a->TakeLink());
  links.push_back(shard1_b->TakeLink());
  SknnEngine::Options options = BaseOptions();
  // An aggressive probe cadence: the probe thread's MarkFailed/MarkOk churn
  // races the query path's replica selection the whole run.
  options.shard_probe_interval = std::chrono::milliseconds(25);
  auto engine = SknnEngine::CreateWithShardWorkers(
      SharedAlice().public_key(), std::move(links), c2.Connect(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  QueryService service(engine->get(), QueryService::Options{});
  ASSERT_TRUE(service.Start(0).ok());

  const PlainRecord query = GenerateUniformQuery(2, kMaxValue, 9302);
  auto reference = (*engine)->Query(MakeRequest(query, 2));
  ASSERT_TRUE(reference.ok()) << reference.status();

  std::atomic<bool> done{false};
  std::atomic<int> first_batch_done{0};
  std::atomic<bool> killed{false};
  constexpr int kChurnClients = 2;
  std::vector<std::thread> clients;
  for (int t = 0; t < kChurnClients; ++t) {
    clients.emplace_back([&] {
      auto client = RemoteQueryClient::Connect("127.0.0.1", service.port());
      ASSERT_TRUE(client.ok()) << client.status();
      for (int q = 0; q < 4; ++q) {
        if (q == 2) {
          // Halfway barrier: the kills land between the warm first batch
          // (which parked `preferred` on the doomed replicas) and the
          // second, so the later queries MUST take the failover path.
          first_batch_done.fetch_add(1);
          while (!killed.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        auto response =
            (*client)->QueryWithRetry(MakeRequest(query, 2), PatientRetry());
        ASSERT_TRUE(response.ok()) << response.status();
        EXPECT_EQ(response->records, reference->records);
      }
    });
  }
  // The health plane polls over the wire while replicas die: kHealth reads
  // the same per-replica state the query path and probe thread write.
  std::thread health_poller([&] {
    auto client = RemoteQueryClient::Connect("127.0.0.1", service.port());
    ASSERT_TRUE(client.ok()) << client.status();
    while (!done.load()) {
      auto health = (*client)->Health();
      ASSERT_TRUE(health.ok()) << health.status();
      ASSERT_EQ(health->tables.size(), 1u);
      EXPECT_EQ(health->tables[0].replicas.size(), 4u);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  // Mid-load, one replica of each shard dies.
  while (first_batch_done.load() < kChurnClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  shard0_a->Kill();
  shard1_b->Kill();
  killed.store(true);

  for (auto& t : clients) t.join();
  done.store(true);
  health_poller.join();

  // Zero client-visible failures through the churn — failover absorbed
  // every kill inside the queries themselves.
  const QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.queries_failed, 0u);
  auto statuses = (*engine)->shard_coordinator()->ReplicaStatuses();
  ASSERT_EQ(statuses.size(), 4u);
  service.Shutdown();
}

// ---------------------------------------------------------------------------
// 7. Result cache under fire (revision 6): clients mixing hits, misses and
//    no_cache bypasses against a 2-entry cache (so LRU eviction churns the
//    whole run), while an invalidator thread replays the hot-reload
//    invalidation path and a stats poller snapshots the cache counters over
//    the wire. Every answer must still be CORRECT — a torn entry or a
//    generation race would surface as a wrong record set, not just a report.

TEST(TsanStress, ResultCacheHitsEvictionsAndInvalidationRace) {
  PlainTable table = GenerateUniformTable(8, 2, kMaxValue, 9401);
  std::unique_ptr<SknnEngine> engine = MakeLocalEngine(table);
  TableRegistry registry;
  ASSERT_TRUE(registry.Register("t", engine.get()).ok());
  TableRegistry::Entry* entry = registry.Find("t");
  ASSERT_NE(entry, nullptr);
  // Two slots for three distinct queries: every insert past warmup evicts,
  // so Lookup/Insert/unlink-relink on the LRU list stay contended.
  entry->cache.set_budget(ResultCache::kDefaultMaxBytes, /*max_entries=*/2);

  QueryService service(&registry, QueryService::Options{});
  ASSERT_TRUE(service.Start(0).ok());

  constexpr int kDistinctQueries = 3;
  std::vector<QueryRequest> requests;
  std::vector<PlainTable> expected;
  for (int i = 0; i < kDistinctQueries; ++i) {
    QueryRequest request = MakeRequest({i, i % 2}, 2);
    request.table = "t";
    auto reference = engine->Query(request);
    ASSERT_TRUE(reference.ok()) << reference.status();
    requests.push_back(std::move(request));
    expected.push_back(reference->records);
  }

  std::atomic<bool> done{false};
  constexpr int kClients = 3;
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      auto client = RemoteQueryClient::Connect("127.0.0.1", service.port());
      ASSERT_TRUE(client.ok()) << client.status();
      for (int q = 0; q < 6; ++q) {
        QueryRequest request = requests[(t + q) % kDistinctQueries];
        // Every third query bypasses the cache: the miss path (full
        // protocol run + insert) keeps racing the hit path instead of the
        // cache going warm and quiet.
        request.no_cache = (q % 3 == 0);
        auto response =
            (*client)->QueryWithRetry(request, PatientRetry());
        ASSERT_TRUE(response.ok()) << response.status();
        EXPECT_EQ(response->records, expected[(t + q) % kDistinctQueries]);
        if (request.no_cache) {
          EXPECT_FALSE(response->cache_hit);
        }
      }
    });
  }
  // The invalidator replays what ReplaceEngine/Detach do under hot reload:
  // bump the generation, drop every entry — racing in-flight inserts whose
  // pinned generation just went stale.
  std::thread invalidator([&] {
    while (!done.load()) {
      entry->cache.Invalidate();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // And the control plane reads the counters the data plane is writing.
  std::thread poller([&] {
    auto client = RemoteQueryClient::Connect("127.0.0.1", service.port());
    ASSERT_TRUE(client.ok()) << client.status();
    while (!done.load()) {
      auto stats = (*client)->ServiceStats();
      ASSERT_TRUE(stats.ok()) << stats.status();
      ASSERT_EQ(stats->tables.size(), 1u);
      EXPECT_LE(stats->tables[0].cache_entries, 2u);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (auto& t : clients) t.join();
  done.store(true);
  invalidator.join();
  poller.join();

  const ResultCache::Stats cache = entry->cache.stats();
  // Every query either hit, missed, or bypassed — and nothing failed.
  EXPECT_GT(cache.misses, 0u);
  EXPECT_EQ(service.stats().queries_failed, 0u);
  service.Shutdown();
}

}  // namespace
}  // namespace sknn
