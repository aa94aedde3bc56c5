// The sharded-execution proof harness (ISSUE 4 tentpole): sharded query
// execution must be indistinguishable — record for record, byte for byte —
// from the unsharded engine, which itself must match the plaintext oracle.
//
// Three layers of evidence:
//   1. a seeded differential sweep over (n, m, k, s, scheme, protocol) —
//      random tables (ties included: the deterministic tie-break makes them
//      safe), every combination checked sharded vs unsharded vs oracle,
//      with the edge cases the coordinator must survive: k > n/s (shards
//      smaller than k), s = 1 (degenerate sharding), s > k, k = n;
//   2. adversarial tie tables — many records at exactly equal distance,
//      distinct payloads — asserted identical across shard counts and
//      schemes (the lower-global-index tie-break, end to end);
//   3. the remote topology: real ShardWorker instances behind loopback TCP
//      RpcServers (the sweeps above serve theirs on socketpairs,
//      tests/shard_test_util.h), a shared C2 service,
//      SknnEngine::CreateWithShardWorkers — plus fault injection: a worker
//      killed or disconnecting mid-query must surface
//      StatusCode::kUnavailable, never a hang, and a misassembled worker
//      set must be rejected at construction.
//
// Plus, since ISSUE 7, replication: several workers per shard are replicas,
// a replica dying or hanging mid-query fails over to a sibling within the
// query without changing a single output bit, and when EVERY replica of a
// shard is silent the per-query deadline resolves to kDeadlineExceeded in
// bounded time.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <numeric>
#include <vector>

#include "common/logging.h"

#include "baseline/plaintext_knn.h"
#include "core/data_owner.h"
#include "core/db_io.h"
#include "core/engine.h"
#include "core/shard_coordinator.h"
#include "core/shard_worker.h"
#include "core/sharding.h"
#include "data/synthetic.h"
#include "net/shard_wire.h"
#include "tests/net_test_util.h"
#include "tests/query_test_util.h"
#include "tests/shard_test_util.h"

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

std::unique_ptr<SknnEngine> MakeEngine(const PlainTable& table,
                                       const SknnEngine::Options& options) {
  auto db = SharedAlice().EncryptDatabase(table, kAttrBits);
  EXPECT_TRUE(db.ok()) << db.status();
  auto engine = SknnEngine::CreateFromParts(
      SharedAlice().public_key(),
      PaillierSecretKey(SharedAlice().secret_key_for_c2()),
      std::move(db).value(), options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).value();
}

// `table` behind `s` shard workers of `scheme`, served on socketpairs.
ShardedTable MakeShardedTable(const PlainTable& table, std::size_t s,
                              ShardScheme scheme) {
  auto db = SharedAlice().EncryptDatabase(table, kAttrBits);
  SKNN_CHECK(db.ok()) << db.status();
  return ShardedTable(SharedAlice().public_key(),
                      PaillierSecretKey(SharedAlice().secret_key_for_c2()),
                      std::move(db).value(), s, scheme, BaseOptions());
}

// The farthest-first oracle (mirrors tools/sknn_plain_knn --farthest):
// descending distance, ties by lower index.
PlainTable FarthestOracle(const PlainTable& table, const PlainRecord& query,
                          unsigned k) {
  std::vector<std::size_t> order(table.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return SquaredDistance(table[a], query) >
                            SquaredDistance(table[b], query);
                   });
  PlainTable out;
  for (unsigned j = 0; j < k; ++j) out.push_back(table[order[j]]);
  return out;
}

PlainTable Oracle(const PlainTable& table, const PlainRecord& query,
                  unsigned k, QueryProtocol protocol) {
  return protocol == QueryProtocol::kFarthest
             ? FarthestOracle(table, query, k)
             : PlainKnn(table, query, k);
}

// ---------------------------------------------------------------------------
// 1. Seeded differential sweep.

struct SweepCase {
  std::size_t n, m;
  unsigned k;
  std::size_t s;
  ShardScheme scheme;
  QueryProtocol protocol;
  uint64_t seed;
};

std::string CaseName(const SweepCase& c) {
  return std::string(QueryProtocolName(c.protocol)) + " n=" +
         std::to_string(c.n) + " m=" + std::to_string(c.m) + " k=" +
         std::to_string(c.k) + " s=" + std::to_string(c.s) + " " +
         ShardSchemeName(c.scheme) + " seed=" + std::to_string(c.seed);
}

TEST(ShardedQueryDifferential, SweepMatchesUnshardedAndOracle) {
  const std::vector<SweepCase> sweep = {
      // Plain shapes, both schemes, all protocols.
      {8, 2, 2, 2, ShardScheme::kContiguous, QueryProtocol::kSecure, 1001},
      {9, 3, 3, 3, ShardScheme::kRoundRobin, QueryProtocol::kSecure, 1002},
      {8, 2, 3, 2, ShardScheme::kContiguous, QueryProtocol::kBasic, 1003},
      {9, 2, 4, 4, ShardScheme::kRoundRobin, QueryProtocol::kBasic, 1004},
      {8, 2, 2, 2, ShardScheme::kRoundRobin, QueryProtocol::kFarthest, 1005},
      // k > n/s: shards smaller than k contribute all their records.
      {6, 2, 4, 3, ShardScheme::kContiguous, QueryProtocol::kSecure, 1006},
      {6, 2, 5, 3, ShardScheme::kRoundRobin, QueryProtocol::kBasic, 1007},
      // s = 1: the coordinator path degenerates to re-extraction.
      {8, 2, 2, 1, ShardScheme::kContiguous, QueryProtocol::kSecure, 1008},
      // s > k, uneven partition (8 records over 5 shards).
      {8, 2, 2, 5, ShardScheme::kRoundRobin, QueryProtocol::kSecure, 1009},
      // k = n: every record comes back, in global order.
      {6, 2, 6, 3, ShardScheme::kContiguous, QueryProtocol::kBasic, 1010},
      {5, 2, 5, 2, ShardScheme::kContiguous, QueryProtocol::kFarthest, 1011},
  };
  for (const SweepCase& c : sweep) {
    SCOPED_TRACE(CaseName(c));
    PlainTable table = GenerateUniformTable(c.n, c.m, kMaxValue, c.seed);
    PlainRecord query = GenerateUniformQuery(c.m, kMaxValue, c.seed + 1);

    auto unsharded = MakeEngine(table, BaseOptions());
    ShardedTable sharded = MakeShardedTable(table, c.s, c.scheme);

    auto reference = RunQuery(*unsharded, query, c.k, c.protocol);
    ASSERT_TRUE(reference.ok()) << reference.status();
    auto result = RunQuery(*sharded.engine, query, c.k, c.protocol);
    ASSERT_TRUE(result.ok()) << result.status();

    // The three-way differential: oracle == unsharded == sharded.
    EXPECT_EQ(reference->records, Oracle(table, query, c.k, c.protocol));
    EXPECT_EQ(result->records, reference->records);

    // Per-shard instrumentation (s = 1 included: one worker is still a
    // coordinator and a merge): every shard reports, candidate counts are
    // exactly min(k, shard size), and the shard stages' cost is folded into
    // the query totals.
    ASSERT_EQ(result->shards.size(), c.s);
    auto manifest = MakeShardManifest(c.n, c.s, c.scheme);
    ASSERT_TRUE(manifest.ok()) << manifest.status();
    uint64_t shard_frames = 0;
    for (std::size_t shard = 0; shard < c.s; ++shard) {
      const ShardQueryStats& stats = result->shards[shard];
      EXPECT_EQ(stats.shard, shard);
      const std::size_t shard_n =
          ShardRecordIndices(*manifest, shard).size();
      EXPECT_EQ(static_cast<std::size_t>(stats.candidates),
                std::min<std::size_t>(c.k, shard_n));
      EXPECT_GT(stats.traffic.total_frames(), 0u) << "shard " << shard;
      EXPECT_GT(stats.ops.encryptions, 0u) << "shard " << shard;
      shard_frames += stats.traffic.total_frames();
    }
    EXPECT_GE(result->traffic.total_frames(), shard_frames)
        << "shard traffic not folded into the query total";
    EXPECT_GE(result->merge_seconds, 0.0);
    EXPECT_TRUE(reference->shards.empty());
  }
}

// ---------------------------------------------------------------------------
// 2. Tied distances: the deterministic lower-global-index tie-break must
// hold across shard counts and schemes, for distinct records at equal
// distances (the case a random tie-pick would scramble).

TEST(ShardedQueryDifferential, TiedDistancesBreakDeterministicallyAcrossShardCounts) {
  // From query {0,0}: records 0-3 all at squared distance 25 with DISTINCT
  // payloads, records 4-5 nearer, record 6 a duplicate of record 1 (also at
  // 25). k=4 cuts through the tie group; k=2 (farthest) picks among the
  // tied-farthest four.
  const PlainTable table = {{0, 5}, {3, 4}, {4, 3}, {5, 0},
                           {1, 0}, {0, 2}, {3, 4}};
  const PlainRecord query = {0, 0};

  for (QueryProtocol protocol :
       {QueryProtocol::kBasic, QueryProtocol::kSecure,
        QueryProtocol::kFarthest}) {
    SCOPED_TRACE(QueryProtocolName(protocol));
    const unsigned k = 4;
    const PlainTable want = Oracle(table, query, k, protocol);
    for (ShardScheme scheme :
         {ShardScheme::kContiguous, ShardScheme::kRoundRobin}) {
      for (std::size_t s : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
        SCOPED_TRACE(std::string(ShardSchemeName(scheme)) + " s=" +
                     std::to_string(s));
        ShardedTable sharded = MakeShardedTable(table, s, scheme);
        auto result = RunQuery(*sharded.engine, query, k, protocol);
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_EQ(result->records, want)
            << "tie-break diverged from the lower-global-index order";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Partitioner / manifest units (the geometry the whole scheme rests on).

TEST(ShardManifestTest, BothSchemesPartitionExactly) {
  for (ShardScheme scheme :
       {ShardScheme::kContiguous, ShardScheme::kRoundRobin}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{12}}) {
      for (std::size_t s = 1; s <= n; ++s) {
        auto manifest = MakeShardManifest(n, s, scheme);
        ASSERT_TRUE(manifest.ok()) << manifest.status();
        std::vector<bool> seen(n, false);
        for (std::size_t shard = 0; shard < s; ++shard) {
          std::vector<std::size_t> indices =
              ShardRecordIndices(*manifest, shard);
          EXPECT_FALSE(indices.empty())
              << ShardSchemeName(scheme) << " n=" << n << " s=" << s
              << " shard " << shard << " is empty";
          EXPECT_TRUE(std::is_sorted(indices.begin(), indices.end()));
          for (std::size_t gidx : indices) {
            ASSERT_LT(gidx, n);
            EXPECT_FALSE(seen[gidx]) << "index " << gidx << " assigned twice";
            seen[gidx] = true;
          }
        }
        EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                                [](bool b) { return b; }))
            << ShardSchemeName(scheme) << " n=" << n << " s=" << s
            << " left records unassigned";
      }
    }
  }
}

TEST(ShardManifestTest, RejectsDegenerateShapes) {
  EXPECT_FALSE(MakeShardManifest(0, 1, ShardScheme::kContiguous).ok());
  EXPECT_FALSE(MakeShardManifest(4, 0, ShardScheme::kContiguous).ok());
  EXPECT_FALSE(MakeShardManifest(4, 5, ShardScheme::kContiguous).ok());

  // Over-sharding fails up front, not at query time: no manifest puts 9
  // shards over 4 records, and a worker handed one refuses to start.
  auto over = MakeShardManifest(4, 9, ShardScheme::kContiguous);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  PlainTable table = GenerateUniformTable(4, 2, kMaxValue, 7);
  auto db = SharedAlice().EncryptDatabase(table, kAttrBits);
  ASSERT_TRUE(db.ok());
  LoopbackC2 c2(PaillierSecretKey(SharedAlice().secret_key_for_c2()),
                /*pool_capacity=*/32);
  WorkerHost host(SharedAlice().public_key(), c2.Connect());
  ShardManifest nine_over_four;
  nine_over_four.num_shards = 9;
  nine_over_four.total_records = 4;
  auto worker = ShardWorker::Create(host.pk, *db, nine_over_four, 0, &host.c2,
                                    &host.pool);
  ASSERT_FALSE(worker.ok());
  EXPECT_EQ(worker.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardManifestTest, RoundTripsThroughDbIo) {
  const std::string path =
      ::testing::TempDir() + "/sharded_query_manifest.bin";
  auto manifest = MakeShardManifest(12, 3, ShardScheme::kRoundRobin);
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(WriteShardManifest(path, *manifest).ok());
  auto loaded = ReadShardManifest(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, *manifest);

  // Corruption is detected, not interpreted.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "SKNNSH01garbage";
  }
  EXPECT_FALSE(ReadShardManifest(path).ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// 4. The remote topology: real workers over loopback TCP + fault injection.

// One shard worker served over a loopback TCP link (the in-test
// tools/sknn_c1_shard).
class TcpWorker {
 public:
  explicit TcpWorker(std::unique_ptr<ShardWorker> worker)
      : worker_(std::move(worker)) {
    TcpLink link = LoopbackTcpLink();
    ShardWorker* raw = worker_.get();
    server_ = std::make_unique<RpcServer>(
        std::move(link.server),
        [raw](const Message& req) { return raw->Handle(req); },
        /*worker_threads=*/2);
    link_ = std::move(link.client);
  }

  std::unique_ptr<Endpoint> TakeLink() { return std::move(link_); }
  ShardWorker* worker() { return worker_.get(); }

 private:
  std::unique_ptr<ShardWorker> worker_;
  std::unique_ptr<RpcServer> server_;
  std::unique_ptr<Endpoint> link_;
};

// n records of 2 attributes cut into s contiguous shards, with workers
// served over TCP.
struct RemoteTopology {
  PlainTable table;
  std::unique_ptr<LoopbackC2> c2;
  // Outlives every worker made from it (workers and test locals alike).
  std::unique_ptr<ShardSet> shards;
  std::vector<std::unique_ptr<TcpWorker>> workers;

  RemoteTopology(std::size_t n, std::size_t s, uint64_t seed) {
    table = GenerateUniformTable(n, 2, kMaxValue, seed);
    auto encrypted = SharedAlice().EncryptDatabase(table, kAttrBits);
    SKNN_CHECK(encrypted.ok()) << encrypted.status();
    c2 = std::make_unique<LoopbackC2>(
        PaillierSecretKey(SharedAlice().secret_key_for_c2()),
        /*pool_capacity=*/32);
    shards = std::make_unique<ShardSet>(SharedAlice().public_key(),
                                        std::move(encrypted).value(),
                                        c2.get(), s, ShardScheme::kContiguous);
  }

  void AddWorker(std::size_t shard) {
    workers.push_back(std::make_unique<TcpWorker>(shards->MakeWorker(shard)));
  }

  Result<std::unique_ptr<SknnEngine>> MakeEngine() {
    std::vector<std::unique_ptr<Endpoint>> links;
    for (auto& worker : workers) links.push_back(worker->TakeLink());
    return SknnEngine::CreateWithShardWorkers(SharedAlice().public_key(),
                                              std::move(links), c2->Connect(),
                                              BaseOptions());
  }
};

TEST(ShardedQueryRemote, WorkerTopologyMatchesUnshardedBitwise) {
  RemoteTopology topology(/*n=*/8, /*s=*/2, /*seed=*/2201);
  // Register workers out of order on purpose: the coordinator must index
  // them by their REPORTED shard, not by connection order.
  topology.AddWorker(1);
  topology.AddWorker(0);
  auto engine = topology.MakeEngine();
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_TRUE((*engine)->database().records.empty())
      << "a worker-backed front end must not host records";
  EXPECT_EQ((*engine)->num_records(), 8u);

  auto reference = MakeEngine(topology.table, BaseOptions());
  PlainRecord query = GenerateUniformQuery(2, kMaxValue, 2202);
  for (QueryProtocol protocol :
       {QueryProtocol::kBasic, QueryProtocol::kSecure,
        QueryProtocol::kFarthest}) {
    SCOPED_TRACE(QueryProtocolName(protocol));
    for (unsigned k : {1u, 3u}) {
      auto local = RunQuery(*reference, query, k, protocol);
      ASSERT_TRUE(local.ok()) << local.status();
      auto remote = RunQuery(**engine, query, k, protocol);
      ASSERT_TRUE(remote.ok()) << remote.status();
      EXPECT_EQ(remote->records, local->records);
      EXPECT_EQ(remote->records, Oracle(topology.table, query, k, protocol));
      ASSERT_EQ(remote->shards.size(), 2u);
      for (const auto& shard : remote->shards) {
        EXPECT_GT(shard.traffic.total_frames(), 0u);
        EXPECT_GT(shard.ops.encryptions, 0u);
      }
      // Both clouds' ops crossed both process boundaries: the response must
      // see C2 decryptions (ledger fetch) and the workers' C1-side work.
      EXPECT_GT(remote->ops.decryptions, 0u);
    }
  }
}

TEST(ShardedQueryRemote, SingleWorkerCoordinatorDegeneratesCorrectly) {
  // s = 1 through the REAL coordinator: one worker holds everything, the
  // merge re-extracts from that worker's own candidates — and the answer is
  // still bitwise the unsharded one.
  RemoteTopology topology(/*n=*/6, /*s=*/1, /*seed=*/2601);
  topology.AddWorker(0);
  auto engine = topology.MakeEngine();
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto reference = MakeEngine(topology.table, BaseOptions());
  PlainRecord query = GenerateUniformQuery(2, kMaxValue, 2602);
  for (QueryProtocol protocol :
       {QueryProtocol::kBasic, QueryProtocol::kSecure}) {
    SCOPED_TRACE(QueryProtocolName(protocol));
    auto local = RunQuery(*reference, query, 2, protocol);
    ASSERT_TRUE(local.ok()) << local.status();
    auto remote = RunQuery(**engine, query, 2, protocol);
    ASSERT_TRUE(remote.ok()) << remote.status();
    EXPECT_EQ(remote->records, local->records);
    ASSERT_EQ(remote->shards.size(), 1u);
    EXPECT_EQ(remote->shards[0].candidates, 2u);
  }
}

TEST(ShardedQueryRemote, MisassembledWorkerSetsAreRejected) {
  RemoteTopology topology(/*n=*/6, /*s=*/2, /*seed=*/2301);
  // Two workers claiming the same shard are legal now (replicas) — but
  // shard 1 of the two-shard manifest is still uncovered, so the set is
  // rejected all the same.
  topology.AddWorker(0);
  topology.AddWorker(0);
  auto engine = topology.MakeEngine();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);

  // One worker for a two-shard manifest.
  RemoteTopology short_set(/*n=*/6, /*s=*/2, /*seed=*/2302);
  short_set.AddWorker(0);
  auto incomplete = short_set.MakeEngine();
  ASSERT_FALSE(incomplete.ok());
  EXPECT_EQ(incomplete.status().code(), StatusCode::kInvalidArgument);
}

// A worker's ping reply is a peer's claim. A 28-byte geometry claiming
// 0xFFFFFFFF shards once made the coordinator size its replica groups from
// it (~137 GB) before any coverage check; a shard index past num_shards is
// refused as well.
TEST(ShardedQueryRemote, HostileWorkerGeometryIsRefusedBeforeAllocating) {
  struct Case {
    uint32_t shard;
    uint32_t num_shards;
    uint32_t total_records;
    StatusCode want;
  };
  for (const Case& c : {
           // Decodes (a manifest MakeShardManifest could build); the
           // coordinator refuses more shards than it has worker links.
           Case{0, 0xFFFFFFFFu, 0xFFFFFFFFu, StatusCode::kInvalidArgument},
           // The decoder refuses num_shards > total_records...
           Case{0, 0xFFFFFFFFu, 100, StatusCode::kProtocolError},
           // ...and a shard index outside the manifest.
           Case{5, 2, 100, StatusCode::kProtocolError},
       }) {
    ShardGeometry geometry;
    geometry.shard = c.shard;
    geometry.manifest.num_shards = c.num_shards;
    geometry.manifest.total_records = c.total_records;
    geometry.num_attributes = 2;
    geometry.distance_bits = 8;
    geometry.shard_records = 1;
    Channel::EndpointPair link = Channel::CreatePair();
    RpcServer worker(std::move(link.b),
                     [&geometry](const Message&) -> Result<Message> {
                       return EncodeShardGeometry(geometry);
                     });
    std::vector<std::unique_ptr<Endpoint>> links;
    links.push_back(std::move(link.a));
    auto coordinator = ShardCoordinator::Create(
        SharedAlice().public_key(), std::move(links),
        ShardCoordinator::Options{});
    ASSERT_FALSE(coordinator.ok()) << "shard " << c.shard << " of "
                                   << c.num_shards;
    EXPECT_EQ(coordinator.status().code(), c.want) << coordinator.status();
  }
}

// A fake shard worker for fault injection: answers the construction-time
// ping with a consistent geometry, then misbehaves on the query leg.
class FaultyWorker {
 public:
  enum class Mode {
    kHangUntilKilled,
    kDisconnect,
    // Well-shaped candidates (an honest worker's answer) with one
    // ciphertext replaced by 0, or by N^2 + c for a valid c: both outside
    // Z*_{N^2}.
    kZeroCiphertext,
    kOversizedCiphertext,
  };

  /// `honest` computes the candidates the corrupting modes tamper with.
  FaultyWorker(const ShardGeometry& geometry, Mode mode,
               ShardWorker* honest = nullptr)
      : geometry_(geometry), mode_(mode), honest_(honest) {
    TcpLink link = LoopbackTcpLink();
    server_ = std::make_unique<RpcServer>(
        std::move(link.server),
        [this](const Message& req) { return Handle(req); },
        /*worker_threads=*/1);
    link_ = std::move(link.client);
  }

  ~FaultyWorker() {
    Kill();
    Release();
  }

  std::unique_ptr<Endpoint> TakeLink() { return std::move(link_); }

  /// Blocks until the faulty worker has received the query leg.
  void WaitForQuery() { query_seen_.get_future().wait(); }

  /// The "kill -9": slams the worker's link shut mid-query.
  void Kill() { server_->Shutdown(); }

  void Release() {
    if (!released_.exchange(true)) hold_.set_value();
  }

 private:
  Result<Message> Handle(const Message& req) {
    if (req.type == ShardOpCode(ShardOp::kShardPing)) {
      return EncodeShardGeometry(geometry_);
    }
    if (!seen_.exchange(true)) query_seen_.set_value();
    if (mode_ == Mode::kDisconnect) {
      // Slam the link from inside the handler: the coordinator observes a
      // disconnect with its call in flight.
      server_->Shutdown();
      return Status::Unavailable("disconnected");
    }
    if (mode_ == Mode::kZeroCiphertext ||
        mode_ == Mode::kOversizedCiphertext) {
      return CorruptOneCiphertext(req);
    }
    hold_.get_future().wait();  // hang until the test kills or releases us
    return Status::Unavailable("killed");
  }

  Result<Message> CorruptOneCiphertext(const Message& req) {
    SKNN_ASSIGN_OR_RETURN(Message honest, honest_->Handle(req));
    SKNN_ASSIGN_OR_RETURN(ShardCandidatesFrame frame,
                          DecodeShardCandidates(honest));
    ShardCandidates& c = frame.candidates;
    if (mode_ == Mode::kZeroCiphertext) {
      // The secure protocols' distance bits, or the basic one's distance.
      Ciphertext& target =
          c.bits.empty() ? c.distances.back() : c.bits.back().back();
      target = Ciphertext(BigInt(0));
    } else {
      Ciphertext& target = c.records.back().back();
      target = Ciphertext(target.value() +
                          SharedAlice().public_key().n_squared());
    }
    return EncodeShardCandidates(frame);
  }

  ShardGeometry geometry_;
  Mode mode_;
  ShardWorker* honest_;
  std::unique_ptr<RpcServer> server_;
  std::unique_ptr<Endpoint> link_;
  std::promise<void> query_seen_;
  std::atomic<bool> seen_{false};
  std::promise<void> hold_;
  std::atomic<bool> released_{false};
};

class ShardFaultInjection
    : public ::testing::TestWithParam<FaultyWorker::Mode> {};

INSTANTIATE_TEST_SUITE_P(
    Modes, ShardFaultInjection,
    ::testing::Values(FaultyWorker::Mode::kHangUntilKilled,
                      FaultyWorker::Mode::kDisconnect),
    [](const ::testing::TestParamInfo<FaultyWorker::Mode>& info) {
      return info.param == FaultyWorker::Mode::kHangUntilKilled
                 ? "KilledMidQuery"
                 : "DisconnectMidQuery";
    });

TEST_P(ShardFaultInjection, DeadWorkerSurfacesUnavailableNotHang) {
  RemoteTopology topology(/*n=*/6, /*s=*/2, /*seed=*/2401);
  topology.AddWorker(0);  // shard 0: a real worker
  // Shard 1: the faulty one, advertising a geometry consistent with the
  // real set so construction succeeds and the failure strikes mid-query.
  ShardGeometry geometry = topology.workers[0]->worker()->geometry();
  geometry.shard = 1;
  FaultyWorker faulty(geometry, GetParam());

  std::vector<std::unique_ptr<Endpoint>> links;
  links.push_back(topology.workers[0]->TakeLink());
  links.push_back(faulty.TakeLink());
  auto engine = SknnEngine::CreateWithShardWorkers(
      SharedAlice().public_key(), std::move(links), topology.c2->Connect(),
      BaseOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();

  PlainRecord query = GenerateUniformQuery(2, kMaxValue, 2402);
  auto pending = std::async(std::launch::async, [&] {
    return RunQuery(**engine, query, 2, QueryProtocol::kSecure);
  });
  faulty.WaitForQuery();
  if (GetParam() == FaultyWorker::Mode::kHangUntilKilled) {
    faulty.Kill();  // the disconnect mode killed itself inside the handler
  }
  // The coordinator must fail the query with a real status — a hang here
  // trips the ctest timeout, which is exactly the regression this guards.
  auto result = pending.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
      << result.status();
  faulty.Release();

  // The engine itself is still alive for follow-up queries? No — its shard
  // set is degraded; but it must keep FAILING CLEANLY, not hang or crash.
  auto after = RunQuery(**engine, query, 1, QueryProtocol::kBasic);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// 5. Replicated shards (ISSUE 7): several workers per shard index are
// replicas; a replica dying or hanging mid-query fails over to a sibling
// WITHIN the query, and the answer stays bitwise the oracle's — the
// deterministic tie-break makes the result a pure function of
// (table, query, k), so which replica served a stage cannot show through.

TEST(ShardedQueryReplicas, DuplicateWorkersWithFullCoverageAreReplicas) {
  RemoteTopology topology(/*n=*/8, /*s=*/2, /*seed=*/2701);
  topology.AddWorker(0);
  topology.AddWorker(0);  // second worker for shard 0 = its replica
  topology.AddWorker(1);
  auto engine = topology.MakeEngine();
  ASSERT_TRUE(engine.ok()) << engine.status();
  const ShardCoordinator* coordinator = (*engine)->shard_coordinator();
  ASSERT_NE(coordinator, nullptr);
  EXPECT_EQ(coordinator->replicas(0), 2u);
  EXPECT_EQ(coordinator->replicas(1), 1u);

  auto reference = MakeEngine(topology.table, BaseOptions());
  PlainRecord query = GenerateUniformQuery(2, kMaxValue, 2702);
  auto local = RunQuery(*reference, query, 3, QueryProtocol::kSecure);
  ASSERT_TRUE(local.ok()) << local.status();
  auto remote = RunQuery(**engine, query, 3, QueryProtocol::kSecure);
  ASSERT_TRUE(remote.ok()) << remote.status();
  EXPECT_EQ(remote->records, local->records);

  // Health plumbing end to end: three replicas reported, all healthy, none
  // ever failed over.
  auto statuses = coordinator->ReplicaStatuses();
  ASSERT_EQ(statuses.size(), 3u);
  for (const auto& status : statuses) {
    EXPECT_TRUE(status.healthy);
    EXPECT_EQ(status.failovers, 0u);
    EXPECT_GE(status.last_ok_age_seconds, 0.0);
  }
}

struct FailoverCase {
  uint64_t seed;
  QueryProtocol protocol;
  unsigned k;
  FaultyWorker::Mode mode;
  uint32_t deadline_ms;  // 0 = none (the disconnect path needs no timer)
};

TEST(ShardedQueryReplicas, MidQueryReplicaKillIsBitwiseInvisible) {
  // The seeded kill sweep: replica 0 of shard 0 dies mid-query (disconnect
  // or hang), the stage retries on replica 1, and the answer must equal the
  // plaintext oracle bit for bit — across protocols and seeds.
  const std::vector<FailoverCase> sweep = {
      {2801, QueryProtocol::kSecure, 2, FaultyWorker::Mode::kDisconnect, 0},
      {2802, QueryProtocol::kBasic, 3, FaultyWorker::Mode::kDisconnect, 0},
      {2803, QueryProtocol::kFarthest, 2, FaultyWorker::Mode::kDisconnect, 0},
      // The hang needs a deadline: the per-attempt budget (deadline split
      // over untried replicas) is what turns a silent worker into an
      // in-query failover instead of a stall.
      {2804, QueryProtocol::kSecure, 2, FaultyWorker::Mode::kHangUntilKilled,
       5000},
  };
  for (const FailoverCase& c : sweep) {
    SCOPED_TRACE(std::string(QueryProtocolName(c.protocol)) + " seed=" +
                 std::to_string(c.seed) + " deadline=" +
                 std::to_string(c.deadline_ms));
    RemoteTopology topology(/*n=*/8, /*s=*/2, c.seed);
    topology.AddWorker(0);
    topology.AddWorker(1);
    ShardGeometry geometry = topology.workers[0]->worker()->geometry();
    FaultyWorker faulty(geometry, c.mode);

    // Connection order makes the faulty worker replica 0 — the preferred
    // first attempt — so every case exercises a real mid-query failover.
    std::vector<std::unique_ptr<Endpoint>> links;
    links.push_back(faulty.TakeLink());
    links.push_back(topology.workers[0]->TakeLink());
    links.push_back(topology.workers[1]->TakeLink());
    auto engine = SknnEngine::CreateWithShardWorkers(
        SharedAlice().public_key(), std::move(links), topology.c2->Connect(),
        BaseOptions());
    ASSERT_TRUE(engine.ok()) << engine.status();

    QueryRequest request;
    request.record = GenerateUniformQuery(2, kMaxValue, c.seed + 1);
    request.k = c.k;
    request.protocol = c.protocol;
    request.deadline_ms = c.deadline_ms;
    const PlainTable expected =
        Oracle(topology.table, request.record, c.k, c.protocol);

    auto response = (*engine)->Query(request);
    if (c.mode == FaultyWorker::Mode::kHangUntilKilled) faulty.Release();
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->records, expected)
        << "failover changed the answer — determinism broken";
    ASSERT_EQ(response->shards.size(), 2u);
    EXPECT_GE(response->shards[0].failovers, 1u);
    EXPECT_EQ(response->shards[0].replica, 1u)
        << "the answer should have come from the surviving replica";
    EXPECT_EQ(response->shards[1].failovers, 0u);

    // The coordinator learned: replica 1 is now preferred, so the next
    // query succeeds with zero failovers (and the same bits).
    auto again = (*engine)->Query(request);
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(again->records, expected);
    EXPECT_EQ(again->shards[0].failovers, 0u);
    EXPECT_EQ(again->shards[0].replica, 1u);

    auto statuses = (*engine)->shard_coordinator()->ReplicaStatuses();
    ASSERT_EQ(statuses.size(), 3u);
    EXPECT_GE(statuses[0].failovers, 1u);  // shard 0, replica 0: charged
  }
}

TEST(ShardedQueryReplicas, EveryReplicaHungYieldsDeadlineExceededInBudget) {
  // Both replicas of shard 0 are alive-but-silent (the SIGSTOP shape). The
  // deadline must resolve the query to a typed kDeadlineExceeded in bounded
  // time — the silent-stall gap this PR closes.
  RemoteTopology topology(/*n=*/6, /*s=*/2, /*seed=*/2901);
  topology.AddWorker(1);
  auto geometry_worker = topology.shards->MakeWorker(0);
  const ShardGeometry geometry = geometry_worker->geometry();
  FaultyWorker hung_a(geometry, FaultyWorker::Mode::kHangUntilKilled);
  FaultyWorker hung_b(geometry, FaultyWorker::Mode::kHangUntilKilled);

  std::vector<std::unique_ptr<Endpoint>> links;
  links.push_back(hung_a.TakeLink());
  links.push_back(hung_b.TakeLink());
  links.push_back(topology.workers[0]->TakeLink());
  auto engine = SknnEngine::CreateWithShardWorkers(
      SharedAlice().public_key(), std::move(links), topology.c2->Connect(),
      BaseOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();

  QueryRequest request;
  request.record = GenerateUniformQuery(2, kMaxValue, 2902);
  request.k = 1;
  request.protocol = QueryProtocol::kBasic;
  request.deadline_ms = 800;
  const auto started = std::chrono::steady_clock::now();
  auto response = (*engine)->Query(request);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - started);
  hung_a.Release();
  hung_b.Release();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
      << response.status();
  // Bounded: the deadline (plus scheduling slack), not a transport default
  // measured in minutes.
  EXPECT_LT(elapsed.count(), 10000) << "deadline did not bound the stall";
}

TEST(ShardedQueryReplicas, OutOfRangeCandidatesFailOverOrFailTheQuery) {
  // A replica answering well-shaped candidates with a ciphertext outside
  // Z*_{N^2} is charged like a dead one: with a healthy sibling the query
  // fails over and still matches the oracle; alone, it fails as a typed
  // kProtocolError that names the shard.
  for (FaultyWorker::Mode mode : {FaultyWorker::Mode::kZeroCiphertext,
                                  FaultyWorker::Mode::kOversizedCiphertext}) {
    for (QueryProtocol protocol :
         {QueryProtocol::kSecure, QueryProtocol::kBasic}) {
      for (bool with_sibling : {false, true}) {
        SCOPED_TRACE(std::string(QueryProtocolName(protocol)) +
                     (mode == FaultyWorker::Mode::kZeroCiphertext
                          ? " zero"
                          : " oversized") +
                     (with_sibling ? " with sibling" : " alone"));
        RemoteTopology topology(/*n=*/8, /*s=*/2, /*seed=*/3001);
        topology.AddWorker(0);
        topology.AddWorker(1);
        auto honest = topology.shards->MakeWorker(0);
        FaultyWorker faulty(honest->geometry(), mode, honest.get());

        // The faulty worker connects first, so it is replica 0 of shard 0
        // — the preferred first attempt.
        std::vector<std::unique_ptr<Endpoint>> links;
        links.push_back(faulty.TakeLink());
        if (with_sibling) links.push_back(topology.workers[0]->TakeLink());
        links.push_back(topology.workers[1]->TakeLink());
        auto engine = SknnEngine::CreateWithShardWorkers(
            SharedAlice().public_key(), std::move(links),
            topology.c2->Connect(), BaseOptions());
        ASSERT_TRUE(engine.ok()) << engine.status();

        const PlainRecord query = GenerateUniformQuery(2, kMaxValue, 3002);
        auto response = RunQuery(**engine, query, 2, protocol);
        if (!with_sibling) {
          ASSERT_FALSE(response.ok());
          EXPECT_EQ(response.status().code(), StatusCode::kProtocolError)
              << response.status();
          EXPECT_NE(response.status().message().find("shard 0"),
                    std::string::npos)
              << response.status();
          continue;
        }
        ASSERT_TRUE(response.ok()) << response.status();
        EXPECT_EQ(response->records,
                  Oracle(topology.table, query, 2, protocol));
        ASSERT_EQ(response->shards.size(), 2u);
        EXPECT_EQ(response->shards[0].failovers, 1u);
        EXPECT_EQ(response->shards[0].replica, 1u);
      }
    }
  }
}

TEST(ShardedQueryRemote, InProcessAndTcpWorkersAgreeShardForShard) {
  // The transport is not part of the shard path: workers served on
  // in-process socketpairs (what the sweeps above run) and workers served
  // over TCP (as sknn_c1_shard serves them) report the same records and
  // the same per-shard work.
  RemoteTopology topology(/*n=*/8, /*s=*/2, /*seed=*/3101);
  topology.AddWorker(0);
  topology.AddWorker(1);
  auto tcp = topology.MakeEngine();
  ASSERT_TRUE(tcp.ok()) << tcp.status();
  auto paired = topology.shards->MakeEngine(BaseOptions());
  ASSERT_TRUE(paired.ok()) << paired.status();
  SknnEngine& in_process = **paired;
  EXPECT_TRUE(in_process.info().remote_shard_workers);
  EXPECT_TRUE((*tcp)->info().remote_shard_workers);

  const PlainRecord query = GenerateUniformQuery(2, kMaxValue, 3102);
  for (QueryProtocol protocol :
       {QueryProtocol::kSecure, QueryProtocol::kBasic}) {
    SCOPED_TRACE(QueryProtocolName(protocol));
    auto local = RunQuery(in_process, query, 3, protocol);
    ASSERT_TRUE(local.ok()) << local.status();
    auto remote = RunQuery(**tcp, query, 3, protocol);
    ASSERT_TRUE(remote.ok()) << remote.status();
    EXPECT_EQ(local->records, remote->records);
    EXPECT_EQ(local->records, Oracle(topology.table, query, 3, protocol));
    ASSERT_EQ(local->shards.size(), 2u);
    ASSERT_EQ(remote->shards.size(), 2u);
    for (std::size_t shard = 0; shard < 2; ++shard) {
      SCOPED_TRACE("shard " + std::to_string(shard));
      const ShardQueryStats& a = local->shards[shard];
      const ShardQueryStats& b = remote->shards[shard];
      EXPECT_EQ(a.candidates, b.candidates);
      EXPECT_EQ(a.ops.encryptions, b.ops.encryptions);
      EXPECT_EQ(a.ops.decryptions, b.ops.decryptions);
      EXPECT_EQ(a.ops.exponentiations, b.ops.exponentiations);
      EXPECT_EQ(a.ops.multiplications, b.ops.multiplications);
      EXPECT_EQ(a.ops.inversions, b.ops.inversions);
      EXPECT_EQ(a.traffic.total_frames(), b.traffic.total_frames());
    }
  }
}

TEST(ShardedQueryRemote, WorkerAnswersMalformedFramesWithTypedErrors) {
  RemoteTopology topology(/*n=*/4, /*s=*/2, /*seed=*/2501);
  auto worker = topology.shards->MakeWorker(0);

  // Unknown opcode in the shard space.
  Message bogus;
  bogus.type = 0x02FF;
  auto resp = worker->Handle(bogus);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kProtocolError);

  // A query frame with garbage geometry.
  Message garbage;
  garbage.type = ShardOpCode(ShardOp::kShardQuery);
  garbage.aux = {1, 2, 3};
  resp = worker->Handle(garbage);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kProtocolError);

  // A well-formed frame whose ciphertexts are not valid under the key.
  ShardQueryFrame frame;
  frame.query_id = 42;
  frame.k = 1;
  frame.enc_query = {Ciphertext(BigInt(0)), Ciphertext(BigInt(0))};
  resp = worker->Handle(EncodeShardQuery(frame));
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kCryptoError);
}

}  // namespace
}  // namespace sknn
