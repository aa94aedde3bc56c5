// End-to-end tests of SkNN_b and SkNN_m through the SknnEngine's
// request/response API, checked against exact plaintext kNN: the paper's
// worked Example 1, randomized tables, duplicate-distance ties, both serial
// and parallel execution, request validation, and the deprecated wrappers.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "baseline/plaintext_knn.h"
#include "core/clustering.h"
#include "core/data_owner.h"
#include "core/engine.h"
#include "data/heart_dataset.h"
#include "data/synthetic.h"
#include "proto/sm.h"
#include "tests/query_test_util.h"
#include "tests/shard_test_util.h"

namespace sknn {
namespace {

// Sorting neighbor sets makes comparisons robust to tie ordering.
PlainTable Sorted(PlainTable t) {
  std::sort(t.begin(), t.end());
  return t;
}

// Distance multiset w.r.t. the query — the invariant a correct kNN answer
// must satisfy even when different tied records are returned.
std::multiset<int64_t> DistanceSet(const PlainTable& rows,
                                   const PlainRecord& q) {
  std::multiset<int64_t> out;
  for (const auto& r : rows) out.insert(SquaredDistance(r, q));
  return out;
}

SknnEngine::Options FastOptions() {
  SknnEngine::Options opts;
  opts.key_bits = 256;  // correctness is key-size independent; keep CI fast
  return opts;
}

TEST(SkNNbEndToEnd, HeartDiseaseExample1) {
  // Example 1: the 2-NN of Q in Table 1 are t4 and t5.
  SknnEngine::Options opts = FastOptions();
  opts.attr_bits = HeartAttrBits();
  auto engine = SknnEngine::Create(HeartFeatures(), opts);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto result = RunQuery(**engine, HeartExampleQuery(), 2, QueryProtocol::kBasic);
  ASSERT_TRUE(result.ok()) << result.status();
  const PlainTable& features = HeartFeatures();
  PlainTable expected = {features[4], features[3]};  // t5 (dist 119), t4 (139)
  EXPECT_EQ(result->records, expected);
}

TEST(SkNNmEndToEnd, HeartDiseaseExample1) {
  SknnEngine::Options opts = FastOptions();
  opts.attr_bits = HeartAttrBits();
  auto engine = SknnEngine::Create(HeartFeatures(), opts);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto result = RunQuery(**engine, HeartExampleQuery(), 2, QueryProtocol::kSecure);
  ASSERT_TRUE(result.ok()) << result.status();
  const PlainTable& features = HeartFeatures();
  PlainTable expected = {features[4], features[3]};
  EXPECT_EQ(result->records, expected);
}

TEST(SkNNbEndToEnd, MatchesPlaintextKnnOnRandomTable) {
  const std::size_t n = 40, m = 4;
  const int64_t max_value = 30;
  PlainTable table = GenerateUniformTable(n, m, max_value, 101);
  PlainRecord query = GenerateUniformQuery(m, max_value, 102);

  SknnEngine::Options opts = FastOptions();
  opts.attr_bits = BitsForMaxValue(max_value);
  auto engine = SknnEngine::Create(table, opts);
  ASSERT_TRUE(engine.ok()) << engine.status();

  for (unsigned k : {1u, 3u, 7u}) {
    auto result = RunQuery(**engine, query, k, QueryProtocol::kBasic);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->records.size(), k);
    EXPECT_EQ(DistanceSet(result->records, query),
              DistanceSet(PlainKnn(table, query, k), query))
        << "k=" << k;
  }
}

TEST(SkNNmEndToEnd, MatchesPlaintextKnnOnRandomTable) {
  const std::size_t n = 12, m = 3;
  const int64_t max_value = 6;
  PlainTable table = GenerateUniformTable(n, m, max_value, 201);
  PlainRecord query = GenerateUniformQuery(m, max_value, 202);

  SknnEngine::Options opts = FastOptions();
  opts.attr_bits = BitsForMaxValue(max_value);
  auto engine = SknnEngine::Create(table, opts);
  ASSERT_TRUE(engine.ok()) << engine.status();

  for (unsigned k : {1u, 2u, 4u}) {
    auto result = RunQuery(**engine, query, k, QueryProtocol::kSecure);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->records.size(), k);
    EXPECT_EQ(DistanceSet(result->records, query),
              DistanceSet(PlainKnn(table, query, k), query))
        << "k=" << k;
  }
}

TEST(SkNNmEndToEnd, NeighborsAreInIncreasingDistanceOrder) {
  const std::size_t n = 10, m = 2;
  PlainTable table = GenerateUniformTable(n, m, 7, 301);
  PlainRecord query = GenerateUniformQuery(m, 7, 302);
  SknnEngine::Options opts = FastOptions();
  opts.attr_bits = 3;
  auto engine = SknnEngine::Create(table, opts);
  ASSERT_TRUE(engine.ok());
  auto result = RunQuery(**engine, query, 4, QueryProtocol::kSecure);
  ASSERT_TRUE(result.ok());
  for (std::size_t j = 1; j < result->records.size(); ++j) {
    EXPECT_LE(SquaredDistance(result->records[j - 1], query),
              SquaredDistance(result->records[j], query));
  }
}

TEST(SkNNmEndToEnd, HandlesDuplicateRecords) {
  // Several records identical to the query: ties at distance zero must be
  // resolved without double-returning the same tournament winner.
  PlainTable table = {{1, 1}, {5, 5}, {1, 1}, {6, 2}, {1, 1}, {7, 7}};
  PlainRecord query = {1, 1};
  SknnEngine::Options opts = FastOptions();
  opts.attr_bits = 3;
  auto engine = SknnEngine::Create(table, opts);
  ASSERT_TRUE(engine.ok());
  auto result = RunQuery(**engine, query, 3, QueryProtocol::kSecure);
  ASSERT_TRUE(result.ok()) << result.status();
  // All three zero-distance copies must be returned.
  PlainTable expected = {{1, 1}, {1, 1}, {1, 1}};
  EXPECT_EQ(Sorted(result->records), expected);
}

TEST(SkNNmEndToEnd, KEqualsN) {
  PlainTable table = {{0, 0}, {3, 1}, {1, 2}};
  PlainRecord query = {1, 1};
  SknnEngine::Options opts = FastOptions();
  opts.attr_bits = 2;
  auto engine = SknnEngine::Create(table, opts);
  ASSERT_TRUE(engine.ok());
  auto result = RunQuery(**engine, query, 3, QueryProtocol::kSecure);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(Sorted(result->records), Sorted(table));
}

TEST(SkNNEndToEnd, SingleRecordDatabase) {
  PlainTable table = {{2, 3}};
  SknnEngine::Options opts = FastOptions();
  opts.attr_bits = 2;
  auto engine = SknnEngine::Create(table, opts);
  ASSERT_TRUE(engine.ok());
  for (QueryProtocol protocol :
       {QueryProtocol::kBasic, QueryProtocol::kSecure}) {
    auto result = RunQuery(**engine, {0, 0}, 1, protocol);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->records, table);
  }
}

TEST(SkNNEndToEnd, InvalidRequestsAreRejected) {
  PlainTable table = GenerateUniformTable(5, 3, 3, 401);
  SknnEngine::Options opts = FastOptions();
  opts.attr_bits = 2;
  auto engine = SknnEngine::Create(table, opts);
  ASSERT_TRUE(engine.ok());
  // k = 0.
  auto r = RunQuery(**engine, {1, 1, 1}, 0, QueryProtocol::kBasic);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // k > n (= k_max): rejected at admission with kInvalidArgument.
  r = RunQuery(**engine, {1, 1, 1}, 6, QueryProtocol::kBasic);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Dimension mismatch.
  r = RunQuery(**engine, {1, 1}, 2, QueryProtocol::kBasic);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Attribute outside [0, 2^attr_bits) — would overflow the l-bit distance
  // domain and produce undefined protocol behavior; must be caught up front.
  r = RunQuery(**engine, {1, 1, 9}, 2, QueryProtocol::kSecure);
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  r = RunQuery(**engine, {1, -1, 1}, 2, QueryProtocol::kSecure);
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  // Same validation through the batch path.
  QueryRequest k_zero;
  k_zero.record = {1, 1, 1};
  k_zero.k = 0;
  auto batch = (*engine)->QueryBatch({k_zero});
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].status().code(), StatusCode::kInvalidArgument);
}

TEST(SkNNEndToEnd, EngineRejectsBadSetup) {
  SknnEngine::Options opts = FastOptions();
  EXPECT_FALSE(SknnEngine::Create({}, opts).ok());  // empty table
  PlainTable table = {{100}};
  opts.attr_bits = 3;  // 100 >= 2^3
  EXPECT_FALSE(SknnEngine::Create(table, opts).ok());
}

TEST(SkNNEndToEnd, ParallelEnginesMatchSerial) {
  const std::size_t n = 16, m = 3;
  PlainTable table = GenerateUniformTable(n, m, 7, 501);
  PlainRecord query = GenerateUniformQuery(m, 7, 502);

  SknnEngine::Options serial = FastOptions();
  serial.attr_bits = 3;
  SknnEngine::Options parallel = serial;
  parallel.c1_threads = 3;
  parallel.c2_threads = 2;

  auto engine_s = SknnEngine::Create(table, serial);
  auto engine_p = SknnEngine::Create(table, parallel);
  ASSERT_TRUE(engine_s.ok());
  ASSERT_TRUE(engine_p.ok());

  for (unsigned k : {1u, 3u}) {
    auto rs = RunQuery(**engine_s, query, k, QueryProtocol::kSecure);
    auto rp = RunQuery(**engine_p, query, k, QueryProtocol::kSecure);
    ASSERT_TRUE(rs.ok());
    ASSERT_TRUE(rp.ok());
    EXPECT_EQ(DistanceSet(rs->records, query),
              DistanceSet(rp->records, query));
    auto rbs = RunQuery(**engine_s, query, k, QueryProtocol::kBasic);
    auto rbp = RunQuery(**engine_p, query, k, QueryProtocol::kBasic);
    ASSERT_TRUE(rbs.ok());
    ASSERT_TRUE(rbp.ok());
    EXPECT_EQ(DistanceSet(rbs->records, query),
              DistanceSet(rbp->records, query));
  }
}

TEST(SkNNEndToEnd, MetricsArePopulated) {
  PlainTable table = GenerateUniformTable(8, 2, 3, 601);
  SknnEngine::Options opts = FastOptions();
  opts.attr_bits = 2;
  auto engine = SknnEngine::Create(table, opts);
  ASSERT_TRUE(engine.ok());
  auto result = RunQuery(**engine, {1, 2}, 2, QueryProtocol::kSecure);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->cloud_seconds, 0.0);
  EXPECT_GT(result->traffic.total_bytes(), 0u);
  EXPECT_GT(result->ops.encryptions, 0u);
  EXPECT_GT(result->ops.decryptions, 0u);
  // SkNN_m breakdown must roughly cover the cloud time.
  EXPECT_GT(result->breakdown.sminn_seconds, 0.0);
  EXPECT_GT(result->breakdown.ssed_seconds, 0.0);
  EXPECT_GT(result->breakdown.sbd_seconds, 0.0);
  EXPECT_LE(result->breakdown.total(), result->cloud_seconds * 1.5 + 0.1);

  auto basic = RunQuery(**engine, {1, 2}, 2, QueryProtocol::kBasic);
  ASSERT_TRUE(basic.ok());
  // The fully secure protocol must cost strictly more than the basic one —
  // the security/efficiency trade-off of Figure 2(f).
  EXPECT_GT(result->ops.encryptions, basic->ops.encryptions);
  EXPECT_GT(result->traffic.total_bytes(), basic->traffic.total_bytes());
}

TEST(SkNNEndToEnd, InstrumentationIsOptIn) {
  PlainTable table = GenerateUniformTable(6, 2, 3, 701);
  SknnEngine::Options opts = FastOptions();
  opts.attr_bits = 2;
  auto engine = SknnEngine::Create(table, opts);
  ASSERT_TRUE(engine.ok());
  QueryRequest request;
  request.record = {1, 2};
  request.k = 1;
  request.want_breakdown = false;
  request.want_op_counts = false;
  auto result = (*engine)->Query(request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->records.size(), 1u);
  EXPECT_EQ(result->ops.encryptions, 0u);
  EXPECT_EQ(result->breakdown.total(), 0.0);
  // Traffic metering is free and always exact.
  EXPECT_GT(result->traffic.total_bytes(), 0u);
}

TEST(SkNNEndToEnd, ProductionCallersBlindForTheAttributeDomain) {
  // Every SSED square, SMIN square and extraction SM of a served query
  // blinds for the engine's attribute domain (proto/sm.h): each kSqVec /
  // kSmVec view v lies in 0 < N - v < 2^(attr_bits + kappa + 2), and each
  // per-slot kSqSumVec view v in 0 < v < 2^(attr_bits + kappa + 2).
  // Unsharded, 2-shard-worker and clustered engines, secure and basic,
  // at 256-bit keys (one slot per SSED group, sent as kSqVec) and 512-bit
  // keys (three slots, kSqSumVec).
  // Three well-separated clusters in a 4-bit domain; the query's 2 nearest
  // rows are unique and sit in its own cluster, so probing one cluster
  // answers exactly.
  const PlainTable table = {{0, 0, 0},    {1, 0, 1},    {0, 1, 0},
                            {1, 1, 1},    {7, 7, 7},    {8, 7, 8},
                            {7, 8, 7},    {8, 8, 8},    {14, 14, 14},
                            {15, 14, 15}, {14, 15, 14}, {15, 15, 15}};
  const PlainRecord query = {1, 1, 1};
  const unsigned k = 2;
  for (unsigned key_bits : {256u, 512u}) {
    SCOPED_TRACE(::testing::Message() << key_bits << "-bit key");
    auto alice = DataOwner::Create(key_bits);
    ASSERT_TRUE(alice.ok()) << alice.status();
    auto manifest = BuildClusterManifest(table, 3, 5, alice->public_key());
    ASSERT_TRUE(manifest.ok()) << manifest.status();
    auto clusters =
        std::make_shared<const ClusterManifest>(std::move(manifest).value());

    struct Topology {
      const char* name;
      std::size_t shards;
      bool clustered;
    };
    for (const Topology& topology : {Topology{"unsharded", 1, false},
                                     Topology{"2 shards", 2, false},
                                     Topology{"clustered", 1, true}}) {
      SknnEngine::Options opts;
      if (topology.clustered) opts.clusters = clusters;
      auto db = alice->EncryptDatabase(table, 4);
      ASSERT_TRUE(db.ok()) << db.status();
      // Two shard workers and their front end share one C2, whose views
      // are the query's whole view.
      std::unique_ptr<ShardedTable> sharded;
      std::unique_ptr<SknnEngine> local;
      if (topology.shards > 1) {
        sharded = std::make_unique<ShardedTable>(
            alice->public_key(), PaillierSecretKey(alice->secret_key_for_c2()),
            std::move(db).value(), topology.shards, ShardScheme::kContiguous,
            opts);
        sharded->c2->service().set_record_views(true);
      } else {
        auto created = SknnEngine::CreateFromParts(
            alice->public_key(), PaillierSecretKey(alice->secret_key_for_c2()),
            std::move(db).value(), opts);
        ASSERT_TRUE(created.ok()) << created.status();
        local = std::move(created).value();
        local->c2_service().set_record_views(true);
      }
      SknnEngine* engine = sharded ? sharded->engine.get() : local.get();
      C2Service& c2 = sharded ? sharded->c2->service() : engine->c2_service();
      const unsigned w = engine->info().attr_bits;
      ASSERT_EQ(w, 4u);
      const BigInt& n = alice->public_key().n();
      const BigInt window = BigInt::PowerOfTwo(w + kBlindStatisticalBits + 2);
      for (QueryProtocol protocol :
           {QueryProtocol::kSecure, QueryProtocol::kBasic}) {
        QueryRequest request;
        request.record = query;
        request.k = k;
        request.protocol = protocol;
        if (topology.clustered) {
          request.index_mode = IndexMode::kClustered;
          request.probe_clusters = 1;
        }
        auto result = engine->Query(request);
        ASSERT_TRUE(result.ok()) << topology.name << ": " << result.status();
        EXPECT_EQ(result->records, PlainKnn(table, query, k)) << topology.name;
        std::size_t blinded = 0, slots = 0;
        for (const C2View& view : c2.TakeViews()) {
          if (view.op == Op::kSqSumVec) {
            ++slots;
            EXPECT_TRUE(view.plaintext > BigInt(0) && view.plaintext < window)
                << topology.name << " protocol "
                << static_cast<int>(protocol) << ": slot " << view.plaintext;
            continue;
          }
          if (view.op != Op::kSqVec && view.op != Op::kSmVec) continue;
          ++blinded;
          const BigInt below_n = n - view.plaintext;
          EXPECT_TRUE(below_n > BigInt(0) && below_n < window)
              << topology.name << " protocol "
              << static_cast<int>(protocol) << ": view " << view.plaintext;
        }
        // One slot view per attribute of every record and centroid scored.
        if (key_bits == 512) {
          EXPECT_GT(slots, 0u) << topology.name;
          EXPECT_EQ(slots % query.size(), 0u) << topology.name;
        } else {
          EXPECT_EQ(slots, 0u) << topology.name;
        }
        if (protocol == QueryProtocol::kSecure || key_bits == 256) {
          EXPECT_GT(blinded, 0u) << topology.name;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sknn
