// The clustered-index proof harness (ISSUE 9 tentpole): the approximate
// (clustered) index mode must degrade EXACTLY as specified and nowhere
// else.
//
// Layers of evidence:
//   1. k-means unit behavior — deterministic in the seed, every cluster
//      non-empty, k capped at n, garbage rejected;
//   2. the SKNNCL01 manifest round-trips bit-exactly through db_io and
//      malformed/truncated/foreign files are rejected with typed errors;
//   3. THE differential anchor: probe_clusters >= num_clusters is
//      bitwise-identical to the exact engine — records AND per-query op
//      counts — because the engine falls through to the exact path;
//   4. a seeded recall@k sweep: recall grows with probe_clusters and a
//      well-separated table reaches recall 1.0 well before probe = all;
//   5. the sharded topology: one shard worker per cluster
//      (ShardScheme::kByCluster), pruned shards report pruned = 1 with
//      zero traffic, and the sharded clustered answer equals the
//      unsharded clustered answer probe for probe;
//   6. the greedy candidate expansion: probe = 1 with k larger than the
//      nearest cluster silently widens to enough clusters to honor k.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"

#include "baseline/plaintext_knn.h"
#include "core/clustering.h"
#include "core/data_owner.h"
#include "core/db_io.h"
#include "core/engine.h"
#include "core/sharding.h"
#include "data/synthetic.h"
#include "tests/query_test_util.h"
#include "tests/shard_test_util.h"

namespace sknn {
namespace {

constexpr unsigned kKeyBits = 256;
constexpr unsigned kAttrBits = 4;
constexpr int64_t kMaxValue = 15;  // [0, 2^kAttrBits)

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
  options.randomizer_pool_capacity = 32;
  return options;
}

std::shared_ptr<const ClusterManifest> MakeManifest(const PlainTable& table,
                                                    uint32_t clusters,
                                                    uint64_t seed) {
  auto built = BuildClusterManifest(table, clusters, seed,
                                    SharedAlice().public_key());
  EXPECT_TRUE(built.ok()) << built.status();
  return std::make_shared<const ClusterManifest>(std::move(built).value());
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

Result<QueryResponse> RunClustered(SknnEngine& engine,
                                   const PlainRecord& record, unsigned k,
                                   QueryProtocol protocol, uint32_t probe) {
  QueryRequest request;
  request.record = record;
  request.k = k;
  request.protocol = protocol;
  request.index_mode = IndexMode::kClustered;
  request.probe_clusters = probe;
  request.want_op_counts = true;
  return engine.Query(request);
}

// recall@k against the plaintext oracle, multiset semantics (random tables
// contain duplicate rows).
double RecallAtK(const PlainTable& got, const PlainTable& want) {
  std::map<PlainRecord, int> pool;
  for (const PlainRecord& r : want) ++pool[r];
  std::size_t hits = 0;
  for (const PlainRecord& r : got) {
    auto it = pool.find(r);
    if (it != pool.end() && it->second > 0) {
      --it->second;
      ++hits;
    }
  }
  return want.empty() ? 1.0 : static_cast<double>(hits) / want.size();
}

// ---------------------------------------------------------------------------
// 1. k-means unit behavior.

TEST(KMeansPartition, DeterministicAndCoversEveryCluster) {
  PlainTable table = GenerateClusteredTable(40, 3, kMaxValue,
                                            {4, /*spread=*/1}, 901);
  auto a = KMeansPartition(table, 4, /*seed=*/7);
  auto b = KMeansPartition(table, 4, /*seed=*/7);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->assignment, b->assignment);
  EXPECT_EQ(a->centroids, b->centroids);
  ASSERT_EQ(a->assignment.size(), table.size());
  // Every cluster holds at least one record (the post-pass fixup invariant
  // a by-cluster ShardWorker depends on).
  std::vector<int> counts(4, 0);
  for (uint32_t c : a->assignment) {
    ASSERT_LT(c, 4u);
    ++counts[c];
  }
  for (int count : counts) EXPECT_GT(count, 0);
  // Centroids stay inside the attribute domain.
  for (const PlainRecord& centroid : a->centroids) {
    for (int64_t v : centroid) {
      EXPECT_GE(v, 0);
      EXPECT_LE(v, kMaxValue);
    }
  }
}

TEST(KMeansPartition, CapsClustersAtRecordCountAndRejectsGarbage) {
  PlainTable tiny = {{1, 1}, {2, 2}, {14, 14}};
  auto capped = KMeansPartition(tiny, 10, 3);
  ASSERT_TRUE(capped.ok()) << capped.status();
  EXPECT_EQ(capped->centroids.size(), 3u);  // k = min(10, n)

  EXPECT_FALSE(KMeansPartition(tiny, 0, 3).ok());
  EXPECT_FALSE(KMeansPartition(PlainTable{}, 2, 3).ok());
  PlainTable ragged = {{1, 2}, {3}};
  EXPECT_FALSE(KMeansPartition(ragged, 2, 3).ok());
}

// ---------------------------------------------------------------------------
// 2. SKNNCL01 persistence.

TEST(ClusterManifestIo, RoundTripsBitExactly) {
  PlainTable table = GenerateClusteredTable(24, 2, kMaxValue, {3, 1}, 902);
  auto manifest = MakeManifest(table, 3, 11);
  const std::string path = ::testing::TempDir() + "/clusters_rt.bin";
  ASSERT_TRUE(WriteClusterManifest(path, *manifest).ok());
  auto loaded = ReadClusterManifest(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_clusters, manifest->num_clusters);
  EXPECT_EQ(loaded->num_attributes, manifest->num_attributes);
  EXPECT_EQ(loaded->total_records, manifest->total_records);
  EXPECT_EQ(loaded->assignment, manifest->assignment);
  ASSERT_EQ(loaded->centroids.size(), manifest->centroids.size());
  for (std::size_t c = 0; c < manifest->centroids.size(); ++c) {
    ASSERT_EQ(loaded->centroids[c].size(), manifest->centroids[c].size());
    for (std::size_t j = 0; j < manifest->centroids[c].size(); ++j) {
      EXPECT_EQ(loaded->centroids[c][j].value(),
                manifest->centroids[c][j].value())
          << "centroid " << c << " attr " << j;
    }
  }
}

TEST(ClusterManifestIo, RejectsForeignTruncatedAndTrailing) {
  PlainTable table = GenerateClusteredTable(12, 2, kMaxValue, {2, 1}, 903);
  auto manifest = MakeManifest(table, 2, 5);
  const std::string path = ::testing::TempDir() + "/clusters_bad.bin";
  ASSERT_TRUE(WriteClusterManifest(path, *manifest).ok());

  std::string bytes;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
      bytes.append(buf, got);
    }
    std::fclose(f);
  }
  auto write_bytes = [&](const std::string& data) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
    std::fclose(f);
  };

  // Foreign magic.
  {
    std::string foreign = bytes;
    foreign[0] = 'X';
    write_bytes(foreign);
    EXPECT_FALSE(ReadClusterManifest(path).ok());
  }
  // Truncation at several depths: header, assignment, centroid bytes.
  for (std::size_t cut : {std::size_t{4}, std::size_t{12}, std::size_t{21},
                          bytes.size() - 1}) {
    write_bytes(bytes.substr(0, cut));
    EXPECT_FALSE(ReadClusterManifest(path).ok()) << "cut at " << cut;
  }
  // Trailing bytes.
  write_bytes(bytes + "junk");
  EXPECT_FALSE(ReadClusterManifest(path).ok());
}

// ---------------------------------------------------------------------------
// 3. probe = all is bitwise-exact (the differential anchor).

TEST(ClusteredIndex, ProbeAllIsBitwiseIdenticalToExact) {
  PlainTable table = GenerateClusteredTable(30, 2, kMaxValue, {3, 1}, 904);
  PlainRecord query = GenerateUniformQuery(2, kMaxValue, 905);
  SknnEngine::Options options = BaseOptions();
  options.clusters = MakeManifest(table, 3, 17);
  auto clustered = MakeEngine(table, options);
  auto exact = MakeEngine(table, BaseOptions());
  EXPECT_EQ(clustered->info().num_clusters, 3u);

  for (QueryProtocol protocol :
       {QueryProtocol::kBasic, QueryProtocol::kSecure,
        QueryProtocol::kFarthest}) {
    SCOPED_TRACE(QueryProtocolName(protocol));
    QueryRequest request;
    request.record = query;
    request.k = 4;
    request.protocol = protocol;
    request.want_op_counts = true;
    auto reference = exact->Query(request);
    ASSERT_TRUE(reference.ok()) << reference.status();
    // probe = num_clusters and probe > num_clusters both fall through.
    for (uint32_t probe : {3u, 100u}) {
      auto result = RunClustered(*clustered, query, 4, protocol, probe);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(result->records, reference->records) << "probe " << probe;
      // Bitwise identity includes the WORK: no probe round ran at all.
      EXPECT_EQ(result->ops.encryptions, reference->ops.encryptions)
          << "probe " << probe;
    }
  }
}

// ---------------------------------------------------------------------------
// 4. recall@k vs probe_clusters.

TEST(ClusteredIndex, RecallGrowsWithProbeAndSaturates) {
  // Well-separated clusters (spread 1 over a 0..15 domain) so the geometry
  // is meaningful; seeds fixed so the sweep is reproducible.
  const std::size_t n = 48, m = 2;
  const uint32_t num_clusters = 4;
  PlainTable table =
      GenerateClusteredTable(n, m, kMaxValue, {num_clusters, 1}, 906);
  SknnEngine::Options options = BaseOptions();
  options.clusters = MakeManifest(table, num_clusters, 23);
  auto engine = MakeEngine(table, options);

  const unsigned k = 4;
  std::vector<PlainRecord> queries;
  for (uint64_t seed = 910; seed < 916; ++seed) {
    queries.push_back(GenerateUniformQuery(m, kMaxValue, seed));
  }
  double last_mean = 0;
  for (uint32_t probe = 1; probe <= num_clusters; ++probe) {
    double total = 0;
    for (const PlainRecord& query : queries) {
      auto result =
          RunClustered(*engine, query, k, QueryProtocol::kBasic, probe);
      ASSERT_TRUE(result.ok()) << result.status();
      ASSERT_EQ(result->records.size(), k);
      total += RecallAtK(result->records, PlainKnn(table, query, k));
    }
    const double mean = total / queries.size();
    // Monotone within noise: probing MORE clusters can only add candidates.
    EXPECT_GE(mean, last_mean - 1e-9) << "probe " << probe;
    last_mean = mean;
  }
  // probe = all is exact, and the knee arrives earlier: half the clusters
  // already clear the deployment guidance bar of 0.9.
  EXPECT_EQ(last_mean, 1.0);
  double total_half = 0;
  for (const PlainRecord& query : queries) {
    auto result = RunClustered(*engine, query, k, QueryProtocol::kBasic,
                               num_clusters / 2);
    ASSERT_TRUE(result.ok()) << result.status();
    total_half += RecallAtK(result->records, PlainKnn(table, query, k));
  }
  EXPECT_GE(total_half / queries.size(), 0.9);
}

// ---------------------------------------------------------------------------
// 5. sharded (kByCluster) topology.

TEST(ClusteredIndex, ShardedByClusterPrunesAndMatchesUnsharded) {
  PlainTable table = GenerateClusteredTable(32, 2, kMaxValue, {4, 1}, 907);
  PlainRecord query = GenerateUniformQuery(2, kMaxValue, 908);
  auto manifest = MakeManifest(table, 4, 29);

  SknnEngine::Options unsharded_options = BaseOptions();
  unsharded_options.clusters = manifest;
  auto unsharded = MakeEngine(table, unsharded_options);

  // One sknn_c1_shard --clusters worker per cluster.
  SknnEngine::Options sharded_options = BaseOptions();
  sharded_options.clusters = manifest;
  auto db = SharedAlice().EncryptDatabase(table, kAttrBits);
  ASSERT_TRUE(db.ok()) << db.status();
  ShardedTable by_cluster(SharedAlice().public_key(),
                          PaillierSecretKey(SharedAlice().secret_key_for_c2()),
                          std::move(db).value(), sharded_options);
  SknnEngine* sharded = by_cluster.engine.get();
  EXPECT_EQ(sharded->info().shard_scheme, ShardScheme::kByCluster);
  EXPECT_EQ(sharded->info().num_shards, 4u);

  for (QueryProtocol protocol :
       {QueryProtocol::kBasic, QueryProtocol::kSecure}) {
    for (uint32_t probe = 1; probe <= 4; ++probe) {
      SCOPED_TRACE(std::string(QueryProtocolName(protocol)) + " probe " +
                   std::to_string(probe));
      auto reference =
          RunClustered(*unsharded, query, 3, protocol, probe);
      ASSERT_TRUE(reference.ok()) << reference.status();
      auto result = RunClustered(*sharded, query, 3, protocol, probe);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(result->records, reference->records);
      if (probe >= 4) continue;  // fell through to exact: stats covered
                                 // by the sharded-query suite
      ASSERT_EQ(result->shards.size(), 4u);
      uint32_t pruned = 0, total_records = 0;
      for (const ShardQueryStats& stats : result->shards) {
        total_records += stats.shard_records;
        EXPECT_GT(stats.shard_records, 0u);
        if (stats.pruned != 0) {
          ++pruned;
          // A pruned shard never saw the query: no candidates, no traffic.
          EXPECT_EQ(stats.candidates, 0u);
          EXPECT_EQ(stats.traffic.total_frames(), 0u);
          EXPECT_EQ(stats.ops.encryptions, 0u);
        } else {
          EXPECT_GT(stats.candidates, 0u);
        }
      }
      EXPECT_EQ(total_records, 32u);
      // The probe round prunes exactly the unprobed clusters (the greedy
      // expansion may keep extras only when k demands it; k=3 fits any
      // single cluster of this table).
      EXPECT_EQ(pruned, 4u - probe);
    }
  }
}

// ---------------------------------------------------------------------------
// 6. edge cases and admission.

TEST(ClusteredIndex, GreedyExpansionHonorsKBeyondNearestCluster) {
  // 3 tight clusters of 5 records each; k = 12 needs at least 3 clusters
  // even though probe asks for 1.
  PlainTable table = GenerateClusteredTable(15, 2, kMaxValue, {3, 1}, 909);
  SknnEngine::Options options = BaseOptions();
  options.clusters = MakeManifest(table, 3, 31);
  auto engine = MakeEngine(table, options);
  auto result = RunClustered(*engine, {7, 7}, 12, QueryProtocol::kBasic, 1);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->records.size(), 12u);
  // Expanding to >= 12 candidates forces every cluster in: the answer is
  // the exact one.
  EXPECT_EQ(result->records, PlainKnn(table, {7, 7}, 12));
}

TEST(ClusteredIndex, ClusteredRequestWithoutManifestIsInvalidArgument) {
  PlainTable table = GenerateUniformTable(8, 2, kMaxValue, 910);
  auto engine = MakeEngine(table, BaseOptions());
  auto result =
      RunClustered(*engine, {1, 1}, 2, QueryProtocol::kBasic, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClusteredIndex, ProbeZeroBehavesAsOne) {
  PlainTable table = GenerateClusteredTable(16, 2, kMaxValue, {2, 1}, 911);
  SknnEngine::Options options = BaseOptions();
  options.clusters = MakeManifest(table, 2, 37);
  auto engine = MakeEngine(table, options);
  auto zero = RunClustered(*engine, {3, 3}, 2, QueryProtocol::kBasic, 0);
  auto one = RunClustered(*engine, {3, 3}, 2, QueryProtocol::kBasic, 1);
  ASSERT_TRUE(zero.ok()) << zero.status();
  ASSERT_TRUE(one.ok()) << one.status();
  EXPECT_EQ(zero->records, one->records);
}

TEST(ClusteredIndex, CentroidOutsideTheKeysGroupIsRefused) {
  // Centroids reach the probe round's SSED unchecked by any loader, so the
  // engine refuses one outside Z*_{N^2}: 0 (not a unit) and N^2 (out of
  // range), each naming its cluster and attribute.
  PlainTable table = GenerateClusteredTable(12, 2, kMaxValue, {2, 1}, 912);
  auto db = SharedAlice().EncryptDatabase(table, kAttrBits);
  ASSERT_TRUE(db.ok()) << db.status();
  auto intact = MakeManifest(table, 2, 41);
  auto create = [&](std::shared_ptr<const ClusterManifest> clusters) {
    SknnEngine::Options options = BaseOptions();
    options.clusters = std::move(clusters);
    return SknnEngine::CreateFromParts(
        SharedAlice().public_key(),
        PaillierSecretKey(SharedAlice().secret_key_for_c2()), *db, options);
  };
  const PaillierPublicKey& pk = SharedAlice().public_key();
  for (const BigInt& bad : {BigInt(0), pk.n_squared()}) {
    ClusterManifest tampered = *intact;
    tampered.centroids[1][0] = Ciphertext(bad);
    auto engine = create(std::make_shared<const ClusterManifest>(tampered));
    ASSERT_FALSE(engine.ok()) << "centroid " << bad.ToString() << " loaded";
    EXPECT_EQ(engine.status().code(), StatusCode::kCryptoError);
    EXPECT_NE(engine.status().message().find("cluster 1, attribute 0"),
              std::string::npos)
        << engine.status();
  }
  auto engine = create(intact);
  EXPECT_TRUE(engine.ok()) << engine.status();
}

}  // namespace
}  // namespace sknn
