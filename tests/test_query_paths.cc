// Pins the C1 query paths of an engine without a coordinator: exact queries
// run the shard stage over the whole table, and pruned clustered queries
// (probe_clusters < clusters) run it over the chosen clusters' gathered
// records. For each protocol, on a fixed seeded table at 256-bit keys:
//   - the records equal the plaintext oracle (exact) or the plaintext
//     replay of the pruning round followed by the oracle over the surviving
//     candidates (clustered);
//   - every Paillier op class and the C1<->C2 frame count equal pinned
//     constants (op and frame counts do not depend on key or randomness,
//     only on the table's shape and the clusters chosen);
//   - the phase breakdown is all zero for basic queries and non-zero in
//     every phase for secure and farthest ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "baseline/plaintext_knn.h"
#include "common/logging.h"
#include "core/clustering.h"
#include "core/data_owner.h"
#include "core/engine.h"
#include "data/synthetic.h"

namespace sknn {
namespace {

constexpr unsigned kKeyBits = 256;
constexpr unsigned kAttrBits = 4;
constexpr int64_t kMaxValue = 15;  // [0, 2^kAttrBits)
constexpr std::size_t kRecords = 24;
constexpr std::size_t kAttributes = 3;
constexpr uint32_t kClusters = 4;
constexpr uint32_t kProbe = 1;
constexpr uint64_t kClusterSeed = 11;
constexpr unsigned kK = 3;

const PlainTable& Table() {
  static const PlainTable table =
      GenerateUniformTable(kRecords, kAttributes, kMaxValue, 2201);
  return table;
}

const PlainRecord& Query() {
  static const PlainRecord query =
      GenerateUniformQuery(kAttributes, kMaxValue, 2202);
  return query;
}

// The k nearest (or farthest) rows of `rows`, ties to the lower position.
PlainTable Ranked(const PlainTable& rows, const PlainRecord& query,
                  unsigned k, bool farthest) {
  std::vector<std::size_t> idx(rows.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    const int64_t da = SquaredDistance(rows[a], query);
    const int64_t db = SquaredDistance(rows[b], query);
    return farthest ? da > db : da < db;
  });
  PlainTable out;
  for (unsigned j = 0; j < k; ++j) out.push_back(rows[idx[j]]);
  return out;
}

// The pruned clustered answer in plaintext: rank the plaintext centroids
// (ties to the lower cluster index, reversed for farthest), keep at least
// kProbe clusters and enough for k records, then rank the surviving
// records in ascending global order.
PlainTable PrunedOracle(bool farthest) {
  auto km = KMeansPartition(Table(), kClusters, kClusterSeed);
  SKNN_CHECK(km.ok()) << km.status();
  std::vector<uint32_t> ranking(km->centroids.size());
  std::iota(ranking.begin(), ranking.end(), 0u);
  std::stable_sort(ranking.begin(), ranking.end(), [&](uint32_t a,
                                                       uint32_t b) {
    return SquaredDistance(km->centroids[a], Query()) <
           SquaredDistance(km->centroids[b], Query());
  });
  if (farthest) std::reverse(ranking.begin(), ranking.end());
  std::vector<bool> take(ranking.size(), false);
  std::size_t chosen = 0, candidates = 0;
  for (uint32_t cluster : ranking) {
    take[cluster] = true;
    ++chosen;
    candidates += std::count(km->assignment.begin(), km->assignment.end(),
                             cluster);
    if (chosen >= kProbe && candidates >= kK) break;
  }
  PlainTable rows;
  for (std::size_t i = 0; i < Table().size(); ++i) {
    if (take[km->assignment[i]]) rows.push_back(Table()[i]);
  }
  return Ranked(rows, Query(), kK, farthest);
}

// One query shape and what it costs: the op counts (enc, dec, exp, mul,
// inv) and C1<->C2 frames.
struct PinnedCase {
  const char* name;
  QueryProtocol protocol;
  bool clustered;
  OpSnapshot ops;
  uint64_t frames;
};

void PrintTo(const PinnedCase& c, std::ostream* os) { *os << c.name; }

class QueryPathsTest : public ::testing::TestWithParam<PinnedCase> {
 protected:
  static void SetUpTestSuite() {
    auto alice = DataOwner::Create(kKeyBits);
    SKNN_CHECK(alice.ok()) << alice.status();
    auto db = alice->EncryptDatabase(Table(), kAttrBits);
    SKNN_CHECK(db.ok()) << db.status();
    auto manifest = BuildClusterManifest(Table(), kClusters, kClusterSeed,
                                         alice->public_key());
    SKNN_CHECK(manifest.ok()) << manifest.status();
    SknnEngine::Options options;
    options.randomizer_pool_capacity = 32;
    options.clusters =
        std::make_shared<const ClusterManifest>(std::move(manifest).value());
    auto engine = SknnEngine::CreateFromParts(
        alice->public_key(), PaillierSecretKey(alice->secret_key_for_c2()),
        std::move(db).value(), options);
    SKNN_CHECK(engine.ok()) << engine.status();
    engine_ = std::move(engine).value().release();
  }

  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  static SknnEngine* engine_;
};

SknnEngine* QueryPathsTest::engine_ = nullptr;

TEST_P(QueryPathsTest, RecordsOpsFramesAndBreakdown) {
  const PinnedCase& c = GetParam();
  ASSERT_EQ(engine_->shard_coordinator(), nullptr);
  QueryRequest request;
  request.record = Query();
  request.k = kK;
  request.protocol = c.protocol;
  request.want_op_counts = true;
  request.want_breakdown = true;
  if (c.clustered) {
    request.index_mode = IndexMode::kClustered;
    request.probe_clusters = kProbe;
  }
  auto response = engine_->Query(request);
  ASSERT_TRUE(response.ok()) << response.status();

  const bool farthest = c.protocol == QueryProtocol::kFarthest;
  EXPECT_EQ(response->records, c.clustered
                                   ? PrunedOracle(farthest)
                                   : Ranked(Table(), Query(), kK, farthest));

  const OpSnapshot& ops = response->ops;
  EXPECT_EQ(ops.encryptions, c.ops.encryptions) << ops.ToString();
  EXPECT_EQ(ops.decryptions, c.ops.decryptions) << ops.ToString();
  EXPECT_EQ(ops.exponentiations, c.ops.exponentiations) << ops.ToString();
  EXPECT_EQ(ops.multiplications, c.ops.multiplications) << ops.ToString();
  EXPECT_EQ(ops.inversions, c.ops.inversions) << ops.ToString();
  EXPECT_EQ(response->traffic.total_frames(), c.frames);

  const SkNNmBreakdown& bd = response->breakdown;
  const double phases[] = {bd.ssed_seconds,    bd.sbd_seconds,
                           bd.sminn_seconds,   bd.extract_seconds,
                           bd.update_seconds,  bd.finalize_seconds};
  for (double seconds : phases) {
    if (c.protocol == QueryProtocol::kBasic) {
      EXPECT_EQ(seconds, 0.0);
    } else {
      EXPECT_GT(seconds, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, QueryPathsTest,
    ::testing::Values(
        PinnedCase{"ExactBasic", QueryProtocol::kBasic, false,
                   {225, 105, 72, 345, 3}, 6},
        PinnedCase{"ExactSecure", QueryProtocol::kSecure, false,
                   {8787, 3033, 5328, 15741, 1659}, 96},
        PinnedCase{"ExactFarthest", QueryProtocol::kFarthest, false,
                   {9027, 3033, 5328, 15981, 1899}, 96},
        PinnedCase{"ClusteredBasic", QueryProtocol::kBasic, true,
                   {117, 57, 36, 177, 6}, 10},
        PinnedCase{"ClusteredSecure", QueryProtocol::kSecure, true,
                   {2775, 969, 1724, 4981, 526}, 76},
        PinnedCase{"ClusteredFarthest", QueryProtocol::kFarthest, true,
                   {3243, 1099, 1950, 5747, 687}, 88}),
    [](const ::testing::TestParamInfo<PinnedCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace sknn
