// Tests for the bit complement behind the secure k-farthest-neighbor query
// (max(d) = NOT min(NOT d)) and for that query over the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "baseline/plaintext_knn.h"
#include "core/engine.h"
#include "data/synthetic.h"
#include "proto/smin.h"
#include "tests/proto_test_util.h"
#include "tests/query_test_util.h"

namespace sknn {
namespace {

class SmaxTest : public ::testing::Test {
 protected:
  TwoPartyHarness harness_;
};

TEST_F(SmaxTest, ComplementBitsFlipsEveryBit) {
  auto bits = harness_.EncryptBits(0b1010, 4);
  EncryptedBits flipped = ComplementBits(harness_.pk(), bits);
  EXPECT_EQ(harness_.DecryptBits(flipped), 0b0101u);
  // Double complement is the identity.
  EncryptedBits twice = ComplementBits(harness_.pk(), flipped);
  EXPECT_EQ(harness_.DecryptBits(twice), 0b1010u);
}

// -- Secure k-farthest neighbors over the engine ------------------------------

std::multiset<int64_t> DistanceSet(const PlainTable& rows,
                                   const PlainRecord& q) {
  std::multiset<int64_t> out;
  for (const auto& r : rows) out.insert(SquaredDistance(r, q));
  return out;
}

PlainTable PlainFarthest(const PlainTable& table, const PlainRecord& query,
                         unsigned k) {
  std::vector<std::size_t> idx(table.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    int64_t da = SquaredDistance(table[a], query);
    int64_t db = SquaredDistance(table[b], query);
    return da != db ? da > db : a < b;
  });
  PlainTable out;
  for (unsigned j = 0; j < k; ++j) out.push_back(table[idx[j]]);
  return out;
}

TEST(FarthestQueryTest, MatchesPlaintextFarthest) {
  const std::size_t n = 10, m = 3;
  PlainTable table = GenerateUniformTable(n, m, 6, 7001);
  PlainRecord query = GenerateUniformQuery(m, 6, 7002);
  SknnEngine::Options opts;
  opts.key_bits = 256;
  opts.attr_bits = 3;
  auto engine = SknnEngine::Create(table, opts);
  ASSERT_TRUE(engine.ok()) << engine.status();
  for (unsigned k : {1u, 3u}) {
    auto result = RunQuery(**engine, query, k, QueryProtocol::kFarthest);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(DistanceSet(result->records, query),
              DistanceSet(PlainFarthest(table, query, k), query))
        << "k=" << k;
  }
}

TEST(FarthestQueryTest, FarthestFirstOrdering) {
  PlainTable table = {{0, 0}, {7, 7}, {3, 3}, {5, 1}};
  PlainRecord query = {0, 0};
  SknnEngine::Options opts;
  opts.key_bits = 256;
  opts.attr_bits = 3;
  auto engine = SknnEngine::Create(table, opts);
  ASSERT_TRUE(engine.ok());
  auto result = RunQuery(**engine, query, 3, QueryProtocol::kFarthest);
  ASSERT_TRUE(result.ok());
  for (std::size_t j = 1; j < result->records.size(); ++j) {
    EXPECT_GE(SquaredDistance(result->records[j - 1], query),
              SquaredDistance(result->records[j], query));
  }
  EXPECT_EQ(result->records[0], (PlainRecord{7, 7}));
}

TEST(FarthestQueryTest, NearestAndFarthestPartitionExtremes) {
  // With k = n the nearest and farthest queries return the same multiset.
  PlainTable table = GenerateUniformTable(6, 2, 5, 7003);
  PlainRecord query = GenerateUniformQuery(2, 5, 7004);
  SknnEngine::Options opts;
  opts.key_bits = 256;
  opts.attr_bits = 3;
  auto engine = SknnEngine::Create(table, opts);
  ASSERT_TRUE(engine.ok());
  auto nearest = RunQuery(**engine, query, 6, QueryProtocol::kSecure);
  auto farthest = RunQuery(**engine, query, 6, QueryProtocol::kFarthest);
  ASSERT_TRUE(nearest.ok());
  ASSERT_TRUE(farthest.ok());
  EXPECT_EQ(DistanceSet(nearest->records, query),
            DistanceSet(farthest->records, query));
}

}  // namespace
}  // namespace sknn
