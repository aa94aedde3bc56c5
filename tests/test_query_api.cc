// Tests of the request/response query surface: Query / Submit / QueryBatch
// must be interchangeable — N concurrent submissions produce results
// identical to a serial loop, under both a serial engine (c1_threads = 1)
// and a parallel one (c1_threads = 4), for all three protocols — and every
// in-flight query's instrumentation (ops, traffic) must be isolated from
// its neighbors'.
#include <gtest/gtest.h>

#include <cstdlib>
#include <future>
#include <vector>

#include "baseline/plaintext_knn.h"
#include "core/engine.h"
#include "data/synthetic.h"

namespace sknn {
namespace {

// Records {i, 0} against query {0, 0} have pairwise-distinct squared
// distances i^2, so every protocol's answer is fully deterministic (no
// random tie-breaking) and results can be compared bitwise.
PlainTable DistinctDistanceTable(std::size_t n) {
  PlainTable table;
  for (int64_t i = 0; i < static_cast<int64_t>(n); ++i) {
    table.push_back({i, 0});
  }
  return table;
}

std::unique_ptr<SknnEngine> MakeEngine(const PlainTable& table,
                                       std::size_t c1_threads,
                                       std::size_t c2_threads) {
  SknnEngine::Options opts;
  opts.key_bits = 256;
  opts.attr_bits = 3;
  opts.c1_threads = c1_threads;
  opts.c2_threads = c2_threads;
  auto engine = SknnEngine::Create(table, opts);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).value();
}

// The plaintext answer to `request`: the k nearest records, or for
// kFarthest the k farthest, farthest first. Distances in the tables used
// here are pairwise distinct, so the farthest k are the tail of the full
// nearest-first order, reversed.
PlainTable Oracle(const PlainTable& table, const QueryRequest& request) {
  if (request.protocol != QueryProtocol::kFarthest) {
    return PlainKnn(table, request.record, request.k);
  }
  std::vector<std::size_t> order = PlainKnnIndices(
      table, request.record, static_cast<unsigned>(table.size()));
  PlainTable out;
  for (unsigned j = 0; j < request.k; ++j) {
    out.push_back(table[order[order.size() - 1 - j]]);
  }
  return out;
}

// A protocol-mixed workload of independent requests.
std::vector<QueryRequest> MixedWorkload() {
  std::vector<QueryRequest> requests;
  for (auto [k, protocol] : std::vector<std::pair<unsigned, QueryProtocol>>{
           {1, QueryProtocol::kBasic},
           {3, QueryProtocol::kBasic},
           {2, QueryProtocol::kSecure},
           {1, QueryProtocol::kSecure},
           {2, QueryProtocol::kFarthest},
           {4, QueryProtocol::kBasic},
       }) {
    QueryRequest request;
    request.record = {0, 0};
    request.k = k;
    request.protocol = protocol;
    requests.push_back(request);
  }
  return requests;
}

TEST(QueryBatchTest, BatchMatchesSerialLoopAcrossThreadCounts) {
  PlainTable table = DistinctDistanceTable(8);
  for (std::size_t c1_threads : {std::size_t{1}, std::size_t{4}}) {
    auto engine = MakeEngine(table, c1_threads, /*c2_threads=*/2);
    std::vector<QueryRequest> requests = MixedWorkload();

    // Serial reference: one Query() at a time.
    std::vector<PlainTable> serial;
    for (const auto& request : requests) {
      auto response = engine->Query(request);
      ASSERT_TRUE(response.ok()) << response.status();
      serial.push_back(response->records);
    }

    // The same workload as one pipelined batch.
    std::vector<Result<QueryResponse>> batch = engine->QueryBatch(requests);
    ASSERT_EQ(batch.size(), requests.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(batch[i].ok())
          << "c1_threads=" << c1_threads << " i=" << i << ": "
          << batch[i].status();
      EXPECT_EQ(batch[i]->records, serial[i])
          << "c1_threads=" << c1_threads << " request " << i
          << " diverged from the serial loop";
    }
  }
}

TEST(QueryBatchTest, ConcurrentSubmitsMatchSerialLoop) {
  PlainTable table = DistinctDistanceTable(8);
  auto engine = MakeEngine(table, /*c1_threads=*/4, /*c2_threads=*/2);
  std::vector<QueryRequest> requests = MixedWorkload();

  std::vector<PlainTable> serial;
  for (const auto& request : requests) {
    auto response = engine->Query(request);
    ASSERT_TRUE(response.ok()) << response.status();
    serial.push_back(response->records);
  }

  // Fire all Submits before collecting any future: every query is genuinely
  // in flight at once.
  std::vector<std::future<Result<QueryResponse>>> futures;
  for (const auto& request : requests) {
    futures.push_back(engine->Submit(request));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    Result<QueryResponse> response = futures[i].get();
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->records, serial[i]) << "submission " << i;
  }
}

TEST(QueryBatchTest, PerQueryInstrumentationIsIsolatedUnderConcurrency) {
  // Operation counts are randomness-independent, so k identical requests
  // must report *identical* ops and traffic — and identical to the same
  // request run alone. If concurrent queries leaked into each other's
  // meters (the old engine-global snapshot-delta accounting), these numbers
  // would inflate with the batch size.
  PlainTable table = DistinctDistanceTable(6);
  auto engine = MakeEngine(table, /*c1_threads=*/4, /*c2_threads=*/2);
  QueryRequest request;
  request.record = {0, 0};
  request.k = 2;
  request.protocol = QueryProtocol::kSecure;

  auto alone = engine->Query(request);
  ASSERT_TRUE(alone.ok()) << alone.status();
  ASSERT_GT(alone->ops.encryptions, 0u);
  ASSERT_GT(alone->ops.decryptions, 0u);
  ASSERT_GT(alone->traffic.total_bytes(), 0u);

  std::vector<Result<QueryResponse>> batch =
      engine->QueryBatch({request, request, request, request});
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << batch[i].status();
    EXPECT_EQ(batch[i]->ops.encryptions, alone->ops.encryptions) << i;
    EXPECT_EQ(batch[i]->ops.decryptions, alone->ops.decryptions) << i;
    EXPECT_EQ(batch[i]->ops.exponentiations, alone->ops.exponentiations) << i;
    EXPECT_EQ(batch[i]->ops.multiplications, alone->ops.multiplications) << i;
    EXPECT_EQ(batch[i]->ops.inversions, alone->ops.inversions) << i;
    // Frame counts are deterministic; byte counts wobble by a few bytes
    // because a random ciphertext occasionally serializes one byte shorter
    // (leading zero byte in the big-endian magnitude).
    EXPECT_EQ(batch[i]->traffic.total_frames(), alone->traffic.total_frames())
        << i;
    int64_t byte_delta =
        static_cast<int64_t>(batch[i]->traffic.total_bytes()) -
        static_cast<int64_t>(alone->traffic.total_bytes());
    EXPECT_LT(std::abs(byte_delta), 64) << i;
  }
}

TEST(QueryBatchTest, OneMessagePerStageMatchesOracleAcrossThreadCounts) {
  // Every protocol stage is one C1 -> C2 message whatever the thread
  // counts, so the answer is the plaintext oracle's and the Paillier work
  // and frame count are the same at c1_threads 1 and 4. The
  // distinct-distance table makes every answer deterministic.
  PlainTable table = DistinctDistanceTable(8);
  std::vector<QueryRequest> requests = MixedWorkload();
  std::vector<QueryResponse> serial;  // c1_threads = 1, the comparison base
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    auto engine = MakeEngine(table, threads, /*c2_threads=*/threads);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      auto response = engine->Query(requests[i]);
      ASSERT_TRUE(response.ok()) << response.status();
      EXPECT_EQ(response->records, Oracle(table, requests[i]))
          << "threads=" << threads << " request " << i;
      if (threads == 1) {
        serial.push_back(*std::move(response));
        continue;
      }
      const QueryResponse& base = serial[i];
      EXPECT_EQ(response->ops.encryptions, base.ops.encryptions) << i;
      EXPECT_EQ(response->ops.decryptions, base.ops.decryptions) << i;
      EXPECT_EQ(response->ops.exponentiations, base.ops.exponentiations)
          << i;
      EXPECT_EQ(response->ops.multiplications, base.ops.multiplications)
          << i;
      EXPECT_EQ(response->ops.inversions, base.ops.inversions) << i;
      EXPECT_EQ(response->traffic.total_frames(), base.traffic.total_frames())
          << i;
    }
  }
}

TEST(QueryBatchTest, ShortRandomizersMatchFullWidthBitwise) {
  // The short-exponent randomizer default (docs/CRYPTO.md) changes only how
  // r^N is minted for the pool, never what the protocols compute: the
  // distinct-distance table makes every answer deterministic, so records —
  // and the paper's Section 4.4 op accounting — must be identical with the
  // flag on and off.
  PlainTable table = DistinctDistanceTable(8);
  std::vector<QueryRequest> requests = MixedWorkload();
  SknnEngine::Options full_opts;
  full_opts.key_bits = 256;
  full_opts.attr_bits = 3;
  full_opts.c1_threads = 2;
  full_opts.c2_threads = 2;
  full_opts.short_randomizers = false;
  auto full_engine = SknnEngine::Create(table, full_opts);
  ASSERT_TRUE(full_engine.ok()) << full_engine.status();

  SknnEngine::Options short_opts = full_opts;
  short_opts.short_randomizers = true;
  auto short_engine = SknnEngine::Create(table, short_opts);
  ASSERT_TRUE(short_engine.ok()) << short_engine.status();

  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto full = (*full_engine)->Query(requests[i]);
    auto fast = (*short_engine)->Query(requests[i]);
    ASSERT_TRUE(full.ok()) << full.status();
    ASSERT_TRUE(fast.ok()) << fast.status();
    EXPECT_EQ(fast->records, full->records) << "request " << i;
    EXPECT_EQ(fast->ops.encryptions, full->ops.encryptions) << i;
    EXPECT_EQ(fast->ops.decryptions, full->ops.decryptions) << i;
    EXPECT_EQ(fast->ops.exponentiations, full->ops.exponentiations) << i;
    EXPECT_EQ(fast->ops.multiplications, full->ops.multiplications) << i;
    EXPECT_EQ(fast->ops.inversions, full->ops.inversions) << i;
  }

  // Satellite observability: the pools on both engines saw the traffic.
  for (auto* engine : {full_engine->get(), short_engine->get()}) {
    SknnEngine::RandomizerPoolStats stats = engine->randomizer_pool_stats();
    EXPECT_GT(stats.c1_capacity, 0u);
    EXPECT_GT(stats.c2_capacity, 0u);
    EXPECT_GT(stats.c1_hits + stats.c1_misses, 0u);
    EXPECT_GT(stats.c2_hits + stats.c2_misses, 0u);
  }
}

TEST(QueryBatchTest, MixedValidityBatchFailsOnlyTheInvalidSlots) {
  PlainTable table = DistinctDistanceTable(5);
  auto engine = MakeEngine(table, /*c1_threads=*/2, /*c2_threads=*/1);
  QueryRequest good;
  good.record = {1, 0};
  good.k = 1;
  good.protocol = QueryProtocol::kBasic;
  QueryRequest bad_k = good;
  bad_k.k = 9;  // > n
  QueryRequest bad_dim = good;
  bad_dim.record = {1, 0, 0};

  auto results = engine->QueryBatch({good, bad_k, good, bad_dim});
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(results[3].status().code(), StatusCode::kInvalidArgument);
  // The valid slots are unaffected by their failed neighbors.
  EXPECT_EQ(results[0]->records, results[2]->records);
}

TEST(QueryBatchTest, SerialEngineStillAnswersSubmissionsInOrder) {
  // c1_threads = 1: one scheduler dispatcher, so submissions execute
  // one-by-one in submission order — the batch degenerates to the serial
  // loop but through the same async plumbing.
  PlainTable table = DistinctDistanceTable(6);
  auto engine = MakeEngine(table, /*c1_threads=*/1, /*c2_threads=*/1);
  std::vector<std::future<Result<QueryResponse>>> futures;
  for (unsigned k = 1; k <= 4; ++k) {
    QueryRequest request;
    request.record = {0, 0};
    request.k = k;
    request.protocol = QueryProtocol::kBasic;
    futures.push_back(engine->Submit(request));
  }
  for (unsigned k = 1; k <= 4; ++k) {
    Result<QueryResponse> response = futures[k - 1].get();
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_EQ(response->records.size(), k);
    // Nearest record of the distinct-distance table is always {0, 0}.
    EXPECT_EQ(response->records[0], (PlainRecord{0, 0}));
  }
}

}  // namespace
}  // namespace sknn
