// Tests of the request/response query surface: Query and QueryBatch must
// be interchangeable — N concurrent callers produce results identical to a
// serial loop, under both a serial engine (c1_threads = 1) and a parallel
// one (c1_threads = 4), for all three protocols — every in-flight query's
// instrumentation (ops, traffic) must be isolated from its neighbors', and
// at most c1_threads queries may execute in one engine at a time.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <thread>
#include <vector>

#include "baseline/plaintext_knn.h"
#include "common/mutex.h"
#include "core/data_owner.h"
#include "core/engine.h"
#include "data/synthetic.h"
#include "net/rpc.h"
#include "net/socket.h"
#include "proto/c2_service.h"

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

// Calls engine.Query for each request on a thread of its own, all at once;
// the responses are in request order.
std::vector<Result<QueryResponse>> QueryFromOneThreadEach(
    SknnEngine& engine, const std::vector<QueryRequest>& requests) {
  std::vector<Result<QueryResponse>> responses(
      requests.size(), Result<QueryResponse>(Status::Internal("unset")));
  std::vector<std::thread> callers;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    callers.emplace_back([&, i] { responses[i] = engine.Query(requests[i]); });
  }
  for (auto& caller : callers) caller.join();
  return responses;
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

TEST(QueryBatchTest, ConcurrentQueryCallersMatchSerialLoop) {
  PlainTable table = DistinctDistanceTable(8);
  auto engine = MakeEngine(table, /*c1_threads=*/4, /*c2_threads=*/2);
  std::vector<QueryRequest> requests = MixedWorkload();

  std::vector<PlainTable> serial;
  for (const auto& request : requests) {
    auto response = engine->Query(request);
    ASSERT_TRUE(response.ok()) << response.status();
    serial.push_back(response->records);
  }

  // One caller thread per request: every query is genuinely in flight at
  // once, up to the engine's four slots.
  std::vector<Result<QueryResponse>> responses =
      QueryFromOneThreadEach(*engine, requests);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << responses[i].status();
    EXPECT_EQ(responses[i]->records, serial[i]) << "caller " << i;
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

TEST(QueryBatchTest, SerialEngineAnswersABatchInRequestOrder) {
  // c1_threads = 1: one batch thread and one query slot, so the batch
  // degenerates to the serial loop, answers in request order.
  PlainTable table = DistinctDistanceTable(6);
  auto engine = MakeEngine(table, /*c1_threads=*/1, /*c2_threads=*/1);
  std::vector<QueryRequest> requests;
  for (unsigned k = 1; k <= 4; ++k) {
    QueryRequest request;
    request.record = {0, 0};
    request.k = k;
    request.protocol = QueryProtocol::kBasic;
    requests.push_back(request);
  }
  std::vector<Result<QueryResponse>> results = engine->QueryBatch(requests);
  ASSERT_EQ(results.size(), requests.size());
  for (unsigned k = 1; k <= 4; ++k) {
    const Result<QueryResponse>& response = results[k - 1];
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_EQ(response->records.size(), k);
    // Nearest record of the distinct-distance table is always {0, 0}.
    EXPECT_EQ(response->records[0], (PlainRecord{0, 0}));
  }
}

// C2 behind an RpcServer with more workers than the engine has query
// slots, whose handler counts the distinct queries inside it at once: the
// peak is how many queries the engine let execute together.
class QueryCountingC2 {
 public:
  explicit QueryCountingC2(PaillierSecretKey sk) : c2_(std::move(sk)) {
    Channel::EndpointPair link = Channel::CreatePair();
    c1_end_ = std::move(link.a);
    server_ = std::make_unique<RpcServer>(
        std::move(link.b), [this](const Message& req) { return Handle(req); },
        /*worker_threads=*/6);
  }

  std::unique_ptr<Endpoint> TakeC1End() { return std::move(c1_end_); }

  std::size_t TakePeak() {
    MutexLock lock(&mutex_);
    std::size_t peak = peak_;
    peak_ = 0;
    return peak;
  }

 private:
  Result<Message> Handle(const Message& req) {
    if (req.query_id != 0) {
      MutexLock lock(&mutex_);
      ++inside_[req.query_id];
      peak_ = std::max(peak_, inside_.size());
    }
    // Widen the window in which a third query's frame could overlap.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    Result<Message> response = c2_.Handle(req);
    if (req.query_id != 0) {
      MutexLock lock(&mutex_);
      if (--inside_[req.query_id] == 0) inside_.erase(req.query_id);
    }
    return response;
  }

  C2Service c2_;
  Mutex mutex_;
  std::map<uint64_t, std::size_t> inside_ GUARDED_BY(mutex_);
  std::size_t peak_ GUARDED_BY(mutex_) = 0;
  std::unique_ptr<Endpoint> c1_end_;
  std::unique_ptr<RpcServer> server_;  // goes before c2_ and the counters
};

TEST(QueryBatchTest, AtMostC1ThreadsQueriesExecuteAtOnce) {
  PlainTable table = DistinctDistanceTable(8);
  auto alice = DataOwner::Create(256);
  ASSERT_TRUE(alice.ok()) << alice.status();
  auto db = alice->EncryptDatabase(table, /*attr_bits=*/3);
  ASSERT_TRUE(db.ok()) << db.status();
  QueryCountingC2 c2(PaillierSecretKey(alice->secret_key_for_c2()));
  SknnEngine::Options opts;
  opts.c1_threads = 2;
  auto created = SknnEngine::CreateWithRemoteC2(
      alice->public_key(), std::move(db).value(), c2.TakeC1End(), opts);
  ASSERT_TRUE(created.ok()) << created.status();
  SknnEngine& engine = **created;

  std::vector<QueryRequest> requests;
  for (unsigned k = 1; k <= 6; ++k) {
    QueryRequest request;
    request.record = {0, 0};
    request.k = k;
    request.protocol = QueryProtocol::kBasic;
    requests.push_back(request);
  }

  // Six callers of Query at once.
  std::vector<Result<QueryResponse>> responses =
      QueryFromOneThreadEach(engine, requests);
  const std::size_t callers_peak = c2.TakePeak();
  EXPECT_GE(callers_peak, 1u);
  EXPECT_LE(callers_peak, 2u) << "concurrent Query callers";
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << responses[i].status();
    EXPECT_EQ(responses[i]->records, Oracle(table, requests[i])) << i;
  }

  // One six-request batch.
  std::vector<Result<QueryResponse>> batch = engine.QueryBatch(requests);
  const std::size_t batch_peak = c2.TakePeak();
  EXPECT_GE(batch_peak, 1u);
  EXPECT_LE(batch_peak, 2u) << "QueryBatch";
  ASSERT_EQ(batch.size(), requests.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << batch[i].status();
    EXPECT_EQ(batch[i]->records, Oracle(table, requests[i])) << i;
  }
}

}  // namespace
}  // namespace sknn
