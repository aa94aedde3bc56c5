// The serving QoS subsystem (serve/qos/): unit tests
// of the three components — ResultCache, FairAdmission, ApiKeyAuth (plus
// the SHA-256 they build on and the client's retry matrix) — and the
// end-to-end properties over a real TCP front end:
//
//  (1) the DIFFERENTIAL cache proof, per query mode: a cache hit returns
//      records bitwise-identical to the miss that populated it, and that
//      run's instrumentation, flagged cache_hit;
//  (2) no_cache bypasses the cache without disturbing it;
//  (3) API-key auth end to end: unauthenticated and wrong-key sessions get
//      typed kPermissionDenied, an exhausted quota gets the same
//      kResourceExhausted as overload, per-key counters reach the control
//      plane;
//  (4) weighted fairness: a low-weight table keeps progressing while a
//      heavy neighbor floods the service — the max(1, ...) share floor;
//  (5) the client retries ONLY retryable codes: an invalid request burns
//      exactly one server-side attempt however generous the retry policy.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/sha256.h"
#include "core/clustering.h"
#include "core/data_owner.h"
#include "core/engine.h"
#include "data/synthetic.h"
#include "net/query_wire.h"
#include "serve/qos/api_key_auth.h"
#include "serve/qos/fair_admission.h"
#include "serve/qos/result_cache.h"
#include "serve/query_service.h"
#include "serve/remote_query_client.h"
#include "serve/table_registry.h"

namespace sknn {
namespace {

constexpr unsigned kKeyBits = 256;
constexpr unsigned kAttrBits = 4;
constexpr int64_t kMaxValue = 15;  // [0, 2^kAttrBits)

// One key pair for the whole suite: keygen is the expensive part of every
// engine build, and tables sharing a key is a supported deployment shape.
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

std::unique_ptr<SknnEngine> MakeEngine(const PlainTable& table,
                                       const SknnEngine::Options& options) {
  auto db = SharedAlice().EncryptDatabase(table, kAttrBits);
  SKNN_CHECK(db.ok()) << db.status();
  auto engine = SknnEngine::CreateFromParts(
      SharedAlice().public_key(),
      PaillierSecretKey(SharedAlice().secret_key_for_c2()),
      std::move(db).value(), options);
  SKNN_CHECK(engine.ok()) << engine.status();
  return std::move(engine).value();
}

QueryRequest MakeRequest(std::string table, PlainRecord record, unsigned k,
                         QueryProtocol protocol = QueryProtocol::kBasic) {
  QueryRequest request;
  request.table = std::move(table);
  request.record = std::move(record);
  request.k = k;
  request.protocol = protocol;
  return request;
}

// ---------------------------------------------------------------------------
// SHA-256 (the fingerprint/key-digest primitive)

TEST(Sha256Test, Fips180KnownVectors) {
  EXPECT_EQ(
      Sha256::HexDigest(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      Sha256::HexDigest("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      Sha256::HexDigest("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                        "nopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  const std::string text = "the quick brown fox jumps over the lazy dog, "
                           "seventy-two bytes of it to cross a block";
  Sha256 streaming;
  for (char c : text) streaming.Update(&c, 1);
  EXPECT_EQ(streaming.Finish(),
            Sha256::Digest(text.data(), text.size()));
}

// ---------------------------------------------------------------------------
// ResultCache

QueryResponse MakeCached(int64_t tag, std::size_t attrs = 4) {
  QueryResponse cached;
  cached.records.push_back(PlainRecord(attrs, tag));
  return cached;
}

ResultCache::Key KeyOf(int64_t tag) {
  QueryRequest request;
  request.k = 1;
  request.record = {tag, 0};
  return ResultCache::Fingerprint("t", request);
}

TEST(ResultCacheTest, DisabledByDefault) {
  ResultCache cache;  // default budget 0 = the pre-revision-6 behavior
  EXPECT_FALSE(cache.enabled());
  cache.Insert(KeyOf(1), MakeCached(1), cache.generation());
  EXPECT_FALSE(cache.Lookup(KeyOf(1)).has_value());
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(ResultCacheTest, FingerprintCoversEveryAnswerShapingField) {
  QueryRequest base;
  base.k = 2;
  base.record = {3, 1};
  base.protocol = QueryProtocol::kSecure;
  const ResultCache::Key key = ResultCache::Fingerprint("alpha", base);
  // Same inputs, same key — and EVERY answer-shaping change moves it.
  EXPECT_EQ(ResultCache::Fingerprint("alpha", base), key);
  EXPECT_NE(ResultCache::Fingerprint("beta", base), key);
  QueryRequest changed = base;
  changed.k = 3;
  EXPECT_NE(ResultCache::Fingerprint("alpha", changed), key);
  changed = base;
  changed.record = {3, 2};
  EXPECT_NE(ResultCache::Fingerprint("alpha", changed), key);
  changed = base;
  changed.protocol = QueryProtocol::kFarthest;
  EXPECT_NE(ResultCache::Fingerprint("alpha", changed), key);
  changed = base;
  changed.index_mode = IndexMode::kClustered;
  changed.probe_clusters = 2;
  const ResultCache::Key clustered =
      ResultCache::Fingerprint("alpha", changed);
  EXPECT_NE(clustered, key);
  changed.probe_clusters = 3;
  EXPECT_NE(ResultCache::Fingerprint("alpha", changed), clustered);
  // no_cache and the stats-wanting flags deliberately do NOT move the key:
  // they shape the round trip, not the answer.
  changed = base;
  changed.no_cache = true;
  changed.want_op_counts = true;
  EXPECT_EQ(ResultCache::Fingerprint("alpha", changed), key);
}

TEST(ResultCacheTest, LruEvictsTheColdestEntry) {
  ResultCache cache(/*max_bytes=*/1 << 20, /*max_entries=*/2);
  const uint64_t generation = cache.generation();
  cache.Insert(KeyOf(1), MakeCached(1), generation);
  cache.Insert(KeyOf(2), MakeCached(2), generation);
  // Touch 1, insert 3: the LRU tail is 2.
  ASSERT_TRUE(cache.Lookup(KeyOf(1)).has_value());
  cache.Insert(KeyOf(3), MakeCached(3), generation);
  EXPECT_TRUE(cache.Lookup(KeyOf(1)).has_value());
  EXPECT_FALSE(cache.Lookup(KeyOf(2)).has_value());
  EXPECT_TRUE(cache.Lookup(KeyOf(3)).has_value());
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ResultCacheTest, ByteBudgetRefusesOversizeAndEvictsToFit) {
  // A budget smaller than any entry: inserts are dropped outright.
  ResultCache tiny(/*max_bytes=*/1);
  tiny.Insert(KeyOf(1), MakeCached(1), tiny.generation());
  EXPECT_EQ(tiny.stats().entries, 0u);
  // A budget fitting exactly one entry (measured, not guessed): the second
  // insert evicts the first.
  ResultCache one(/*max_bytes=*/1 << 20);
  const uint64_t generation = one.generation();
  one.Insert(KeyOf(1), MakeCached(1, /*attrs=*/8), generation);
  ASSERT_EQ(one.stats().entries, 1u);
  const std::size_t cost = one.stats().bytes;
  one.set_budget(cost, ResultCache::kDefaultMaxEntries);
  one.Insert(KeyOf(2), MakeCached(2, /*attrs=*/8), generation);
  EXPECT_FALSE(one.Lookup(KeyOf(1)).has_value());
  EXPECT_TRUE(one.Lookup(KeyOf(2)).has_value());
  EXPECT_LE(one.stats().bytes, cost);
}

TEST(ResultCacheTest, InvalidateClearsAndRefusesStaleGenerations) {
  ResultCache cache(1 << 20);
  const uint64_t pinned = cache.generation();
  cache.Insert(KeyOf(1), MakeCached(1), pinned);
  ASSERT_TRUE(cache.Lookup(KeyOf(1)).has_value());
  cache.Invalidate();
  // Cleared, and the pre-invalidation generation can no longer insert —
  // the hot-reload race: a query that pinned `pinned` before the reload
  // computed its answer against the replaced engine.
  EXPECT_FALSE(cache.Lookup(KeyOf(1)).has_value());
  cache.Insert(KeyOf(1), MakeCached(1), pinned);
  EXPECT_FALSE(cache.Lookup(KeyOf(1)).has_value());
  // The NEW generation inserts fine.
  cache.Insert(KeyOf(1), MakeCached(1), cache.generation());
  EXPECT_TRUE(cache.Lookup(KeyOf(1)).has_value());
}

// ---------------------------------------------------------------------------
// FairAdmission

TEST(FairAdmissionTest, WeightedSharesWithStarvationFloor) {
  FairAdmission admission(
      /*total=*/8, {{"table 'heavy'", /*weight=*/3},
                    {"table 'light'", /*weight=*/1}});
  EXPECT_EQ(admission.share_limit(0), 6u);  // 8 * 3/4
  EXPECT_EQ(admission.share_limit(1), 2u);  // 8 * 1/4
  // However lopsided the weights, the floor keeps every principal at >= 1.
  FairAdmission lopsided(/*total=*/4, {{"a", 1}, {"b", 1000}});
  EXPECT_EQ(lopsided.share_limit(0), 1u);
  EXPECT_GE(lopsided.share_limit(1), 1u);

  // heavy may take its 6 slots, not a 7th — even with the budget free.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(admission.TryAdmit(0).ok()) << i;
  }
  Status over_share = admission.TryAdmit(0);
  ASSERT_FALSE(over_share.ok());
  EXPECT_EQ(over_share.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(over_share.message().find("fair share"), std::string::npos);
  // light's reserved slots are untouched by heavy's saturation.
  ASSERT_TRUE(admission.TryAdmit(1).ok());
  ASSERT_TRUE(admission.TryAdmit(1).ok());
  Status light_full = admission.TryAdmit(1);
  ASSERT_FALSE(light_full.ok());
  EXPECT_EQ(light_full.code(), StatusCode::kResourceExhausted);
  // Releases reopen exactly what they held.
  admission.Release(0);
  EXPECT_TRUE(admission.TryAdmit(0).ok());
  EXPECT_EQ(admission.in_flight(0), 6u);
  EXPECT_EQ(admission.in_flight(1), 2u);
}

TEST(FairAdmissionTest, TokenBucketBoundsSustainedRate) {
  // A bucket of 2 with a (practically) never-refilling rate: exactly two
  // admissions pass, the third is a typed rate rejection — deterministic,
  // no sleeps.
  FairAdmission admission(
      /*total=*/8, {{"table 'limited'", /*weight=*/1, /*rate=*/1e-9,
                     /*burst=*/2}});
  ASSERT_TRUE(admission.TryAdmit(0).ok());
  ASSERT_TRUE(admission.TryAdmit(0).ok());
  Status limited = admission.TryAdmit(0);
  ASSERT_FALSE(limited.ok());
  EXPECT_EQ(limited.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(limited.message().find("rate"), std::string::npos);
  // Releasing concurrency does NOT refill the bucket: rate bounds
  // throughput, not in-flight.
  admission.Release(0);
  admission.Release(0);
  EXPECT_FALSE(admission.TryAdmit(0).ok());
}

TEST(FairAdmissionTest, ShareRejectionDoesNotBurnATokenOrASlot) {
  FairAdmission admission(
      /*total=*/4, {{"a", /*weight=*/1, /*rate=*/1e-9, /*burst=*/2},
                    {"b", /*weight=*/3}});
  // a's share of 4 slots at weight 1/4 is the floor: 1.
  ASSERT_EQ(admission.share_limit(0), 1u);
  ASSERT_TRUE(admission.TryAdmit(0).ok());
  // The share rejection below must not charge the second token...
  ASSERT_FALSE(admission.TryAdmit(0).ok());
  admission.Release(0);
  // ...which this admission still gets to spend.
  EXPECT_TRUE(admission.TryAdmit(0).ok());
}

// ---------------------------------------------------------------------------
// ApiKeyAuth

TEST(ApiKeyAuthTest, AuthenticateQuotaRefundAndSnapshot) {
  auto auth = ApiKeyAuth::FromEntries({
      {"tenant-a", "secret-a", /*quota=*/2, /*weight=*/3},
      {"tenant-b", "secret-b", /*quota=*/0, /*weight=*/1},
  });
  ASSERT_TRUE(auth.ok()) << auth.status();
  auto a = (*auth)->Authenticate("secret-a");
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ((*auth)->id(*a), "tenant-a");
  EXPECT_EQ((*auth)->weight(*a), 3u);
  auto bad = (*auth)->Authenticate("wrong");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kPermissionDenied);

  // Quota 2: two charges pass, the third is typed kResourceExhausted...
  ASSERT_TRUE((*auth)->ChargeQuery(*a).ok());
  ASSERT_TRUE((*auth)->ChargeQuery(*a).ok());
  Status spent = (*auth)->ChargeQuery(*a);
  ASSERT_FALSE(spent.ok());
  EXPECT_EQ(spent.code(), StatusCode::kResourceExhausted);
  // ...and a refund (a charge whose query was then rejected downstream)
  // reopens exactly one.
  (*auth)->RefundQuery(*a);
  EXPECT_TRUE((*auth)->ChargeQuery(*a).ok());
  // Quota 0 = unlimited.
  auto b = (*auth)->Authenticate("secret-b");
  ASSERT_TRUE(b.ok());
  for (int i = 0; i < 100; ++i) ASSERT_TRUE((*auth)->ChargeQuery(*b).ok());

  (*auth)->NoteCompleted(*a);
  (*auth)->NoteDenied(*a);
  const std::vector<ApiKeyAuth::KeyStats> stats = (*auth)->Snapshot();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].id, "tenant-a");
  EXPECT_EQ(stats[0].completed, 1u);
  EXPECT_EQ(stats[0].denied, 1u);
  EXPECT_EQ(stats[0].quota_rejected, 1u);
  EXPECT_EQ(stats[0].quota, 2u);
  EXPECT_EQ(stats[0].remaining, 0u);
  EXPECT_EQ(stats[1].quota, 0u);
}

TEST(ApiKeyAuthTest, KeysFileParsingAndItsFailureModes) {
  const std::string path = "qos_keys_test.tmp";
  auto write = [&path](const std::string& text) {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  };
  // The documented format, comments and blank lines included.
  write("# serving keys\n\n"
        "tenant-a:" + Sha256::HexDigest("secret-a") + ":100:3\n"
        "tenant-b:" + Sha256::HexDigest("secret-b") + ":0:1\n");
  auto auth = ApiKeyAuth::LoadFromFile(path);
  ASSERT_TRUE(auth.ok()) << auth.status();
  EXPECT_EQ((*auth)->size(), 2u);
  EXPECT_TRUE((*auth)->Authenticate("secret-a").ok());
  EXPECT_FALSE((*auth)->Authenticate("secret-c").ok());

  // Malformed digest (wrong length / non-hex): refused, named line.
  write("tenant-a:deadbeef:100:3\n");
  EXPECT_FALSE(ApiKeyAuth::LoadFromFile(path).ok());
  // Duplicate id: refused.
  const std::string digest = Sha256::HexDigest("k");
  write("dup:" + digest + ":0:1\ndup:" + digest + ":0:1\n");
  EXPECT_FALSE(ApiKeyAuth::LoadFromFile(path).ok());
  // An empty key set authenticates nobody — misconfiguration, not open door.
  write("# only comments\n");
  EXPECT_FALSE(ApiKeyAuth::LoadFromFile(path).ok());
  // Missing file.
  EXPECT_FALSE(ApiKeyAuth::LoadFromFile("no-such-keys-file.tmp").ok());
  std::remove(path.c_str());
}

TEST(ApiKeyAuthTest, MutatedKeysFilesLoadOrFailInvalidArgument) {
  // Whatever bytes the keys file holds, the loader returns a registry or
  // InvalidArgument, and a registry it returns keeps the file format's
  // bounds: at least one key, ids of at most 64 bytes, weights in
  // [1, 2^32).
  const std::string path = ::testing::TempDir() + "/qos_keys_mutant.tmp";
  const std::string valid =
      "# three tenants\n"
      "alpha:" + Sha256::HexDigest("a") + ":100:3\n"
      "beta:" + Sha256::HexDigest("b") + ":0:1\n\n"
      "gamma:" + Sha256::HexDigest("c") + ":18446744073709551615:4294967295\n";
  auto check = [&path](const std::string& text) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << text;
    }
    auto auth = ApiKeyAuth::LoadFromFile(path);
    if (!auth.ok()) {
      EXPECT_EQ(auth.status().code(), StatusCode::kInvalidArgument)
          << auth.status();
      return false;
    }
    EXPECT_GE((*auth)->size(), 1u);
    for (const ApiKeyAuth::KeyStats& key : (*auth)->Snapshot()) {
      EXPECT_LE(key.id.size(), 64u);
      EXPECT_GE(key.weight, 1u);
    }
    return true;
  };
  EXPECT_TRUE(check(valid));

  // The numeric edges: a 21-digit quota, weight 0 and weight 2^32.
  const std::string digest = Sha256::HexDigest("k");
  EXPECT_FALSE(check("t:" + digest + ":100000000000000000000:1\n"));
  EXPECT_FALSE(check("t:" + digest + ":0:0\n"));
  EXPECT_FALSE(check("t:" + digest + ":0:4294967296\n"));
  EXPECT_FALSE(check(std::string(65, 'i') + ":" + digest + ":0:1\n"));

  // Seeded mutants: byte flips, truncations, and inserted separators,
  // comment marks, carriage returns and NULs.
  const char inserts[] = {':', '#', '\r', '\0', '\n'};
  std::mt19937_64 rng(0x6b657973);
  std::size_t accepted = 0;
  for (int i = 0; i < 300; ++i) {
    std::string text = valid;
    const int edits = 1 + static_cast<int>(rng() % 3);
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = rng() % text.size();
      switch (rng() % 3) {
        case 0:
          text[at] = static_cast<char>(text[at] ^ (1u << (rng() % 8)));
          break;
        case 1:
          text.resize(at);
          break;
        default:
          text.insert(at, 1, inserts[rng() % sizeof(inserts)]);
          break;
      }
    }
    SCOPED_TRACE("mutant " + std::to_string(i));
    if (check(text)) ++accepted;
  }
  // Truncations past the first key and comment marks keep some files
  // loadable; the sweep exercises both outcomes.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, 300u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The client retry matrix

TEST(RetryMatrixTest, OnlyOverloadLossAndDeadlineAreRetryable) {
  EXPECT_TRUE(RetryableStatusCode(StatusCode::kResourceExhausted));
  EXPECT_TRUE(RetryableStatusCode(StatusCode::kUnavailable));
  EXPECT_TRUE(RetryableStatusCode(StatusCode::kDeadlineExceeded));
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kInternal,
        StatusCode::kProtocolError, StatusCode::kCryptoError,
        StatusCode::kIoError, StatusCode::kNotFound,
        StatusCode::kPermissionDenied}) {
    EXPECT_FALSE(RetryableStatusCode(code))
        << StatusCodeName(code) << " must fail fast";
  }
}

// ---------------------------------------------------------------------------
// End to end over TCP

struct TableConfig {
  std::string name;
  PlainTable table;
  uint32_t weight = 1;
  std::size_t cache_bytes = ResultCache::kDefaultMaxBytes;
  std::shared_ptr<const ClusterManifest> clusters = nullptr;
};

// Registry + engines + QueryService on a loopback port, with per-table QoS
// knobs and optional API-key auth — the in-test sknn_c1_server of this
// suite.
class QosTopology {
 public:
  explicit QosTopology(std::vector<TableConfig> tables,
                       std::size_t max_in_flight = 8,
                       std::vector<ApiKeyAuth::KeyEntry> keys = {}) {
    for (TableConfig& config : tables) {
      SknnEngine::Options options = BaseOptions();
      options.clusters = config.clusters;
      SKNN_CHECK(registry_
                     .Register(config.name,
                               MakeEngine(config.table, options))
                     .ok());
      TableRegistry::Entry* entry = registry_.Find(config.name);
      entry->qos_weight = config.weight;
      entry->cache.set_budget(config.cache_bytes,
                              ResultCache::kDefaultMaxEntries);
    }
    QueryService::Options options;
    options.max_in_flight = max_in_flight;
    service_ = std::make_unique<QueryService>(&registry_, options);
    if (!keys.empty()) {
      auto auth = ApiKeyAuth::FromEntries(keys);
      SKNN_CHECK(auth.ok()) << auth.status();
      service_->set_api_key_auth(std::move(auth).value());
    }
    Status started = service_->Start(0);
    SKNN_CHECK(started.ok()) << started;
  }

  ~QosTopology() { service_->Shutdown(); }

  QueryService& service() { return *service_; }

  std::unique_ptr<RemoteQueryClient> NewClient(
      const std::string& api_key = "") {
    auto client = RemoteQueryClient::Connect("127.0.0.1", service_->port());
    SKNN_CHECK(client.ok()) << client.status();
    if (!api_key.empty()) (*client)->set_api_key(api_key);
    return std::move(client).value();
  }

 private:
  TableRegistry registry_;
  std::unique_ptr<QueryService> service_;
};

TEST(QosServingTest, CacheDifferentialProofPerQueryMode) {
  PlainTable table = GenerateClusteredTable(18, 2, kMaxValue, {3, 1}, 910);
  auto clusters = BuildClusterManifest(table, 3, 911,
                                       SharedAlice().public_key());
  ASSERT_TRUE(clusters.ok()) << clusters.status();
  QosTopology topology({{
      "alpha", table, /*weight=*/1, ResultCache::kDefaultMaxBytes,
      std::make_shared<const ClusterManifest>(std::move(clusters).value())}});
  auto client = topology.NewClient();

  // Every query mode the wire can express: the three protocols in exact
  // mode, plus the clustered index (whose fingerprint must keep distinct
  // probe budgets apart — covered by the unit test above).
  std::vector<QueryRequest> requests = {
      MakeRequest("alpha", {7, 3}, 2, QueryProtocol::kBasic),
      MakeRequest("alpha", {7, 3}, 2, QueryProtocol::kSecure),
      MakeRequest("alpha", {7, 3}, 2, QueryProtocol::kFarthest),
  };
  QueryRequest clustered =
      MakeRequest("alpha", {7, 3}, 2, QueryProtocol::kSecure);
  clustered.index_mode = IndexMode::kClustered;
  clustered.probe_clusters = 2;
  requests.push_back(clustered);

  for (const QueryRequest& request : requests) {
    SCOPED_TRACE(std::string(QueryProtocolName(request.protocol)) +
                 (request.index_mode == IndexMode::kClustered ? "/clustered"
                                                              : "/exact"));
    auto miss = client->Query(request);
    ASSERT_TRUE(miss.ok()) << miss.status();
    EXPECT_FALSE(miss->cache_hit);

    // The differential proof: both hits ARE the miss's answer, records
    // bitwise equal, and carry the populating run's instrumentation.
    for (int round = 0; round < 2; ++round) {
      auto hit = client->Query(request);
      ASSERT_TRUE(hit.ok()) << hit.status();
      EXPECT_TRUE(hit->cache_hit);
      EXPECT_EQ(hit->records, miss->records);
      EXPECT_EQ(hit->ops.ToString(), miss->ops.ToString());
      EXPECT_EQ(hit->traffic.ToString(), miss->traffic.ToString());
      EXPECT_EQ(hit->shards.size(), miss->shards.size());
    }
  }

  // The control plane saw it all: 4 modes x 1 miss, 4 x 2 hits.
  auto stats = client->ServiceStats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_EQ(stats->tables.size(), 1u);
  EXPECT_EQ(stats->tables[0].cache_hits, 8u);
  EXPECT_EQ(stats->tables[0].cache_misses, 4u);
  EXPECT_EQ(stats->tables[0].cache_entries, 4u);
}

TEST(QosServingTest, NoCacheBypassesWithoutDisturbingTheEntry) {
  QosTopology topology({{"alpha", PlainTable{{1, 0}, {2, 0}, {3, 0}}}});
  auto client = topology.NewClient();
  QueryRequest request = MakeRequest("alpha", {2, 0}, 2);
  auto first = client->Query(request);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->cache_hit);

  // no_cache: a fresh protocol run despite the warm entry...
  request.no_cache = true;
  auto bypass = client->Query(request);
  ASSERT_TRUE(bypass.ok()) << bypass.status();
  EXPECT_FALSE(bypass->cache_hit);
  EXPECT_EQ(bypass->records, first->records);

  // ...and the entry is still there for the next cached request.
  request.no_cache = false;
  auto hit = client->Query(request);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->cache_hit);
}

TEST(QosServingTest, AuthGateQuotaExhaustionAndPerKeyStats) {
  QosTopology topology({{"alpha", PlainTable{{1, 0}, {2, 0}, {3, 0}},
                         /*weight=*/1, /*cache_bytes=*/0}},
                       /*max_in_flight=*/8,
                       {{"tenant-a", "secret-a", /*quota=*/2, /*weight=*/1},
                        {"tenant-b", "secret-b", /*quota=*/0, /*weight=*/1}});
  const QueryRequest request = MakeRequest("alpha", {1, 0}, 1);

  // No key presented: the query frame is refused with a typed
  // kPermissionDenied; the control plane stays open.
  auto anonymous = topology.NewClient();
  auto denied = anonymous->Query(request);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
  EXPECT_TRUE(anonymous->ListTables().ok());

  // A wrong key fails at the kAuthenticate frame itself — also typed, and
  // NOT retried (PermissionDenied is in the fail-fast half of the matrix).
  auto impostor = topology.NewClient("wrong-secret");
  auto rejected = impostor->Query(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kPermissionDenied);

  // The real tenant: quota 2 serves twice, the third is the same typed
  // kResourceExhausted overload wears — one backoff case for clients,
  // distinguished per key for the operator.
  auto tenant = topology.NewClient("secret-a");
  ASSERT_TRUE(tenant->Query(request).ok());
  ASSERT_TRUE(tenant->Query(request).ok());
  auto spent = tenant->Query(request);
  ASSERT_FALSE(spent.ok());
  EXPECT_EQ(spent.status().code(), StatusCode::kResourceExhausted);

  // An unlimited neighbor is untouched by a's exhaustion.
  auto neighbor = topology.NewClient("secret-b");
  ASSERT_TRUE(neighbor->Query(request).ok());

  // Per-key counters over the wire (the control plane needs no key).
  auto stats = anonymous->ServiceStats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(stats->auth_enabled);
  ASSERT_EQ(stats->keys.size(), 2u);
  EXPECT_EQ(stats->keys[0].id, "tenant-a");
  EXPECT_EQ(stats->keys[0].completed, 2u);
  EXPECT_EQ(stats->keys[0].quota_rejected, 1u);
  EXPECT_EQ(stats->keys[0].quota, 2u);
  EXPECT_EQ(stats->keys[0].remaining, 0u);
  EXPECT_EQ(stats->keys[1].id, "tenant-b");
  EXPECT_EQ(stats->keys[1].completed, 1u);
  EXPECT_GE(topology.service().stats().auth_rejected, 2u);
}

TEST(QosServingTest, LowWeightTableProgressesUnderAFlood) {
  // heavy outweighs light 100:1 over 4 slots — light's share is the
  // floor's 1 slot, which the flood must never take. Caches off: every
  // query must traverse admission.
  QosTopology topology({{"heavy", PlainTable{{1, 0}, {2, 0}, {3, 0}},
                         /*weight=*/100, /*cache_bytes=*/0},
                        {"light", PlainTable{{4, 0}, {5, 0}, {6, 0}},
                         /*weight=*/1, /*cache_bytes=*/0}},
                       /*max_in_flight=*/4);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> heavy_served{0};
  std::vector<std::thread> flood;
  for (int i = 0; i < 6; ++i) {
    flood.emplace_back([&topology, &stop, &heavy_served] {
      auto client = topology.NewClient();
      const QueryRequest request = MakeRequest("heavy", {1, 0}, 1);
      while (!stop.load()) {
        if (client->Query(request).ok()) heavy_served.fetch_add(1);
      }
    });
  }
  // Under that sustained flood, the light tenant completes a fixed amount
  // of work in bounded retries: its floor slot cannot be starved away.
  auto light = topology.NewClient();
  const QueryRequest request = MakeRequest("light", {4, 0}, 1);
  RetryPolicy policy;
  policy.max_attempts = 200;
  policy.initial_backoff = std::chrono::milliseconds(1);
  policy.max_backoff = std::chrono::milliseconds(20);
  for (int i = 0; i < 5; ++i) {
    auto served = light->QueryWithRetry(request, policy);
    ASSERT_TRUE(served.ok()) << "light starved at query " << i << ": "
                             << served.status();
  }
  stop.store(true);
  for (std::thread& t : flood) t.join();
  EXPECT_GT(heavy_served.load(), 0u);
}

TEST(QosServingTest, ClientFailsFastOnNonRetryableCodes) {
  QosTopology topology({{"alpha", PlainTable{{1, 0}, {2, 0}}}});
  auto client = topology.NewClient();
  RetryPolicy generous;
  generous.max_attempts = 6;
  generous.initial_backoff = std::chrono::milliseconds(1);

  // k = 0 is kInvalidArgument: exactly ONE server-side attempt despite the
  // 6-attempt policy.
  auto invalid = client->QueryWithRetry(MakeRequest("alpha", {1, 0}, 0),
                                        generous);
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(topology.service().stats().queries_failed, 1u);

  // Unknown table is kNotFound: also one attempt.
  auto missing = client->QueryWithRetry(MakeRequest("beta", {1, 0}, 1),
                                        generous);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(topology.service().stats().queries_failed, 2u);
}

}  // namespace
}  // namespace sknn
