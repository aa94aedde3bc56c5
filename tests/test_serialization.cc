// Tests for the persistence layer: Paillier key text format and the binary
// encrypted-database format, including corruption handling — the artifacts
// of the Alice -> C1 / Alice -> C2 outsourcing hand-off.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <set>

#include "bigint/random.h"
#include "core/db_io.h"
#include "core/data_owner.h"
#include "crypto/serialization.h"
#include "data/synthetic.h"
#include "net/query_wire.h"
#include "net/shard_wire.h"

namespace sknn {
namespace {

PaillierKeyPair MakeKeys(unsigned bits = 256, uint64_t seed = 50) {
  Random rng(seed);
  return GeneratePaillierKeyPair(bits, rng).value();
}

TEST(KeySerializationTest, PublicKeyRoundTrip) {
  PaillierKeyPair keys = MakeKeys();
  std::string text = SerializePublicKey(keys.pk);
  EXPECT_NE(text.find("sknn-paillier-public-v1"), std::string::npos);
  auto parsed = ParsePublicKey(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->n(), keys.pk.n());
  EXPECT_EQ(parsed->g(), keys.pk.g());
  EXPECT_EQ(parsed->key_bits(), keys.pk.key_bits());
}

TEST(KeySerializationTest, SecretKeyRoundTripDecrypts) {
  PaillierKeyPair keys = MakeKeys();
  auto parsed = ParseSecretKey(SerializeSecretKey(keys.sk));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  Random rng(51);
  for (int i = 0; i < 5; ++i) {
    BigInt m = rng.Below(keys.pk.n());
    Ciphertext c = keys.pk.Encrypt(m, rng);
    EXPECT_EQ(parsed->Decrypt(c), m);
  }
}

TEST(KeySerializationTest, RejectsWrongHeader) {
  PaillierKeyPair keys = MakeKeys();
  // Public text fed to the secret parser and vice versa.
  EXPECT_FALSE(ParseSecretKey(SerializePublicKey(keys.pk)).ok());
  EXPECT_FALSE(ParsePublicKey(SerializeSecretKey(keys.sk)).ok());
  EXPECT_FALSE(ParsePublicKey("").ok());
  EXPECT_FALSE(ParsePublicKey("garbage\n").ok());
}

TEST(KeySerializationTest, RejectsMissingOrCorruptFields) {
  EXPECT_FALSE(
      ParsePublicKey("sknn-paillier-public-v1\nkey_bits: 256\n").ok());
  EXPECT_FALSE(
      ParsePublicKey("sknn-paillier-public-v1\nn: ff\nkey_bits: xyz\n").ok());
  // n inconsistent with key_bits.
  EXPECT_FALSE(
      ParsePublicKey("sknn-paillier-public-v1\nkey_bits: 256\nn: ff\n").ok());
  // Secret key with composite factors.
  EXPECT_FALSE(ParseSecretKey(
                   "sknn-paillier-secret-v1\nkey_bits: 16\np: ff\nq: fd\n")
                   .ok());
}

TEST(KeySerializationTest, FileRoundTrip) {
  PaillierKeyPair keys = MakeKeys();
  std::string pk_path = testing::TempDir() + "/sknn_pk.txt";
  std::string sk_path = testing::TempDir() + "/sknn_sk.txt";
  ASSERT_TRUE(WritePublicKeyFile(pk_path, keys.pk).ok());
  ASSERT_TRUE(WriteSecretKeyFile(sk_path, keys.sk).ok());
  auto pk = ReadPublicKeyFile(pk_path);
  auto sk = ReadSecretKeyFile(sk_path);
  ASSERT_TRUE(pk.ok());
  ASSERT_TRUE(sk.ok());
  EXPECT_EQ(pk->n(), keys.pk.n());
  Random rng(52);
  Ciphertext c = pk->Encrypt(BigInt(777), rng);
  EXPECT_EQ(sk->Decrypt(c), BigInt(777));
  std::remove(pk_path.c_str());
  std::remove(sk_path.c_str());
  EXPECT_FALSE(ReadPublicKeyFile("/nonexistent/pk").ok());
}

class DbIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    keys_ = MakeKeys(256, 60);
    DataOwner alice = [] {
      // DataOwner::Create would generate fresh keys; build the encrypted DB
      // directly so the test controls the key pair.
      return DataOwner::Create(256).value();
    }();
    table_ = GenerateUniformTable(7, 3, 15, 61);
    auto db = alice.EncryptDatabase(table_, 4);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    pk_ = alice.public_key();
    path_ = testing::TempDir() + "/sknn_db.bin";
  }

  void TearDown() override { std::remove(path_.c_str()); }

  PaillierKeyPair keys_;
  PlainTable table_;
  EncryptedDatabase db_;
  PaillierPublicKey pk_;
  std::string path_;
};

TEST_F(DbIoTest, RoundTripPreservesEverything) {
  ASSERT_TRUE(WriteEncryptedDatabase(path_, db_).ok());
  auto loaded = ReadEncryptedDatabase(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_records(), db_.num_records());
  EXPECT_EQ(loaded->num_attributes(), db_.num_attributes());
  EXPECT_EQ(loaded->distance_bits, db_.distance_bits);
  for (std::size_t i = 0; i < db_.num_records(); ++i) {
    for (std::size_t j = 0; j < db_.num_attributes(); ++j) {
      EXPECT_EQ(loaded->records[i][j], db_.records[i][j]);
    }
  }
  EXPECT_TRUE(ValidateCiphertexts(*loaded, pk_).ok());
}

TEST_F(DbIoTest, RejectsBadMagicAndTruncation) {
  ASSERT_TRUE(WriteEncryptedDatabase(path_, db_).ok());
  // Corrupt the magic.
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("XXXXXXXX", 8);
  }
  EXPECT_FALSE(ReadEncryptedDatabase(path_).ok());

  // Truncate the file.
  ASSERT_TRUE(WriteEncryptedDatabase(path_, db_).ok());
  {
    std::ifstream in(path_, std::ios::binary | std::ios::ate);
    auto size = in.tellg();
    std::vector<char> buf(static_cast<std::size_t>(size) / 2);
    in.seekg(0);
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }
  EXPECT_FALSE(ReadEncryptedDatabase(path_).ok());
}

TEST_F(DbIoTest, RejectsTrailingGarbage) {
  ASSERT_TRUE(WriteEncryptedDatabase(path_, db_).ok());
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out.write("x", 1);
  }
  EXPECT_FALSE(ReadEncryptedDatabase(path_).ok());
}

TEST_F(DbIoTest, ValidateCatchesForeignKey) {
  // Ciphertexts valid under Alice's key are (overwhelmingly likely) invalid
  // under an unrelated key: either out of range or sharing a factor never —
  // but the range check alone suffices for a smaller modulus.
  Random rng(62);
  auto other = GeneratePaillierKeyPair(128, rng).value();
  EXPECT_FALSE(ValidateCiphertexts(db_, other.pk).ok());
}

TEST_F(DbIoTest, ValidateCatchesTamperedCiphertext) {
  db_.records[2][1] = Ciphertext(pk_.n_squared());  // out of range
  EXPECT_FALSE(ValidateCiphertexts(db_, pk_).ok());
}

TEST(DbIoErrorTest, WriteRejectsEmptyAndUnopenablePaths) {
  EXPECT_FALSE(WriteEncryptedDatabase("/tmp/x.bin", EncryptedDatabase{}).ok());
  EXPECT_FALSE(ReadEncryptedDatabase("/nonexistent/db.bin").ok());
}

// ---------------------------------------------------------------------------
// Malformed-frame sweep over BOTH wire catalogs (net/query_wire.h,
// net/shard_wire.h): every frame type, truncated at EVERY aux length from 0
// to full. A truncated frame must decode successfully ONLY at the lengths
// the contract documents as valid shorter shapes (kQuery's optional
// revision tails, kShardQuery's optional deadline word, the free-length
// error-message frames); every other cut must come back as a typed error —
// never an out-of-bounds read, which the sanitizer CI leg would turn into a
// crash right here.

// Decodes `full` truncated to every prefix length; `decodes_ok` must return
// true exactly at the lengths in `allowed` (the full length is always
// allowed).
void SweepAuxTruncations(const Message& full,
                         const std::set<std::size_t>& allowed,
                         const std::function<bool(const Message&)>& decodes_ok,
                         const char* what) {
  for (std::size_t cut = 0; cut <= full.aux.size(); ++cut) {
    Message truncated = full;
    truncated.aux.resize(cut);
    const bool ok = decodes_ok(truncated);
    if (cut == full.aux.size() || allowed.count(cut)) {
      EXPECT_TRUE(ok) << what << " must decode at aux length " << cut;
    } else {
      EXPECT_FALSE(ok) << what << " truncated to aux length " << cut << " (of "
                       << full.aux.size() << ") decoded instead of failing";
    }
  }
}

TEST(FrameTruncationSweep, QueryRequestAllowsOnlyDocumentedTails) {
  QueryRequest request;
  request.record = {5, -3, 7};
  request.k = 2;
  request.protocol = QueryProtocol::kSecure;
  request.table = "t1";
  request.deadline_ms = 250;
  request.index_mode = IndexMode::kClustered;
  request.probe_clusters = 2;
  Message full = EncodeQueryRequest(request);
  // header(16) + record(24) + len(4) + "t1"(2) = the shortest frame; the
  // table name is mandatory, so a frame ending at the record (40) is
  // malformed. + deadline(4) = revision-3 tail; + mode/probe(8) =
  // revision-5 tail.
  ASSERT_EQ(full.aux.size(), 58u);
  SweepAuxTruncations(
      full, {46, 50},
      [](const Message& m) { return DecodeQueryRequest(m).ok(); }, "kQuery");

  // The exact-mode frame keeps the revision-3/4 shape byte for byte: no
  // clustered tail ever rides a default request (old servers stay
  // compatible with new exact-mode clients).
  request.index_mode = IndexMode::kExact;
  request.deadline_ms = 0;
  EXPECT_EQ(EncodeQueryRequest(request).aux.size(), 46u);
}

TEST(FrameTruncationSweep, QueryResponsePerShardBlocksAreExactSize) {
  QueryResponse response;
  response.records = {{1, 2, 3}, {4, 5, 6}};
  response.shards.resize(2);
  response.shards[0].shard = 0;
  response.shards[0].candidates = 2;
  response.shards[1].shard = 1;
  response.shards[1].pruned = 1;
  response.shards[1].shard_records = 9;
  Message full = EncodeQueryResponse(response);
  SweepAuxTruncations(
      full, {}, [](const Message& m) { return DecodeQueryResponse(m).ok(); },
      "kQueryResult");
  // And the widened revision-5 block actually round-trips.
  auto decoded = DecodeQueryResponse(full);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->shards.size(), 2u);
  EXPECT_EQ(decoded->shards[1].pruned, 1u);
  EXPECT_EQ(decoded->shards[1].shard_records, 9u);
}

TEST(FrameTruncationSweep, ErrorFramesNeedOnlyTheStatusCode) {
  // The message text is free-length: every cut >= 4 is a (shorter) valid
  // frame; cuts 0..3 must fail, not read past the end.
  Message query_error = EncodeQueryError(Status::InvalidArgument("boom"));
  std::set<std::size_t> text_cuts;
  for (std::size_t cut = 4; cut < query_error.aux.size(); ++cut) {
    text_cuts.insert(cut);
  }
  SweepAuxTruncations(query_error, text_cuts,
                      [](const Message& m) {
                        return DecodeQueryError(m).code() ==
                               StatusCode::kInvalidArgument;
                      },
                      "kQueryError");
  Message shard_error = EncodeShardError(Status::InvalidArgument("boom"));
  SweepAuxTruncations(shard_error, text_cuts,
                      [](const Message& m) {
                        return DecodeShardError(m).code() ==
                               StatusCode::kInvalidArgument;
                      },
                      "kShardError");
}

TEST(FrameTruncationSweep, ControlPlaneFramesAreExactSize) {
  SweepAuxTruncations(
      EncodeHello(HelloInfo{}), {},
      [](const Message& m) { return DecodeHello(m).ok(); }, "kHello");
  SweepAuxTruncations(
      EncodeHelloAck(HelloInfo{}), {},
      [](const Message& m) { return DecodeHelloAck(m).ok(); }, "kHelloAck");
  SweepAuxTruncations(
      EncodeTableList({"alpha", "b"}), {},
      [](const Message& m) { return DecodeTableList(m).ok(); }, "kTableList");
  SweepAuxTruncations(
      EncodeTableInfoRequest("tbl"), {},
      [](const Message& m) { return DecodeTableInfoRequest(m).ok(); },
      "kTableInfo");

  TableInfoReply info;
  info.name = "tbl";
  info.num_records = 100;
  info.num_clusters = 8;
  SweepAuxTruncations(
      EncodeTableInfoReply(info), {},
      [](const Message& m) { return DecodeTableInfoReply(m).ok(); },
      "kTableInfoResult");

  ServiceStatsReply stats;
  stats.tables.resize(2);
  stats.tables[0].name = "a";
  stats.tables[1].name = "longer-name";
  SweepAuxTruncations(
      EncodeServiceStatsReply(stats), {},
      [](const Message& m) { return DecodeServiceStatsReply(m).ok(); },
      "kServiceStatsResult");

  HealthReply health;
  health.tables.resize(2);
  health.tables[0].name = "replicated";
  health.tables[0].replicas.resize(2);
  health.tables[1].name = "local";
  SweepAuxTruncations(
      EncodeHealthReply(health), {},
      [](const Message& m) { return DecodeHealthReply(m).ok(); },
      "kHealthResult");

  SweepAuxTruncations(
      EncodeReloadTableRequest({"tbl", "db=/x.bin,shards=2"}), {},
      [](const Message& m) { return DecodeReloadTableRequest(m).ok(); },
      "kReloadTable");
  SweepAuxTruncations(
      EncodeDetachTableRequest("tbl"), {},
      [](const Message& m) { return DecodeDetachTableRequest(m).ok(); },
      "kDetachTable");
  SweepAuxTruncations(
      EncodeAdminAck("tbl"), {},
      [](const Message& m) { return DecodeAdminAck(m).ok(); }, "kAdminAck");
  SweepAuxTruncations(
      EncodeTableChanged({"tbl", TableChangeKind::kDetached}), {},
      [](const Message& m) { return DecodeTableChanged(m).ok(); },
      "kTableChanged");
}

TEST(FrameTruncationSweep, ShardFramesAllowOnlyTheDeadlineTail) {
  ShardGeometry geometry;
  geometry.manifest.num_shards = 4;
  geometry.manifest.total_records = 100;
  geometry.shard_records = 25;
  SweepAuxTruncations(
      EncodeShardGeometry(geometry), {},
      [](const Message& m) { return DecodeShardGeometry(m).ok(); },
      "kShardPing geometry");

  ShardQueryFrame query;
  query.k = 2;
  query.deadline_ms = 500;
  query.enc_query = {Ciphertext(BigInt(7))};
  // aux length 8 = the pre-deadline header, a documented valid shape.
  SweepAuxTruncations(
      EncodeShardQuery(query), {8},
      [](const Message& m) { return DecodeShardQuery(m).ok(); },
      "kShardQuery");

  // Secure-mode candidates: bits + records, no indices/distances.
  ShardCandidatesFrame secure;
  secure.candidates.bits = {{Ciphertext(BigInt(1)), Ciphertext(BigInt(2))},
                            {Ciphertext(BigInt(3)), Ciphertext(BigInt(4))}};
  secure.candidates.records = {{Ciphertext(BigInt(5))},
                               {Ciphertext(BigInt(6))}};
  SweepAuxTruncations(
      EncodeShardCandidates(secure), {},
      [](const Message& m) { return DecodeShardCandidates(m).ok(); },
      "kShardCandidates (secure)");

  // Basic-mode candidates: distances + global indices widen the aux block.
  ShardCandidatesFrame basic;
  basic.candidates.records = {{Ciphertext(BigInt(5))},
                              {Ciphertext(BigInt(6))}};
  basic.candidates.distances = {Ciphertext(BigInt(9)),
                                Ciphertext(BigInt(10))};
  basic.candidates.global_indices = {3, 11};
  SweepAuxTruncations(
      EncodeShardCandidates(basic), {},
      [](const Message& m) { return DecodeShardCandidates(m).ok(); },
      "kShardCandidates (basic)");
}

TEST(ShardWire, CandidatesCarryEveryOpCounter) {
  ShardCandidatesFrame frame;
  frame.candidates.bits = {{Ciphertext(BigInt(1))}};
  frame.candidates.records = {{Ciphertext(BigInt(5))}};
  frame.ops = {11, 12, 13, 14, 15};
  auto decoded = DecodeShardCandidates(EncodeShardCandidates(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->ops.encryptions, 11u);
  EXPECT_EQ(decoded->ops.decryptions, 12u);
  EXPECT_EQ(decoded->ops.exponentiations, 13u);
  EXPECT_EQ(decoded->ops.multiplications, 14u);
  EXPECT_EQ(decoded->ops.inversions, 15u);
}

}  // namespace
}  // namespace sknn
