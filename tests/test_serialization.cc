// Tests for the persistence layer: Paillier key text format and the binary
// encrypted-database format, including corruption handling — the artifacts
// of the Alice -> C1 / Alice -> C2 outsourcing hand-off.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <random>
#include <set>

#include "bigint/random.h"
#include "common/mutex.h"
#include "core/db_io.h"
#include "core/data_owner.h"
#include "core/sknn_b.h"
#include "crypto/serialization.h"
#include "data/synthetic.h"
#include "net/query_wire.h"
#include "net/rpc.h"
#include "net/shard_wire.h"
#include "proto/c2_service.h"
#include "proto/context.h"
#include "proto/sbd.h"
#include "proto/sm.h"
#include "proto/smin.h"
#include "tests/proto_test_util.h"

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
// the contract documents as valid shorter shapes (the free-length
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

TEST(FrameTruncationSweep, QueryRequestIsExactSize) {
  QueryRequest request;
  request.record = {5, -3, 7};
  request.k = 2;
  request.protocol = QueryProtocol::kSecure;
  request.table = "t1";
  request.deadline_ms = 250;
  request.index_mode = IndexMode::kClustered;
  request.probe_clusters = 2;
  Message full = EncodeQueryRequest(request);
  // header(16) + record(24) + len(4) + "t1"(2) + deadline, mode and
  // probe(12): one layout, whatever the request asks for.
  ASSERT_EQ(full.aux.size(), 58u);
  SweepAuxTruncations(
      full, {}, [](const Message& m) { return DecodeQueryRequest(m).ok(); },
      "kQuery");

  request.index_mode = IndexMode::kExact;
  request.deadline_ms = 0;
  request.probe_clusters = 0;
  EXPECT_EQ(EncodeQueryRequest(request).aux.size(), 58u);
}

// The shorter shapes older revisions accepted — kQuery ending at the table
// name or after a lone deadline word, kShardQuery without its deadline
// word — are malformed frames now, refused as such.
TEST(FrameTruncationSweep, FormerOptionalTailsAreProtocolErrors) {
  QueryRequest request;
  request.record = {5, -3, 7};
  request.table = "t1";
  const Message full = EncodeQueryRequest(request);
  for (std::size_t tail : {0u, 4u}) {
    Message shorter = full;
    shorter.aux.resize(46 + tail);
    EXPECT_EQ(DecodeQueryRequest(shorter).status().code(),
              StatusCode::kProtocolError)
        << "kQuery with a " << tail << "-byte tail";
  }

  ShardQueryFrame query;
  query.k = 2;
  query.enc_query = {Ciphertext(BigInt(7))};
  Message header8 = EncodeShardQuery(query);
  ASSERT_EQ(header8.aux.size(), 12u);
  header8.aux.resize(8);
  EXPECT_EQ(DecodeShardQuery(header8).status().code(),
            StatusCode::kProtocolError);
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
  Message rpc_error =
      EncodeStatusFrame(OpCode(Op::kError), Status::InvalidArgument("boom"));
  SweepAuxTruncations(rpc_error, text_cuts,
                      [](const Message& m) {
                        return DecodeStatusFrame(OpCode(Op::kError), m)
                                   .code() == StatusCode::kInvalidArgument;
                      },
                      "kError");
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
  SweepAuxTruncations(
      EncodeShardQuery(query), {},
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


// --- Golden bytes ------------------------------------------------------------
// One fixed instance of every front-end frame, every shard frame, the RPC
// layer's kError frame and every C1<->C2 aux payload, pinned as hex. The layouts are a compatibility
// contract (docs/API.md, proto/opcodes.h): a codec change that moves any byte
// fails here. On a mismatch the test prints the current encoding.

const std::map<std::string, std::string> kGoldenFrames = {
    {"kQuery.clustered",
         "010100000000000000000000000000000000000000003a000000020000000100"
         "000006000000030000000500000000000000fdffffffffffffff070000000000"
         "0000020000007431fa0000000100000003000000"},
    {"kQuery.exact_deadline",
         "010100000000000000000000000000000000000000003d000000030000000000"
         "0000030000000300000001000000000000000000000000010000ffffffffffff"
         "ffff050000006865617274e80300000000000001000000"},
    {"kQuery.exact",
         "0101000000000000000000000000000000000000000028000000010000000200"
         "0000010000000100000004000000000000000000000000000000000000000100"
         "0000"},
    {"kQueryResult",
         "02010000000000000000000000000000000000000000a0010000020000000300"
         "00000100000000000000feffffffffffffff0300000000000000040000000000"
         "00000500000000000000faffffffffffffff000000000000d03f000000000000"
         "f83f220000000000000028230000000000002100000000000000401f00000000"
         "00000a0000000000000014000000000000001e00000000000000280000000000"
         "00003200000000000000000000000000e03f000000000000d03f000000000000"
         "0040000000000000c03f000000000000b03f000000000000f03f000000000000"
         "e83f020000000000000002000000010000000100000000000000040000000000"
         "00000000e03f0100000000000000020000000000000003000000000000000400"
         "0000000000000500000000000000060000000000000007000000000000000800"
         "0000000000000900000000000000010000000000000000000000000000000100"
         "0000030000000000000000000000000000000000000000000000000000000000"
         "0000000000000000000000000000000000000000000000000000000000000000"
         "0000000000000000000000000000000000000000000003000000"},
    {"kQueryError",
         "0301000000000000000000000000000000000000000012000000090000006164"
         "6d697373696f6e2066756c6c"},
    {"kHello",
         "1001000000000000000000000000000000000000000008000000070000000000"
         "0000"},
    {"kHelloAck",
         "1101000000000000000000000000000000000000000008000000070000000300"
         "0000"},
    {"kListTables",
         "1201000000000000000000000000000000000000000000000000"},
    {"kTableList",
         "1301000000000000000000000000000000000000000012000000020000000500"
         "0000616c7068610100000062"},
    {"kTableInfo",
         "1401000000000000000000000000000000000000000007000000030000007462"
         "6c"},
    {"kTableInfoResult",
         "150100000000000000000000000000000000000000002f000000030000007462"
         "6c64000000000000000600000008000000640000001300000002000000010000"
         "000100000008000000"},
    {"kServiceStats",
         "1601000000000000000000000000000000000000000000000000"},
    {"kServiceStatsResult",
         "1701000000000000000000000000000000000000000090010000000000000000"
         "2940070000000000000002000000000000000200000001000000610b00000000"
         "0000000100000000000000000000000000000000000000000000002800000000"
         "0000000000000000000000000000000000000000000000000000000000000000"
         "0000000000000000000000000000000000000040000000000000000300000005"
         "0000000900000000000000000000000000000000000000000000000000000000"
         "00000000100000000000000b0000006c6f6e6765722d6e616d65000000000000"
         "0000000000000000000004000000000000000000000000000000000000000000"
         "0000000000000000000000000000000000000000000000000000000000000000"
         "0000000000000000000000000000000000000000000000000000010000000000"
         "0000000000000000000000000000000000000000000000000000000000000000"
         "0000000000000000000001000000010000000800000074656e616e742d310500"
         "000000000000010000000000000002000000000000000a000000000000000300"
         "00000000000002000000"},
    {"kHealth",
         "1801000000000000000000000000000000000000000000000000"},
    {"kHealthResult",
         "1901000000000000000000000000000000000000000063000000020000000a00"
         "00007265706c6963617465640200000000000000000000000100000000000000"
         "0000000000000000000000000000f0bf01000000010000000000000003000000"
         "02000000000000000000000000001240050000006c6f63616c00000000"},
    {"kReloadTable",
         "1a0100000000000000000000000000000000000000001d000000030000007462"
         "6c1200000064623d2f782e62696e2c7368617264733d32"},
    {"kDetachTable",
         "1b01000000000000000000000000000000000000000007000000030000007462"
         "6c"},
    {"kAdminAck",
         "1c01000000000000000000000000000000000000000007000000030000007462"
         "6c"},
    {"kTableChanged",
         "1d0100000000000000000000000000000000000000000b000000030000007462"
         "6c01000000"},
    {"kAuthenticate",
         "1e0100000000000000000000000000000000000000000e0000000a0000007365"
         "637265742d6b6579"},
    {"kAuthAck",
         "1f0100000000000000000000000000000000000000000c000000080000007465"
         "6e616e742d31"},
    {"kShardPing",
         "0102000000000000000000000000000000000000000000000000"},
    {"kShardPing.geometry",
         "010200000000000000000000000000000000000000001c000000010000000100"
         "00000400000064000000060000001400000019000000"},
    {"kShardQuery",
         "0202000000000000000088776655443322110200000001000000070200000001"
         "2c0c0000000200000001000000f4010000"},
    {"kShardCandidates.secure",
         "0302000000000000000000000000000000000600000001000000010100000002"
         "0100000003010000000401000000050100000006600000000200000002000000"
         "0100000000000000000000000000e03f06000000000000005802000000000000"
         "0500000000000000f4010000000000000b000000000000000c00000000000000"
         "0d000000000000000e000000000000000f00000000000000"},
    {"kShardCandidates.basic",
         "0302000000000000000000000000000000000600000001000000050100000008"
         "010000000601000000090100000009010000000a680000000200000000000000"
         "0200000001000000030000000b00000000000000000000000000000000000000"
         "0000000000000000000000000000000000000000000000000100000000000000"
         "0200000000000000030000000000000004000000000000000500000000000000"},
    {"kError",
         "ffff00000000000000000000000000000000000000000b0000000b000000736c"
         "6f77204332"},
};
const char* const kGoldenC1C2Transcript =
    "16:00000000/ 16:01000000/ 16:02000000/ 15:/ 12:0300000002000000/"
    " 7:02000000/0100000002000000 15:/ 13:/02000000000000000200000000"
    "000000000000000000000000000000000000000000000000000000 14:/00000"
    "00000000000000000000000000000000000000000000000000000000000 ";

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

std::vector<std::pair<std::string, Message>> GoldenFrames() {
  std::vector<std::pair<std::string, Message>> frames;
  auto add = [&frames](const char* name, Message msg) {
    frames.emplace_back(name, std::move(msg));
  };

  QueryRequest clustered;
  clustered.record = {5, -3, 7};
  clustered.k = 2;
  clustered.protocol = QueryProtocol::kSecure;
  clustered.want_breakdown = false;
  clustered.no_cache = true;
  clustered.table = "t1";
  clustered.deadline_ms = 250;
  clustered.index_mode = IndexMode::kClustered;
  clustered.probe_clusters = 3;
  add("kQuery.clustered", EncodeQueryRequest(clustered));
  QueryRequest exact;
  exact.record = {1, int64_t{1} << 40, -1};
  exact.k = 3;
  exact.protocol = QueryProtocol::kBasic;
  exact.table = "heart";
  exact.deadline_ms = 1000;
  add("kQuery.exact_deadline", EncodeQueryRequest(exact));
  QueryRequest bare;
  bare.record = {4};
  bare.protocol = QueryProtocol::kFarthest;
  bare.want_op_counts = false;
  add("kQuery.exact", EncodeQueryRequest(bare));

  QueryResponse response;
  response.records = {{1, -2, 3}, {4, 5, -6}};
  response.bob_seconds = 0.25;
  response.cloud_seconds = 1.5;
  response.traffic = {34, 9000, 33, 8000};
  response.ops = {10, 20, 30, 40, 50};
  response.breakdown = {0.5, 0.25, 2.0, 0.125, 0.0625, 1.0};
  response.merge_seconds = 0.75;
  response.shards.resize(2);
  response.shards[0].shard = 0;
  response.shards[0].candidates = 2;
  response.shards[0].replica = 1;
  response.shards[0].failovers = 1;
  response.shards[0].shard_records = 4;
  response.shards[0].seconds = 0.5;
  response.shards[0].traffic = {1, 2, 3, 4};
  response.shards[0].ops = {5, 6, 7, 8, 9};
  response.shards[1].shard = 1;
  response.shards[1].pruned = 1;
  response.shards[1].shard_records = 3;
  response.cache_hit = true;
  response.c2_ops_missing = true;
  add("kQueryResult", EncodeQueryResponse(response));
  add("kQueryError",
      EncodeQueryError(Status::ResourceExhausted("admission full")));

  add("kHello", EncodeHello(HelloInfo{7, 0}));
  add("kHelloAck", EncodeHelloAck(HelloInfo{7, 3}));
  add("kListTables", EncodeListTablesRequest());
  add("kTableList", EncodeTableList({"alpha", "b"}));
  add("kTableInfo", EncodeTableInfoRequest("tbl"));
  TableInfoReply info;
  info.name = "tbl";
  info.num_records = 100;
  info.num_attributes = 6;
  info.attr_bits = 8;
  info.k_max = 100;
  info.distance_bits = 19;
  info.num_shards = 2;
  info.shard_scheme = 1;
  info.remote_workers = true;
  info.num_clusters = 8;
  add("kTableInfoResult", EncodeTableInfoReply(info));
  add("kServiceStats", EncodeServiceStatsRequest());
  ServiceStatsReply stats;
  stats.uptime_seconds = 12.5;
  stats.connections_accepted = 7;
  stats.in_flight = 2;
  stats.tables.resize(2);
  stats.tables[0].name = "a";
  stats.tables[0].completed = 11;
  stats.tables[0].failed = 1;
  stats.tables[0].c1_pool_hits = 40;
  stats.tables[0].c2_pool_capacity = 64;
  stats.tables[0].weight = 3;
  stats.tables[0].share_limit = 5;
  stats.tables[0].cache_hits = 9;
  stats.tables[0].cache_bytes = 4096;
  stats.tables[1].name = "longer-name";
  stats.tables[1].rejected = 4;
  stats.auth_enabled = true;
  stats.keys.resize(1);
  stats.keys[0].id = "tenant-1";
  stats.keys[0].completed = 5;
  stats.keys[0].denied = 1;
  stats.keys[0].quota_rejected = 2;
  stats.keys[0].quota = 10;
  stats.keys[0].remaining = 3;
  stats.keys[0].weight = 2;
  add("kServiceStatsResult", EncodeServiceStatsReply(stats));
  add("kHealth", EncodeHealthRequest());
  HealthReply health;
  health.tables.resize(2);
  health.tables[0].name = "replicated";
  health.tables[0].replicas.resize(2);
  health.tables[0].replicas[1].shard = 1;
  health.tables[0].replicas[1].replica = 1;
  health.tables[0].replicas[1].healthy = false;
  health.tables[0].replicas[1].consecutive_failures = 3;
  health.tables[0].replicas[1].failovers = 2;
  health.tables[0].replicas[1].last_ok_age_seconds = 4.5;
  health.tables[1].name = "local";
  add("kHealthResult", EncodeHealthReply(health));
  add("kReloadTable", EncodeReloadTableRequest({"tbl", "db=/x.bin,shards=2"}));
  add("kDetachTable", EncodeDetachTableRequest("tbl"));
  add("kAdminAck", EncodeAdminAck("tbl"));
  add("kTableChanged", EncodeTableChanged({"tbl", TableChangeKind::kDetached}));
  add("kAuthenticate", EncodeAuthenticateRequest("secret-key"));
  add("kAuthAck", EncodeAuthAck("tenant-1"));

  add("kShardPing", EncodeShardPing());
  ShardGeometry geometry;
  geometry.shard = 1;
  geometry.manifest.scheme = ShardScheme::kRoundRobin;
  geometry.manifest.num_shards = 4;
  geometry.manifest.total_records = 100;
  geometry.num_attributes = 6;
  geometry.distance_bits = 20;
  geometry.shard_records = 25;
  add("kShardPing.geometry", EncodeShardGeometry(geometry));
  ShardQueryFrame query;
  query.query_id = 0x1122334455667788u;
  query.k = 2;
  query.protocol = QueryProtocol::kSecure;
  query.deadline_ms = 500;
  query.enc_query = {Ciphertext(BigInt(7)), Ciphertext(BigInt(300))};
  add("kShardQuery", EncodeShardQuery(query));
  ShardCandidatesFrame secure;
  secure.candidates.bits = {{Ciphertext(BigInt(1)), Ciphertext(BigInt(2))},
                            {Ciphertext(BigInt(3)), Ciphertext(BigInt(4))}};
  secure.candidates.records = {{Ciphertext(BigInt(5))},
                               {Ciphertext(BigInt(6))}};
  secure.seconds = 0.5;
  secure.traffic = {6, 600, 5, 500};
  secure.ops = {11, 12, 13, 14, 15};
  add("kShardCandidates.secure", EncodeShardCandidates(secure));
  ShardCandidatesFrame basic;
  basic.candidates.records = {{Ciphertext(BigInt(5)), Ciphertext(BigInt(8))},
                              {Ciphertext(BigInt(6)), Ciphertext(BigInt(9))}};
  basic.candidates.distances = {Ciphertext(BigInt(9)),
                                Ciphertext(BigInt(10))};
  basic.candidates.global_indices = {3, 11};
  basic.ops = {1, 2, 3, 4, 5};
  add("kShardCandidates.basic", EncodeShardCandidates(basic));
  add("kError", EncodeStatusFrame(OpCode(Op::kError),
                                  Status::DeadlineExceeded("slow C2")));
  return frames;
}

// Splits `hex` into 64-digit C++ string literals, for pasting.
std::string AsLiterals(const std::string& hex) {
  std::string out;
  for (std::size_t at = 0; at < hex.size(); at += 64) {
    out += "\n         \"" + hex.substr(at, 64) + "\"";
  }
  return hex.empty() ? " \"\"" : out;
}

TEST(GoldenBytes, EveryFrontEndAndShardFrame) {
  const std::map<std::string, std::string>& golden = kGoldenFrames;
  std::string current;
  for (const auto& [name, msg] : GoldenFrames()) {
    const std::string hex = Hex(WireCodec::Encode(msg));
    auto it = golden.find(name);
    EXPECT_TRUE(it != golden.end() && it->second == hex)
        << name << " encodes as " << hex;
    current += "    {\"" + name + "\"," + AsLiterals(hex) + "},\n";
  }
  EXPECT_EQ(golden.size(), GoldenFrames().size());
  if (HasFailure()) std::cout << "current encodings:\n" << current;
}

TEST(GoldenBytes, EveryC1C2AuxPayload) {
  Random rng(91);
  auto keys = GeneratePaillierKeyPair(256, rng);
  ASSERT_TRUE(keys.ok()) << keys.status();
  const PaillierPublicKey pk = keys->pk;
  C2Service c2(std::move(keys->sk));
  // Records "<opcode>:<request aux>/<response aux>" for every exchange.
  Mutex mu;
  std::string transcript;
  Channel::EndpointPair link = Channel::CreatePair();
  RpcServer server(std::move(link.b),
                   [&](const Message& req) -> Result<Message> {
                     Result<Message> resp = c2.Handle(req);
                     MutexLock lock(&mu);
                     transcript += std::to_string(req.type) + ":" +
                                   Hex(req.aux) + "/" +
                                   (resp.ok() ? Hex(resp->aux) : "error") +
                                   " ";
                     return resp;
                   });
  RpcClient client(std::move(link.a));
  ProtoContext ctx(&pk, &client);
  auto enc = [&](int64_t v) { return pk.Encrypt(BigInt(v), rng); };
  auto bits3 = [&](int v) {
    return EncryptedBits{enc((v >> 2) & 1), enc((v >> 1) & 1), enc(v & 1)};
  };
  // SBD: kLsbShiftVec carries the bit round t.
  SbdOptions sbd;
  sbd.l = 3;
  ASSERT_TRUE(BitDecomposeBatch(ctx, {enc(5), enc(2)}, sbd).ok());
  // SMIN: kSminPhase2Vec carries l and the block count.
  ASSERT_TRUE(SecureMinBatch(ctx, {bits3(3), bits3(6)}, {bits3(5), bits3(1)})
                  .ok());
  // SkNN_b: kTopKIndices carries k and answers k indices.
  auto top = SecureTopKIndices(ctx, {enc(9), enc(5), enc(7)}, 2);
  ASSERT_TRUE(top.ok()) << top.status();
  // The meta fetches: one query's C2 op ledger, and the pool counters.
  ProtoContext tagged(&pk, &client, nullptr, /*query_id=*/77);
  ASSERT_TRUE(SecureSquareBatch(tagged, {enc(3), enc(4)}).ok());
  ASSERT_TRUE(tagged.Call(Op::kFetchQueryOps, {}).ok());
  ASSERT_TRUE(ctx.Call(Op::kFetchPoolStats, {}).ok());
  MutexLock lock(&mu);
  EXPECT_EQ(transcript, kGoldenC1C2Transcript)
      << "current transcript:" << AsLiterals(transcript);
}


TEST(StatusFrames, BothOpcodesCarryEveryDefinedCode) {
  // kQueryError and the RPC layer's kError share one codec: every defined
  // non-OK code crosses either opcode intact, the last one included.
  ASSERT_EQ(kLastStatusCode, StatusCode::kPermissionDenied);
  const uint16_t kTypes[] = {FrontendOpCode(FrontendOp::kQueryError),
                             OpCode(Op::kError)};
  for (uint32_t code = 1; code <= static_cast<uint32_t>(kLastStatusCode);
       ++code) {
    const Status status(static_cast<StatusCode>(code), "why");
    for (uint16_t type : kTypes) {
      Status decoded = DecodeStatusFrame(type, EncodeStatusFrame(type, status));
      EXPECT_EQ(decoded.code(), status.code()) << type;
      EXPECT_EQ(decoded.message(), "why") << type;
    }
  }
  // OK and any code past the last are refused as malformed.
  for (uint32_t bad :
       {0u, static_cast<uint32_t>(kLastStatusCode) + 1, 0xFFFFFFFFu}) {
    for (uint16_t type : kTypes) {
      Message msg;
      msg.type = type;
      FrameWriter(msg.aux).U32(bad).Text("x");
      Status decoded = DecodeStatusFrame(type, msg);
      EXPECT_EQ(decoded.code(), StatusCode::kProtocolError);
      EXPECT_NE(decoded.message().find("unknown status code"),
                std::string::npos)
          << decoded;
    }
  }
}

// --- Seeded mutation loop ----------------------------------------------------
// Every decoder gets a few hundred mutants of its golden sample: bit flips,
// u32 words set to 0, 1, 2^31 and 0xFFFFFFFF, truncations and appended
// bytes. Each decode must return a value or kProtocolError — never another
// code (but FailedPrecondition from a hello whose revision word is not this
// build's), and never a crash or an out-of-bounds read (the sanitizer CI leg
// runs this binary). An accepted mutant must round-trip: its value, encoded
// and decoded again, encodes to the same bytes.

constexpr int kMutantsPerFrame = 300;

// Applies one or two random mutations to `bytes`.
void Mutate(std::vector<uint8_t>& bytes, std::mt19937& rng) {
  static constexpr uint32_t kWords[] = {0, 1, 0x80000000u, 0xFFFFFFFFu};
  const int rounds = 1 + static_cast<int>(rng() % 2);
  for (int i = 0; i < rounds; ++i) {
    switch (rng() % 4) {
      case 0:
        if (!bytes.empty()) bytes[rng() % bytes.size()] ^= 1u << (rng() % 8);
        break;
      case 1:
        if (bytes.size() >= 4) {
          const std::size_t at = rng() % (bytes.size() - 3);
          const uint32_t word = kWords[rng() % 4];
          for (int b = 0; b < 4; ++b) {
            bytes[at + b] = static_cast<uint8_t>(word >> (8 * b));
          }
        }
        break;
      case 2:
        bytes.resize(bytes.empty() ? 0 : rng() % bytes.size());
        break;
      default:
        for (int n = 1 + static_cast<int>(rng() % 8); n > 0; --n) {
          bytes.push_back(static_cast<uint8_t>(rng()));
        }
    }
  }
}

// Decodes a frame and re-encodes the value it carried.
using RoundTrip = std::function<Result<Message>(const Message&)>;

template <typename T>
RoundTrip Via(Result<T> (*decode)(const Message&),
              Message (*encode)(const T&)) {
  return [decode, encode](const Message& msg) -> Result<Message> {
    SKNN_ASSIGN_OR_RETURN(T value, decode(msg));
    return encode(value);
  };
}

// A status frame always decodes to a Status; malformed ones to a
// ProtocolError, which re-encodes like any other.
RoundTrip ViaStatus(uint16_t type) {
  return [type](const Message& msg) -> Result<Message> {
    return EncodeStatusFrame(type, DecodeStatusFrame(type, msg));
  };
}

// Every golden frame that has a decoder (payload-free requests have none).
std::map<std::string, RoundTrip> FrameDecoders() {
  return {
      {"kQuery.clustered", Via(DecodeQueryRequest, EncodeQueryRequest)},
      {"kQuery.exact_deadline", Via(DecodeQueryRequest, EncodeQueryRequest)},
      {"kQuery.exact", Via(DecodeQueryRequest, EncodeQueryRequest)},
      {"kQueryResult", Via(DecodeQueryResponse, EncodeQueryResponse)},
      {"kQueryError", ViaStatus(FrontendOpCode(FrontendOp::kQueryError))},
      {"kHello", Via(DecodeHello, EncodeHello)},
      {"kHelloAck", Via(DecodeHelloAck, EncodeHelloAck)},
      {"kTableList", Via(DecodeTableList, EncodeTableList)},
      {"kTableInfo", Via(DecodeTableInfoRequest, EncodeTableInfoRequest)},
      {"kTableInfoResult", Via(DecodeTableInfoReply, EncodeTableInfoReply)},
      {"kServiceStatsResult",
       Via(DecodeServiceStatsReply, EncodeServiceStatsReply)},
      {"kHealthResult", Via(DecodeHealthReply, EncodeHealthReply)},
      {"kReloadTable",
       Via(DecodeReloadTableRequest, EncodeReloadTableRequest)},
      {"kDetachTable",
       Via(DecodeDetachTableRequest, EncodeDetachTableRequest)},
      {"kAdminAck", Via(DecodeAdminAck, EncodeAdminAck)},
      {"kTableChanged", Via(DecodeTableChanged, EncodeTableChanged)},
      {"kAuthenticate",
       Via(DecodeAuthenticateRequest, EncodeAuthenticateRequest)},
      {"kAuthAck", Via(DecodeAuthAck, EncodeAuthAck)},
      {"kShardPing.geometry", Via(DecodeShardGeometry, EncodeShardGeometry)},
      {"kShardQuery", Via(DecodeShardQuery, EncodeShardQuery)},
      {"kShardCandidates.secure",
       Via(DecodeShardCandidates, EncodeShardCandidates)},
      {"kShardCandidates.basic",
       Via(DecodeShardCandidates, EncodeShardCandidates)},
      {"kError", ViaStatus(OpCode(Op::kError))},
  };
}

// True when `msg` is the hello frame `name` decodes, from another revision:
// the hello decoders refuse it with FailedPrecondition, before its length.
bool OtherRevisionHello(const Message& msg, const std::string& name) {
  const FrontendOp op =
      name == "kHello" ? FrontendOp::kHello : FrontendOp::kHelloAck;
  if (name.rfind("kHello", 0) != 0 || msg.type != FrontendOpCode(op)) {
    return false;
  }
  FrameReader r(msg.aux);
  return r.U32() != kProtocolRevision && r.ok();
}

// True when `round_trip` accepted `msg`; fails the test on any other code
// or on an accepted frame that does not round-trip.
bool CheckDecode(const RoundTrip& round_trip, const Message& msg,
                 const std::string& name) {
  Result<Message> first = round_trip(msg);
  if (!first.ok()) {
    EXPECT_EQ(first.status().code(), OtherRevisionHello(msg, name)
                                         ? StatusCode::kFailedPrecondition
                                         : StatusCode::kProtocolError)
        << name << ": " << first.status();
    return false;
  }
  Result<Message> second = round_trip(*first);
  EXPECT_TRUE(second.ok() &&
              WireCodec::Encode(*second) == WireCodec::Encode(*first))
      << name << " accepted a mutant that does not round-trip";
  return true;
}

TEST(FrameMutation, EveryFrameDecoderReturnsAValueOrProtocolError) {
  const std::map<std::string, RoundTrip> decoders = FrameDecoders();
  std::mt19937 rng(20261018);
  std::size_t covered = 0;
  for (const auto& [name, sample] : GoldenFrames()) {
    auto it = decoders.find(name);
    if (it == decoders.end()) continue;
    ++covered;
    ASSERT_TRUE(CheckDecode(it->second, sample, name)) << name;
    const std::vector<uint8_t> whole = WireCodec::Encode(sample);
    int accepted = 0;
    for (int i = 0; i < kMutantsPerFrame; ++i) {
      // The payload alone...
      Message mutant = sample;
      Mutate(mutant.aux, rng);
      accepted += CheckDecode(it->second, mutant, name) ? 1 : 0;
      // ...and the whole message, header and ints included.
      std::vector<uint8_t> bytes = whole;
      Mutate(bytes, rng);
      Result<Message> decoded = WireCodec::Decode(bytes);
      if (!decoded.ok()) {
        EXPECT_EQ(decoded.status().code(), StatusCode::kProtocolError);
        continue;
      }
      const std::vector<uint8_t> canonical = WireCodec::Encode(*decoded);
      Result<Message> again = WireCodec::Decode(canonical);
      EXPECT_TRUE(again.ok() && WireCodec::Encode(*again) == canonical)
          << name << ": WireCodec accepted a message that does not "
          << "round-trip";
      CheckDecode(it->second, *decoded, name);
    }
    // Some mutants (a flipped counter bit, a longer text) stay valid.
    EXPECT_GT(accepted, 0) << name;
  }
  EXPECT_EQ(covered, decoders.size());
}

// The C1<->C2 aux payloads: C2's request decoders, fed through
// C2Service::Handle, and C1's reply decoders, fed by a C2 that mutates the
// aux of the reply it is armed for.
TEST(FrameMutation, EveryC1C2AuxDecoderReturnsAValueOrProtocolError) {
  Random key_rng(92);
  auto keys = GeneratePaillierKeyPair(256, key_rng);
  ASSERT_TRUE(keys.ok()) << keys.status();
  const PaillierPublicKey pk = keys->pk;
  C2Service c2(std::move(keys->sk));
  auto enc = [&](int64_t v) { return pk.Encrypt(BigInt(v), key_rng).value(); };
  std::mt19937 rng(20261019);

  // Every row's well-formed request is served; the rows whose request
  // carries aux have their aux mutated.
  for (const OpSpec& spec : kOpTable) {
    const Message sample = WellFormedRequest(spec.op, pk, key_rng);
    ASSERT_TRUE(c2.Handle(sample).ok()) << spec.name;
    if (sample.aux.empty()) continue;
    for (int i = 0; i < kMutantsPerFrame; ++i) {
      Message mutant = sample;
      Mutate(mutant.aux, rng);
      Result<Message> resp = c2.Handle(mutant);
      if (!resp.ok()) {
        EXPECT_EQ(resp.status().code(), StatusCode::kProtocolError)
            << spec.name << ": " << resp.status();
      }
    }
  }

  // C1's side. The handler runs on the server's thread; `armed` is set
  // before each call and cleared by the one reply it mutates.
  std::atomic<uint16_t> armed{0};
  std::mt19937 reply_rng(20261020);
  Channel::EndpointPair link = Channel::CreatePair();
  RpcServer server(std::move(link.b),
                   [&](const Message& req) -> Result<Message> {
                     Result<Message> resp = c2.Handle(req);
                     uint16_t want = req.type;
                     if (resp.ok() &&
                         armed.compare_exchange_strong(want, 0)) {
                       Mutate(resp->aux, reply_rng);
                     }
                     return resp;
                   });
  RpcClient client(std::move(link.a));
  ProtoContext ctx(&pk, &client);
  const std::vector<Ciphertext> dists = {Ciphertext(enc(9)),
                                         Ciphertext(enc(5)),
                                         Ciphertext(enc(7))};
  for (int i = 0; i < kMutantsPerFrame; ++i) {
    armed = OpCode(Op::kTopKIndices);
    auto top = SecureTopKIndices(ctx, dists, 2);
    if (top.ok()) {
      for (uint32_t idx : *top) EXPECT_LT(idx, dists.size());
    } else {
      EXPECT_EQ(top.status().code(), StatusCode::kProtocolError)
          << top.status();
    }
  }
}

}  // namespace
}  // namespace sknn
