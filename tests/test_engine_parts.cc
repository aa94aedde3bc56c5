// Tests for assembling the system from persisted artifacts: serialize keys
// and the encrypted database to disk, reload everything, rebuild the engine
// with CreateFromParts, and verify queries still match plaintext kNN — the
// full "resume an outsourced deployment" workflow.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdio>

#include "baseline/plaintext_knn.h"
#include "common/logging.h"
#include "core/data_owner.h"
#include "core/db_io.h"
#include "core/engine.h"
#include "crypto/serialization.h"
#include "data/synthetic.h"
#include "tests/query_test_util.h"

namespace sknn {
namespace {

class EnginePartsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = GenerateUniformTable(10, 3, 7, 31415);
    query_ = GenerateUniformQuery(3, 7, 31416);
    auto alice = DataOwner::Create(256);
    ASSERT_TRUE(alice.ok());
    pk_ = alice->public_key();
    sk_ = alice->secret_key_for_c2();
    auto db = alice->EncryptDatabase(table_, 3);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
  }

  PlainTable table_;
  PlainRecord query_;
  PaillierPublicKey pk_;
  PaillierSecretKey sk_;
  EncryptedDatabase db_;
  SknnEngine::Options opts_;
};

TEST_F(EnginePartsTest, DirectPartsAssemblyWorks) {
  auto engine = SknnEngine::CreateFromParts(pk_, sk_, db_, opts_);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto result = RunQuery(**engine, query_, 3, QueryProtocol::kSecure);
  ASSERT_TRUE(result.ok()) << result.status();

  std::multiset<int64_t> got, want;
  for (const auto& r : result->records) got.insert(SquaredDistance(r, query_));
  for (const auto& r : PlainKnn(table_, query_, 3)) {
    want.insert(SquaredDistance(r, query_));
  }
  EXPECT_EQ(got, want);
}

TEST_F(EnginePartsTest, FullDiskRoundTripAssembly) {
  std::string pk_path = testing::TempDir() + "/parts_pk.txt";
  std::string sk_path = testing::TempDir() + "/parts_sk.txt";
  std::string db_path = testing::TempDir() + "/parts_db.bin";
  ASSERT_TRUE(WritePublicKeyFile(pk_path, pk_).ok());
  ASSERT_TRUE(WriteSecretKeyFile(sk_path, sk_).ok());
  ASSERT_TRUE(WriteEncryptedDatabase(db_path, db_).ok());

  auto pk = ReadPublicKeyFile(pk_path);
  auto sk = ReadSecretKeyFile(sk_path);
  auto db = ReadEncryptedDatabase(db_path);
  ASSERT_TRUE(pk.ok());
  ASSERT_TRUE(sk.ok());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(ValidateCiphertexts(*db, *pk).ok());

  auto engine = SknnEngine::CreateFromParts(*pk, std::move(*sk),
                                            std::move(*db), opts_);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto result = RunQuery(**engine, query_, 2, QueryProtocol::kBasic);
  ASSERT_TRUE(result.ok()) << result.status();

  std::multiset<int64_t> got, want;
  for (const auto& r : result->records) got.insert(SquaredDistance(r, query_));
  for (const auto& r : PlainKnn(table_, query_, 2)) {
    want.insert(SquaredDistance(r, query_));
  }
  EXPECT_EQ(got, want);

  std::remove(pk_path.c_str());
  std::remove(sk_path.c_str());
  std::remove(db_path.c_str());
}

TEST_F(EnginePartsTest, RejectsMismatchedKeys) {
  Random rng(27182);
  auto other = GeneratePaillierKeyPair(256, rng).value();
  auto engine = SknnEngine::CreateFromParts(pk_, other.sk, db_, opts_);
  EXPECT_FALSE(engine.ok());
}

TEST_F(EnginePartsTest, RejectsEmptyDatabase) {
  auto engine = SknnEngine::CreateFromParts(pk_, sk_, EncryptedDatabase{},
                                            opts_);
  EXPECT_FALSE(engine.ok());
}

TEST_F(EnginePartsTest, NoFdForTheC2LinkIsAnIoError) {
  // A hot reload builds engines because a client asked for one, so running
  // out of descriptors must fail that build, not abort the server.
  // The error log is off while no fd is free: UBSan's vptr check on the
  // log stream probes memory through a pipe, and reports the stream
  // invalid when it cannot open one.
  const LogLevel log_level = GetLogLevel();
  SetLogLevel(LogLevel::kOff);
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit none = saved;
  none.rlim_cur = 0;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &none), 0);
  auto engine = SknnEngine::CreateFromParts(pk_, sk_, db_, opts_);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);
  SetLogLevel(log_level);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kIoError) << engine.status();
}

TEST_F(EnginePartsTest, PartsAndFreshEngineAgree) {
  auto fresh_opts = opts_;
  fresh_opts.key_bits = 256;
  fresh_opts.attr_bits = 3;
  auto fresh = SknnEngine::Create(table_, fresh_opts);
  auto parts = SknnEngine::CreateFromParts(pk_, sk_, db_, opts_);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(parts.ok());
  auto r1 = RunQuery(**fresh, query_, 2, QueryProtocol::kSecure);
  auto r2 = RunQuery(**parts, query_, 2, QueryProtocol::kSecure);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  std::multiset<int64_t> d1, d2;
  for (const auto& r : r1->records) d1.insert(SquaredDistance(r, query_));
  for (const auto& r : r2->records) d2.insert(SquaredDistance(r, query_));
  EXPECT_EQ(d1, d2);
}

}  // namespace
}  // namespace sknn
