// db_io negative paths: every way a persisted artifact can be wrong —
// truncated or corrupted SKNNDB/SKNNSH/SKNNCL headers, version skew from a
// different format revision, geometry lies, counts larger than the file,
// manifest/database mismatch — must come back as a Status error. No crash,
// no silent partial load, no serving a database that is not what Alice
// exported. Golden bytes pin the three formats; a seeded mutation loop
// runs every loader over a few hundred corrupted copies of each.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "core/data_owner.h"
#include "core/db_io.h"

namespace sknn {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/db_io_" + name;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// One small real database on disk, shared by every case: 3 records x 2
// attributes under a 256-bit key (mutations below copy the bytes; the
// original file stays pristine).
class DbIoNegativeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto alice = DataOwner::Create(256);
    ASSERT_TRUE(alice.ok()) << alice.status();
    auto db = alice->EncryptDatabase({{1, 2}, {3, 4}, {5, 6}},
                                     /*attr_bits=*/3);
    ASSERT_TRUE(db.ok()) << db.status();
    db_path_ = new std::string(TempPath("good.bin"));
    ASSERT_TRUE(WriteEncryptedDatabase(*db_path_, *db).ok());
    db_bytes_ = new std::vector<uint8_t>(ReadFileBytes(*db_path_));
    db_ = new EncryptedDatabase(std::move(db).value());

    auto manifest = MakeShardManifest(/*total_records=*/3, /*num_shards=*/3,
                                      ShardScheme::kRoundRobin);
    ASSERT_TRUE(manifest.ok()) << manifest.status();
    manifest_path_ = new std::string(TempPath("good.manifest"));
    ASSERT_TRUE(WriteShardManifest(*manifest_path_, *manifest).ok());
    manifest_bytes_ = new std::vector<uint8_t>(ReadFileBytes(*manifest_path_));
  }

  // Writes a mutated copy and expects the named loader to reject it with a
  // non-crashing error whose message contains `want_substr`.
  template <typename Loader>
  void ExpectRejected(const std::vector<uint8_t>& bytes, Loader loader,
                      const std::string& want_substr,
                      const std::string& tag) {
    const std::string path = TempPath(tag);
    WriteFileBytes(path, bytes);
    auto loaded = loader(path);
    ASSERT_FALSE(loaded.ok()) << tag << ": load unexpectedly succeeded";
    EXPECT_NE(loaded.status().message().find(want_substr), std::string::npos)
        << tag << ": got '" << loaded.status().ToString() << "'";
  }

  static std::string* db_path_;
  static std::vector<uint8_t>* db_bytes_;
  static EncryptedDatabase* db_;
  static std::string* manifest_path_;
  static std::vector<uint8_t>* manifest_bytes_;
};

std::string* DbIoNegativeTest::db_path_ = nullptr;
std::vector<uint8_t>* DbIoNegativeTest::db_bytes_ = nullptr;
EncryptedDatabase* DbIoNegativeTest::db_ = nullptr;
std::string* DbIoNegativeTest::manifest_path_ = nullptr;
std::vector<uint8_t>* DbIoNegativeTest::manifest_bytes_ = nullptr;

auto LoadDb = [](const std::string& path) {
  return ReadEncryptedDatabase(path);
};
auto LoadManifest = [](const std::string& path) {
  return ReadShardManifest(path);
};

TEST_F(DbIoNegativeTest, GoodArtifactsStillLoad) {
  ASSERT_TRUE(ReadEncryptedDatabase(*db_path_).ok());
  ASSERT_TRUE(ReadShardManifest(*manifest_path_).ok());
}

TEST_F(DbIoNegativeTest, MissingFileIsIoError) {
  auto db = ReadEncryptedDatabase(TempPath("no_such_file"));
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kIoError);
  auto manifest = ReadShardManifest(TempPath("no_such_file"));
  ASSERT_FALSE(manifest.ok());
  EXPECT_EQ(manifest.status().code(), StatusCode::kIoError);
}

TEST_F(DbIoNegativeTest, TruncatedDatabaseHeaderRejected) {
  // Every prefix of the header region: magic fragments and partial
  // geometry words.
  for (std::size_t len : {std::size_t{0}, std::size_t{3}, std::size_t{8},
                          std::size_t{10}, std::size_t{19}}) {
    std::vector<uint8_t> bytes(db_bytes_->begin(),
                               db_bytes_->begin() + static_cast<long>(len));
    const std::string path = TempPath("trunc_hdr_" + std::to_string(len));
    WriteFileBytes(path, bytes);
    auto loaded = ReadEncryptedDatabase(path);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << len << " bytes loaded";
  }
}

TEST_F(DbIoNegativeTest, TruncatedCiphertextBodyRejected) {
  // Cut mid-ciphertext: drop the trailing third of the file.
  std::vector<uint8_t> bytes(*db_bytes_);
  bytes.resize(bytes.size() * 2 / 3);
  ExpectRejected(bytes, LoadDb, "truncated", "trunc_body.bin");
}

TEST_F(DbIoNegativeTest, TrailingGarbageRejected) {
  std::vector<uint8_t> bytes(*db_bytes_);
  bytes.push_back(0x5a);
  ExpectRejected(bytes, LoadDb, "trailing", "trailing.bin");
}

TEST_F(DbIoNegativeTest, ForeignMagicRejected) {
  std::vector<uint8_t> bytes(*db_bytes_);
  bytes[0] = 'X';
  ExpectRejected(bytes, LoadDb, "not an sknn database", "foreign.bin");
}

TEST_F(DbIoNegativeTest, DatabaseVersionSkewRejectedExplicitly) {
  // Same family, different format revision: "SKNNDB02". The error must say
  // version, not "bad magic" — the operator's fix (re-export) differs.
  std::vector<uint8_t> bytes(*db_bytes_);
  bytes[7] = '2';
  ExpectRejected(bytes, LoadDb, "unsupported format revision",
                 "version_skew.bin");
}

TEST_F(DbIoNegativeTest, ZeroGeometryRejected) {
  // n = 0 (bytes 8..11 little-endian).
  std::vector<uint8_t> bytes(*db_bytes_);
  bytes[8] = bytes[9] = bytes[10] = bytes[11] = 0;
  ExpectRejected(bytes, LoadDb, "bad geometry", "zero_n.bin");
}

TEST_F(DbIoNegativeTest, GeometryLyingAboutRecordCountRejected) {
  // Claim 4 records while the body holds 3: the reader must run out of
  // bytes, not fabricate a record.
  std::vector<uint8_t> bytes(*db_bytes_);
  bytes[8] = 4;
  ExpectRejected(bytes, LoadDb, "truncated", "lying_n.bin");
}

TEST_F(DbIoNegativeTest, TruncatedManifestRejected) {
  for (std::size_t len : {std::size_t{0}, std::size_t{5}, std::size_t{8},
                          std::size_t{14}, std::size_t{19}}) {
    std::vector<uint8_t> bytes(manifest_bytes_->begin(),
                               manifest_bytes_->begin() +
                                   static_cast<long>(len));
    const std::string path = TempPath("trunc_man_" + std::to_string(len));
    WriteFileBytes(path, bytes);
    auto loaded = ReadShardManifest(path);
    ASSERT_FALSE(loaded.ok()) << "manifest prefix of " << len << " loaded";
  }
}

TEST_F(DbIoNegativeTest, ManifestVersionSkewRejectedExplicitly) {
  std::vector<uint8_t> bytes(*manifest_bytes_);
  bytes[7] = '9';
  ExpectRejected(bytes, LoadManifest, "unsupported format revision",
                 "manifest_skew.bin");
}

TEST_F(DbIoNegativeTest, ManifestForeignMagicRejected) {
  std::vector<uint8_t> bytes(*manifest_bytes_);
  bytes[2] = 'Z';
  ExpectRejected(bytes, LoadManifest, "not a shard manifest",
                 "manifest_foreign.bin");
}

TEST_F(DbIoNegativeTest, ManifestUnknownSchemeRejected) {
  // scheme (bytes 8..11) = 7: not a ShardScheme.
  std::vector<uint8_t> bytes(*manifest_bytes_);
  bytes[8] = 7;
  ExpectRejected(bytes, LoadManifest, "unknown scheme", "manifest_scheme.bin");
}

TEST_F(DbIoNegativeTest, ManifestImpossiblePartitionRejected) {
  // 3 shards over 0 records: MakeShardManifest's invariant (every shard
  // holds at least one record) must hold for LOADED manifests too.
  std::vector<uint8_t> bytes(*manifest_bytes_);
  bytes[16] = bytes[17] = bytes[18] = bytes[19] = 0;  // total_records = 0
  const std::string path = TempPath("manifest_empty.bin");
  WriteFileBytes(path, bytes);
  auto loaded = ReadShardManifest(path);
  ASSERT_FALSE(loaded.ok());
}

TEST_F(DbIoNegativeTest, ManifestTrailingGarbageRejected) {
  std::vector<uint8_t> bytes(*manifest_bytes_);
  bytes.push_back(0);
  ExpectRejected(bytes, LoadManifest, "trailing", "manifest_trailing.bin");
}

TEST_F(DbIoNegativeTest, ManifestDatabaseMismatchCaughtAtLoad) {
  // A manifest for a 5-record export against the 3-record database: the
  // cross-check every loader runs before serving.
  auto other = MakeShardManifest(/*total_records=*/5, /*num_shards=*/2,
                                 ShardScheme::kContiguous);
  ASSERT_TRUE(other.ok());
  Status mismatch = ValidateManifestForDatabase(*other, *db_);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mismatch.message().find("not from the same export"),
            std::string::npos);

  auto good = ReadShardManifest(*manifest_path_);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(ValidateManifestForDatabase(*good, *db_).ok());
}

// --- Golden bytes -------------------------------------------------------------
// Fixed artifacts built without encryption, so their bytes are fixed too:
// the format of each file is pinned byte for byte.

EncryptedDatabase GoldenDatabase() {
  EncryptedDatabase db;
  db.distance_bits = 7;
  db.records = {{Ciphertext(BigInt(1)), Ciphertext(BigInt(258)),
                 Ciphertext(BigInt(0))},
                {Ciphertext(BigInt(65536)), Ciphertext(BigInt(7)),
                 Ciphertext(BigInt(0xABCDEF))}};
  return db;
}

ShardManifest GoldenShardManifest() {
  return MakeShardManifest(/*total_records=*/5, /*num_shards=*/2,
                           ShardScheme::kRoundRobin)
      .value();
}

ClusterManifest GoldenClusterManifest() {
  ClusterManifest manifest;
  manifest.num_clusters = 2;
  manifest.num_attributes = 2;
  manifest.total_records = 4;
  manifest.assignment = {0, 1, 1, 0};
  manifest.centroids = {{Ciphertext(BigInt(3)), Ciphertext(BigInt(513))},
                        {Ciphertext(BigInt(0x123456)), Ciphertext(BigInt(9))}};
  return manifest;
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  std::string hex;
  for (uint8_t b : bytes) {
    char pair[3];
    std::snprintf(pair, sizeof pair, "%02x", b);
    hex += pair;
  }
  return hex;
}

std::vector<uint8_t> Unhex(const std::string& hex) {
  std::vector<uint8_t> bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

// magic | n=2 m=3 l=7 | six [len][magnitude] ciphertexts (0 is empty).
const char kGoldenDbHex[] =
    "534b4e4e44423031" "02000000" "03000000" "07000000"
    "0100000001" "020000000102" "00000000"
    "03000000010000" "0100000007" "03000000abcdef";
// magic | scheme=roundrobin(1) num_shards=2 total_records=5.
const char kGoldenShardHex[] =
    "534b4e4e53483031" "01000000" "02000000" "05000000";
// magic | clusters=2 m=2 n=4 | assignment 0 1 1 0 | four centroids.
const char kGoldenClusterHex[] =
    "534b4e4e434c3031" "02000000" "02000000" "04000000"
    "00000000" "01000000" "01000000" "00000000"
    "0100000003" "020000000201" "03000000123456" "0100000009";

TEST(DbIoGolden, FormatsAreByteForByteStable) {
  const std::string db_path = TempPath("golden_db.bin");
  ASSERT_TRUE(WriteEncryptedDatabase(db_path, GoldenDatabase()).ok());
  EXPECT_EQ(Hex(ReadFileBytes(db_path)), kGoldenDbHex);
  const std::string shard_path = TempPath("golden_shard.bin");
  ASSERT_TRUE(WriteShardManifest(shard_path, GoldenShardManifest()).ok());
  EXPECT_EQ(Hex(ReadFileBytes(shard_path)), kGoldenShardHex);
  const std::string cluster_path = TempPath("golden_cluster.bin");
  ASSERT_TRUE(
      WriteClusterManifest(cluster_path, GoldenClusterManifest()).ok());
  EXPECT_EQ(Hex(ReadFileBytes(cluster_path)), kGoldenClusterHex);
}

TEST(DbIoGolden, GoldenBytesLoadToTheirValues) {
  const std::string path = TempPath("golden_load.bin");
  WriteFileBytes(path, Unhex(kGoldenDbHex));
  auto db = ReadEncryptedDatabase(path);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db->distance_bits, 7u);
  EXPECT_EQ(db->records, GoldenDatabase().records);

  WriteFileBytes(path, Unhex(kGoldenShardHex));
  auto shard = ReadShardManifest(path);
  ASSERT_TRUE(shard.ok()) << shard.status();
  EXPECT_EQ(shard->scheme, ShardScheme::kRoundRobin);
  EXPECT_EQ(shard->num_shards, 2u);
  EXPECT_EQ(shard->total_records, 5u);

  WriteFileBytes(path, Unhex(kGoldenClusterHex));
  auto cluster = ReadClusterManifest(path);
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  const ClusterManifest want = GoldenClusterManifest();
  EXPECT_EQ(cluster->num_clusters, want.num_clusters);
  EXPECT_EQ(cluster->assignment, want.assignment);
  EXPECT_EQ(cluster->centroids, want.centroids);
}

// --- Hostile headers ----------------------------------------------------------
// A count or length word larger than the file must be refused before
// anything is sized from it.

std::vector<uint8_t> Artifact(const char* magic,
                              std::initializer_list<uint32_t> words) {
  std::vector<uint8_t> bytes(magic, magic + 8);
  for (uint32_t word : words) {
    for (int b = 0; b < 4; ++b) {
      bytes.push_back(static_cast<uint8_t>(word >> (8 * b)));
    }
  }
  return bytes;
}

template <typename Loader>
void ExpectTruncated(const std::vector<uint8_t>& bytes, Loader loader,
                     const std::string& tag) {
  const std::string path = TempPath(tag);
  WriteFileBytes(path, bytes);
  auto loaded = loader(path);
  ASSERT_FALSE(loaded.ok()) << tag;
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << tag;
  EXPECT_NE(loaded.status().message().find("truncated"), std::string::npos)
      << tag << ": " << loaded.status();
}

TEST(DbIoHostileHeader, DatabaseRecordCountBeyondTheFile) {
  // n = 0xFFFFFFFF, m = 1, l = 1 and no body.
  ExpectTruncated(Artifact("SKNNDB01", {0xFFFFFFFFu, 1, 1}), LoadDb,
                  "hostile_db_n.bin");
}

TEST(DbIoHostileHeader, DatabaseCiphertextLengthBeyondTheFile) {
  // One record of one attribute whose length word claims 4 GiB.
  ExpectTruncated(Artifact("SKNNDB01", {1, 1, 1, 0xFFFFFFFFu}), LoadDb,
                  "hostile_db_len.bin");
}

TEST(DbIoHostileHeader, ClusterRecordCountBeyondTheFile) {
  // One cluster, m = 1, n = 0xFFFFFFFF and no assignment.
  ExpectTruncated(Artifact("SKNNCL01", {1, 1, 0xFFFFFFFFu}),
                  [](const std::string& path) {
                    return ReadClusterManifest(path);
                  },
                  "hostile_cl_n.bin");
}

TEST(DbIoCanonical, LeadingZeroMagnitudeIsRefused) {
  // The golden database with its first magnitude [01] written as [00 01]:
  // it would load to the same table and rewrite one byte shorter.
  std::string hex = kGoldenDbHex;
  const std::string first = "0100000001";
  ASSERT_EQ(hex.find(first), 40u);
  hex.replace(40, first.size(), "020000000001");
  const std::string path = TempPath("leading_zero_db.bin");
  WriteFileBytes(path, Unhex(hex));
  auto db = ReadEncryptedDatabase(path);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(db.status().message().find("leading zero byte"),
            std::string::npos)
      << db.status();
  // The same for a cluster centroid.
  std::string cl_hex = kGoldenClusterHex;
  const std::string centroid = "0100000003";
  const std::size_t at = cl_hex.find(centroid);
  ASSERT_NE(at, std::string::npos);
  cl_hex.replace(at, centroid.size(), "020000000003");
  WriteFileBytes(path, Unhex(cl_hex));
  auto clusters = ReadClusterManifest(path);
  ASSERT_FALSE(clusters.ok());
  EXPECT_EQ(clusters.status().code(), StatusCode::kInvalidArgument);
}

TEST(DbIoWrite, RaggedDatabaseLeavesNoFile) {
  const std::string path = TempPath("ragged.bin");
  std::remove(path.c_str());
  EncryptedDatabase ragged = GoldenDatabase();
  ragged.records[1].pop_back();
  Status written = WriteEncryptedDatabase(path, ragged);
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::ifstream(path).good()) << "a file was left at " << path;
}

// --- Seeded mutation loop -----------------------------------------------------
// Each loader gets a few hundred mutants of its golden artifact: bit flips,
// the u32 words 0, 1, 2^31 and 0xFFFFFFFF at each header word and at the
// first length word, truncations and appended bytes. Every load returns a
// value, IoError or InvalidArgument — never a crash, an out-of-bounds read
// (the sanitizer CI leg runs this binary) or an allocation sized by a
// header alone. An accepted mutant rewrites to its own bytes: a file that
// would not (a ciphertext magnitude with a leading zero byte) is refused.

constexpr int kMutantsPerArtifact = 300;

void MutateArtifact(std::vector<uint8_t>& bytes,
                    const std::vector<std::size_t>& word_offsets,
                    std::mt19937& rng) {
  static constexpr uint32_t kWords[] = {0, 1, 0x80000000u, 0xFFFFFFFFu};
  const int rounds = 1 + static_cast<int>(rng() % 2);
  for (int i = 0; i < rounds; ++i) {
    switch (rng() % 4) {
      case 0:
        if (!bytes.empty()) bytes[rng() % bytes.size()] ^= 1u << (rng() % 8);
        break;
      case 1: {
        const std::size_t at = word_offsets[rng() % word_offsets.size()];
        const uint32_t word = kWords[rng() % 4];
        for (std::size_t b = 0; b < 4 && at + b < bytes.size(); ++b) {
          bytes[at + b] = static_cast<uint8_t>(word >> (8 * b));
        }
        break;
      }
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

// Loads `path` and, when the load is accepted, writes the value to
// `rewrite_path`. Returns the load's status.
using LoadAndRewrite =
    std::function<Status(const std::string& path,
                         const std::string& rewrite_path)>;

template <typename T>
LoadAndRewrite Via(Result<T> (*read)(const std::string&),
                   Status (*write)(const std::string&, const T&)) {
  return [read, write](const std::string& path,
                       const std::string& rewrite_path) {
    Result<T> value = read(path);
    if (!value.ok()) return value.status();
    Status written = write(rewrite_path, *value);
    EXPECT_TRUE(written.ok()) << "an accepted value does not rewrite: "
                              << written;
    return written;
  };
}

TEST(DbIoMutation, EveryLoaderReturnsAValueIoErrorOrInvalidArgument) {
  struct Case {
    const char* name;
    std::string golden_hex;
    // Header words, then the first length word (if any).
    std::vector<std::size_t> word_offsets;
    LoadAndRewrite load;
  };
  const std::vector<Case> cases = {
      {"SKNNDB01", kGoldenDbHex, {8, 12, 16, 20},
       Via(ReadEncryptedDatabase, WriteEncryptedDatabase)},
      {"SKNNSH01", kGoldenShardHex, {8, 12, 16},
       Via(ReadShardManifest, WriteShardManifest)},
      // The assignment is 4 words long, so the first centroid's length word
      // is at 20 + 16.
      {"SKNNCL01", kGoldenClusterHex, {8, 12, 16, 36},
       Via(ReadClusterManifest, WriteClusterManifest)},
  };
  std::mt19937 rng(20261019);
  const std::string mutant_path = TempPath("mutant.bin");
  const std::string rewrite_path = TempPath("mutant_rewrite.bin");
  for (const Case& c : cases) {
    const std::vector<uint8_t> golden = Unhex(c.golden_hex);
    int accepted = 0;
    for (int i = 0; i < kMutantsPerArtifact; ++i) {
      std::vector<uint8_t> bytes = golden;
      MutateArtifact(bytes, c.word_offsets, rng);
      WriteFileBytes(mutant_path, bytes);
      Status loaded = c.load(mutant_path, rewrite_path);
      if (!loaded.ok()) {
        EXPECT_TRUE(loaded.code() == StatusCode::kInvalidArgument ||
                    loaded.code() == StatusCode::kIoError)
            << c.name << " mutant " << i << ": " << loaded;
        continue;
      }
      ++accepted;
      EXPECT_EQ(ReadFileBytes(rewrite_path), bytes)
          << c.name << " mutant " << i << " does not rewrite to itself";
    }
    // Some mutants (a flipped bit inside a ciphertext) stay valid.
    EXPECT_GT(accepted, 0) << c.name;
  }
}

}  // namespace
}  // namespace sknn
