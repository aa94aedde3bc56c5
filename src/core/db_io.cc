#include "core/db_io.h"

#include <cstring>
#include <fstream>
#include <iterator>

#include "net/message.h"

namespace sknn {
namespace {

// One artifact kind: its magic, whose last two characters are the format
// revision, and the words its reader's errors use.
struct Artifact {
  const char* magic;
  const char* reader;
  const char* kind;
};

constexpr Artifact kDatabase = {"SKNNDB01", "ReadEncryptedDatabase",
                                "an sknn database"};
constexpr Artifact kShardManifest = {"SKNNSH01", "ReadShardManifest",
                                     "a shard manifest"};
constexpr Artifact kClusterManifest = {"SKNNCL01", "ReadClusterManifest",
                                       "a cluster manifest"};
constexpr std::size_t kMagicBytes = 8;

// A ciphertext's magnitude is a few hundred bytes; a longer length word is
// malformed.
constexpr std::size_t kMaxCiphertextBytes = 64 * 1024;

Status Malformed(const Artifact& artifact, const std::string& what) {
  return Status::InvalidArgument(std::string(artifact.reader) + ": " + what);
}

// Reads the whole file and checks its magic; on success returns the body
// after it. Three outcomes get distinct messages: ours; the same family at
// another revision (version skew — the artifact must be re-exported, not
// half-parsed); and not ours.
Result<std::vector<uint8_t>> ReadArtifact(const std::string& path,
                                          const Artifact& artifact) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError(std::string(artifact.reader) + ": cannot open " +
                           path);
  }
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  if (bytes.size() >= kMagicBytes &&
      std::memcmp(bytes.data(), artifact.magic, kMagicBytes) == 0) {
    bytes.erase(bytes.begin(), bytes.begin() + kMagicBytes);
    return bytes;
  }
  if (bytes.size() >= kMagicBytes &&
      std::memcmp(bytes.data(), artifact.magic, kMagicBytes - 2) == 0) {
    return Malformed(artifact,
                     path + " is " + artifact.kind +
                         " of an unsupported format revision (this build "
                         "reads " + artifact.magic +
                         "); re-export it with this build's sknn_encrypt");
  }
  return Malformed(artifact,
                   std::string("bad magic (not ") + artifact.kind + ")");
}

// A body is exactly as long as its fields.
Status CheckEnd(const FrameReader& r, const Artifact& artifact) {
  if (!r.ok()) return Malformed(artifact, "truncated file");
  if (r.remaining() != 0) return Malformed(artifact, "trailing bytes");
  return Status::OK();
}

Status WriteArtifact(const std::string& path, const char* writer,
                     const Artifact& artifact,
                     const std::vector<uint8_t>& body) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IoError(std::string(writer) + ": cannot open " + path);
  }
  out.write(artifact.magic, kMagicBytes);
  out.write(reinterpret_cast<const char*>(body.data()),
            static_cast<std::streamsize>(body.size()));
  out.close();
  if (!out) return Status::IoError(std::string(writer) + ": write failure");
  return Status::OK();
}

// Each ciphertext is [len:u32][big-endian magnitude].
void WriteCiphertextRows(FrameWriter& w,
                         const std::vector<std::vector<Ciphertext>>& rows) {
  for (const auto& row : rows) {
    for (const Ciphertext& ct : row) w.Bytes(ct.value().ToBytes());
  }
}

// True when `count` items of at least `item_bytes` each fit in the bytes
// left, so a header count never sizes memory by itself.
bool Fits(const FrameReader& r, uint32_t count, std::size_t item_bytes) {
  return count <= r.remaining() / item_bytes;
}

// The caller has checked that the rows' length words fit (Fits). A
// magnitude must be in the writer's form, with no leading zero byte, so an
// accepted file rewrites to its own bytes. (The empty magnitude is that
// form of 0; no key accepts 0 as a ciphertext, and the loaders' callers
// check every ciphertext against theirs.)
Result<std::vector<std::vector<Ciphertext>>> ReadCiphertextRows(
    FrameReader& r, uint32_t rows, uint32_t m, const Artifact& artifact) {
  std::vector<std::vector<Ciphertext>> out(rows);
  for (auto& row : out) {
    row.reserve(m);
    for (uint32_t j = 0; j < m; ++j) {
      const std::vector<uint8_t> magnitude = r.Bytes(kMaxCiphertextBytes);
      if (!r.ok()) return Malformed(artifact, "truncated file");
      if (!magnitude.empty() && magnitude[0] == 0) {
        return Malformed(artifact,
                         "ciphertext magnitude with a leading zero byte");
      }
      row.emplace_back(BigInt::FromBytes(magnitude));
    }
  }
  return out;
}

}  // namespace

Status WriteEncryptedDatabase(const std::string& path,
                              const EncryptedDatabase& db) {
  if (db.records.empty() || db.records[0].empty()) {
    return Status::InvalidArgument("WriteEncryptedDatabase: empty database");
  }
  for (const auto& row : db.records) {
    if (row.size() != db.num_attributes()) {
      return Status::InvalidArgument("WriteEncryptedDatabase: ragged rows");
    }
  }
  std::vector<uint8_t> body;
  FrameWriter w(body);
  w.U32(static_cast<uint32_t>(db.num_records()))
      .U32(static_cast<uint32_t>(db.num_attributes()))
      .U32(db.distance_bits);
  WriteCiphertextRows(w, db.records);
  return WriteArtifact(path, "WriteEncryptedDatabase", kDatabase, body);
}

Result<EncryptedDatabase> ReadEncryptedDatabase(const std::string& path) {
  SKNN_ASSIGN_OR_RETURN(std::vector<uint8_t> body,
                        ReadArtifact(path, kDatabase));
  FrameReader r(body);
  const uint32_t n = r.U32();
  const uint32_t m = r.U32();
  EncryptedDatabase db;
  db.distance_bits = r.U32();
  if (n == 0 || m == 0 || db.distance_bits == 0) {
    return Malformed(kDatabase, "bad geometry");
  }
  if (!Fits(r, n, 4 * std::size_t{m})) {
    return Malformed(kDatabase, "truncated file");
  }
  SKNN_ASSIGN_OR_RETURN(db.records, ReadCiphertextRows(r, n, m, kDatabase));
  SKNN_RETURN_NOT_OK(CheckEnd(r, kDatabase));
  return db;
}

Status WriteShardManifest(const std::string& path,
                          const ShardManifest& manifest) {
  // Round-trip through the validator so a malformed manifest can never be
  // persisted in the first place.
  SKNN_ASSIGN_OR_RETURN(ShardManifest checked,
                        MakeShardManifest(manifest.total_records,
                                          manifest.num_shards,
                                          manifest.scheme));
  std::vector<uint8_t> body;
  FrameWriter(body)
      .U32(static_cast<uint32_t>(checked.scheme))
      .U32(static_cast<uint32_t>(checked.num_shards))
      .U32(static_cast<uint32_t>(checked.total_records));
  return WriteArtifact(path, "WriteShardManifest", kShardManifest, body);
}

Result<ShardManifest> ReadShardManifest(const std::string& path) {
  SKNN_ASSIGN_OR_RETURN(std::vector<uint8_t> body,
                        ReadArtifact(path, kShardManifest));
  FrameReader r(body);
  const uint32_t scheme = r.U32();
  const uint32_t num_shards = r.U32();
  const uint32_t total_records = r.U32();
  SKNN_RETURN_NOT_OK(CheckEnd(r, kShardManifest));
  if (scheme > static_cast<uint32_t>(ShardScheme::kByCluster)) {
    return Malformed(kShardManifest, "unknown scheme");
  }
  return MakeShardManifest(total_records, num_shards,
                           static_cast<ShardScheme>(scheme));
}

Status ValidateManifestForDatabase(const ShardManifest& manifest,
                                   const EncryptedDatabase& db) {
  if (manifest.total_records != db.num_records()) {
    return Status::InvalidArgument(
        "shard manifest describes " +
        std::to_string(manifest.total_records) +
        " records but the database holds " +
        std::to_string(db.num_records()) +
        " — manifest and database are not from the same export");
  }
  return Status::OK();
}

Status WriteClusterManifest(const std::string& path,
                            const ClusterManifest& manifest) {
  SKNN_RETURN_NOT_OK(ValidateClusterManifestShape(manifest));
  std::vector<uint8_t> body;
  FrameWriter w(body);
  w.U32(manifest.num_clusters)
      .U32(static_cast<uint32_t>(manifest.num_attributes))
      .U32(static_cast<uint32_t>(manifest.total_records));
  for (uint32_t c : manifest.assignment) w.U32(c);
  WriteCiphertextRows(w, manifest.centroids);
  return WriteArtifact(path, "WriteClusterManifest", kClusterManifest, body);
}

Result<ClusterManifest> ReadClusterManifest(const std::string& path) {
  SKNN_ASSIGN_OR_RETURN(std::vector<uint8_t> body,
                        ReadArtifact(path, kClusterManifest));
  FrameReader r(body);
  ClusterManifest manifest;
  manifest.num_clusters = r.U32();
  const uint32_t m = r.U32();
  const uint32_t n = r.U32();
  manifest.num_attributes = m;
  manifest.total_records = n;
  if (manifest.num_clusters == 0 || m == 0 || n == 0) {
    return Malformed(kClusterManifest, "bad geometry");
  }
  if (manifest.num_clusters > n) {
    return Malformed(kClusterManifest, "more clusters than records");
  }
  if (!Fits(r, n, 4)) return Malformed(kClusterManifest, "truncated file");
  manifest.assignment.resize(n);
  for (uint32_t& c : manifest.assignment) c = r.U32();
  if (!Fits(r, manifest.num_clusters, 4 * std::size_t{m})) {
    return Malformed(kClusterManifest, "truncated file");
  }
  SKNN_ASSIGN_OR_RETURN(
      manifest.centroids,
      ReadCiphertextRows(r, manifest.num_clusters, m, kClusterManifest));
  SKNN_RETURN_NOT_OK(CheckEnd(r, kClusterManifest));
  SKNN_RETURN_NOT_OK(ValidateClusterManifestShape(manifest));
  return manifest;
}

Status ValidateCiphertexts(const EncryptedDatabase& db,
                           const PaillierPublicKey& pk) {
  for (std::size_t i = 0; i < db.records.size(); ++i) {
    for (std::size_t j = 0; j < db.records[i].size(); ++j) {
      if (!pk.IsValidCiphertext(db.records[i][j])) {
        return Status::CryptoError(
            "ValidateCiphertexts: invalid ciphertext at record " +
            std::to_string(i) + ", attribute " + std::to_string(j));
      }
    }
  }
  return Status::OK();
}

}  // namespace sknn
