// Encrypted-database persistence: the artifact Alice actually ships to C1,
// and the two sidecars that travel with it.
//
// Each file is an 8-byte magic followed by one body written by FrameWriter
// and read back by FrameReader (net/message.h), so the files follow the
// frame layer's encoding rules (docs/API.md "Encoding rules"). A ciphertext
// field is Bytes: [len:u32][big-endian magnitude], at most 64 KiB long and
// with no leading zero byte, so an accepted file rewrites to its own bytes.
//
//   SKNNDB01  U32 n, U32 m, U32 l (distance bits),
//             n*m ciphertexts, row by row
//   SKNNSH01  U32 scheme, U32 num_shards, U32 total_records
//             (a shard manifest, core/sharding.h)
//   SKNNCL01  U32 num_clusters, U32 m, U32 n, n x U32 assignment,
//             num_clusters*m centroid ciphertexts, row by row
//             (a cluster manifest, core/clustering.h)
//
// A reader reads the whole file, then parses it. Every count is bounded by
// the file's size before anything is sized from it: n*m length words (or
// n assignment words) that could not fit in the bytes left make the file
// "truncated", so a hostile header cannot make a loader allocate. A file is
// exactly as long as its fields. Writers validate first and only then
// create the file, so a refused value leaves nothing at the path.
//
// Version skew is its own failure mode: a file whose magic says "sknn
// artifact, different format revision" (e.g. a future SKNNDB02) is
// rejected with an explicit unsupported-revision error, distinct from
// "not an sknn artifact at all". A missing file is IoError; a malformed one
// is InvalidArgument.
//
// Loading validates structure only. ValidateCiphertexts checks that every
// record is a valid element of Z*_{N^2} under a given public key, so a
// corrupted or foreign-key database fails fast instead of producing garbage
// query results; the engine checks a cluster manifest's centroids the same
// way. A shard manifest is persisted alongside the database in a sharded
// deployment so coordinator and workers provably agree on the partitioning.
#ifndef SKNN_CORE_DB_IO_H_
#define SKNN_CORE_DB_IO_H_

#include <string>

#include "core/clustering.h"
#include "core/sharding.h"
#include "core/types.h"
#include "crypto/paillier.h"

namespace sknn {

Status WriteEncryptedDatabase(const std::string& path,
                              const EncryptedDatabase& db);

Result<EncryptedDatabase> ReadEncryptedDatabase(const std::string& path);

/// \brief Checks every ciphertext against `pk` (in [0, N^2), unit mod N).
Status ValidateCiphertexts(const EncryptedDatabase& db,
                           const PaillierPublicKey& pk);

Status WriteShardManifest(const std::string& path,
                          const ShardManifest& manifest);

/// \brief Reads and re-validates a manifest (MakeShardManifest rules).
Result<ShardManifest> ReadShardManifest(const std::string& path);

/// \brief A manifest only describes ONE database: the record counts must
/// agree, or the partitioning silently misassigns every record. Checked at
/// load time by every process that holds both artifacts (sknn_c1_shard,
/// sknn_c1_server --table ...,manifest=...).
Status ValidateManifestForDatabase(const ShardManifest& manifest,
                                   const EncryptedDatabase& db);

/// \brief Persists a cluster manifest (ValidateClusterManifestShape first,
/// so a malformed manifest can never reach disk).
Status WriteClusterManifest(const std::string& path,
                            const ClusterManifest& manifest);

/// \brief Reads an SKNNCL01 cluster manifest; geometry and assignment range
/// are re-validated, version skew and foreign files get distinct errors.
Result<ClusterManifest> ReadClusterManifest(const std::string& path);

}  // namespace sknn

#endif  // SKNN_CORE_DB_IO_H_
