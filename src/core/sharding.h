// Sharding the record fan-out: how Epk(T) is partitioned across C1 shard
// workers, and what one shard computes per query. That shard stage is C1's
// steps 2-3 of every query: an engine without a coordinator runs it over
// its whole table as one shard, or over a clustered query's surviving
// candidates, and then masks its k winners for Bob.
//
// SkNN_m admits sharding naturally: each shard runs the distance stage
// (SSED + SBD + tie-break augmentation, with GLOBAL record indices) and
// k' = min(k, shard size) local extraction iterations, handing the
// coordinator its winners' encrypted records plus their augmented distance
// bit vectors. Because the augmented values are pairwise distinct across
// the WHOLE database (core/sknn_m.h), the union of local top-k lists
// contains the global top-k, and merging them through the same SMIN-based
// extraction yields records bitwise-identical to the unsharded protocol —
// for any shard count and either partitioning scheme. SkNN_b shards the
// same way with C2's plaintext top-k round per shard.
//
// A ShardManifest is the small, shareable description of the partitioning;
// every worker and the coordinator must agree on it (db_io persists it next
// to the encrypted database).
#ifndef SKNN_CORE_SHARDING_H_
#define SKNN_CORE_SHARDING_H_

#include <cstdint>
#include <vector>

#include "core/query_api.h"
#include "core/sknn_m.h"
#include "core/types.h"
#include "proto/context.h"

namespace sknn {

enum class ShardScheme : uint32_t {
  /// Shard j holds the records [j * ceil-ish block, next block): blocks of
  /// size n/s, the first n % s shards one record larger.
  kContiguous = 0,
  /// Shard j holds the records { i : i % s == j }.
  kRoundRobin = 1,
  /// Shard j holds the records of CLUSTER j of a cluster manifest
  /// (core/clustering.h). The clustered index mode uses this so pruning a
  /// cluster prunes its worker. Unlike the other schemes the index lists
  /// are NOT derivable from the manifest's pure geometry — they come from
  /// the cluster assignment; use ClusterRecordIndices, not
  /// ShardRecordIndices.
  kByCluster = 2,
};

const char* ShardSchemeName(ShardScheme scheme);
/// \brief Inverse of ShardSchemeName ("contiguous" / "roundrobin" /
/// "bycluster"); kNotFound for anything else.
Result<ShardScheme> ParseShardScheme(const std::string& name);

/// \brief The partitioning contract between the coordinator and its shard
/// workers: which of the `total_records` global record indices each of the
/// `num_shards` shards holds. Pure geometry — derive index lists with
/// ShardRecordIndices.
struct ShardManifest {
  ShardScheme scheme = ShardScheme::kContiguous;
  std::size_t num_shards = 1;
  std::size_t total_records = 0;

  bool operator==(const ShardManifest&) const = default;
};

/// \brief Validates and builds a manifest: 1 <= num_shards <= total_records
/// (every shard must hold at least one record).
Result<ShardManifest> MakeShardManifest(std::size_t total_records,
                                        std::size_t num_shards,
                                        ShardScheme scheme);

/// \brief The global record indices of `shard` (ascending). Empty for
/// kByCluster — that scheme's indices live in the cluster assignment, not
/// the geometry (see ClusterRecordIndices in core/clustering.h).
std::vector<std::size_t> ShardRecordIndices(const ShardManifest& manifest,
                                            std::size_t shard);

/// \brief One shard's share of the encrypted database plus the global
/// indices of its rows (slice.db.records[i] == full.records[indices[i]]),
/// and the rows' SSED packs, made once when the slice is loaded
/// (PackSlice).
struct ShardSlice {
  EncryptedDatabase db;
  std::vector<std::size_t> global_indices;
  /// PackSsedRecords(db.records) for the table's attribute domain; empty
  /// when an SSED group is one slot.
  std::vector<std::vector<Ciphertext>> packs;
};

/// \brief Fills `slice.packs` on `pool` (serial when null).
void PackSlice(const PaillierPublicKey& pk, ShardSlice& slice,
               ThreadPool* pool);

/// \brief What one shard returns for one query: min(k, shard size) local
/// candidates. For kSecure/kFarthest each candidate is (augmented distance
/// bits, encrypted record) — the access pattern stays hidden, the
/// coordinator re-compares the bits obliviously. For kBasic each candidate
/// is (Epk(d), encrypted record, global index) — the basic protocol reveals
/// the access pattern to C1/C2 by design, and the plaintext index is what
/// lets the merge keep the global lower-index tie-break exact.
struct ShardCandidates {
  std::vector<EncryptedBits> bits;
  std::vector<std::vector<Ciphertext>> records;
  std::vector<Ciphertext> distances;
  std::vector<uint32_t> global_indices;

  std::size_t count() const { return records.size(); }
};

/// \brief Runs the distance + local-top-k stages of `protocol` over one
/// shard — the C1 stage of every query: a ShardWorker
/// (core/shard_worker.h) runs it per kShardQuery, and an engine without a
/// coordinator runs it over its whole table, or over a clustered query's
/// gathered candidates, as a single shard. `total_records` is the FULL
/// database size (it sizes the tie-break index field identically on every
/// shard). All C1<->C2 exchanges ride `ctx` — its query id, meter and
/// deadline apply as for any query. `breakdown`, if non-null, accumulates
/// the SkNN_m phase timings (kSecure/kFarthest only).
Result<ShardCandidates> RunShardStage(ProtoContext& ctx,
                                      const ShardSlice& slice,
                                      std::size_t total_records,
                                      const std::vector<Ciphertext>& enc_query,
                                      unsigned k, QueryProtocol protocol,
                                      SkNNmBreakdown* breakdown = nullptr);

}  // namespace sknn

#endif  // SKNN_CORE_SHARDING_H_
