#include "core/sharding.h"

#include <algorithm>
#include <string>

#include "core/data_owner.h"
#include "proto/ssed.h"

namespace sknn {

const char* ShardSchemeName(ShardScheme scheme) {
  switch (scheme) {
    case ShardScheme::kContiguous:
      return "contiguous";
    case ShardScheme::kRoundRobin:
      return "roundrobin";
    case ShardScheme::kByCluster:
      return "bycluster";
  }
  return "unknown";
}

Result<ShardScheme> ParseShardScheme(const std::string& name) {
  if (name == "contiguous") return ShardScheme::kContiguous;
  if (name == "roundrobin") return ShardScheme::kRoundRobin;
  if (name == "bycluster") return ShardScheme::kByCluster;
  return Status::NotFound("unknown shard scheme '" + name +
                          "' (want contiguous, roundrobin, or bycluster)");
}

Result<ShardManifest> MakeShardManifest(std::size_t total_records,
                                        std::size_t num_shards,
                                        ShardScheme scheme) {
  if (total_records == 0) {
    return Status::InvalidArgument("ShardManifest: empty database");
  }
  if (num_shards == 0 || num_shards > total_records) {
    return Status::InvalidArgument(
        "ShardManifest: num_shards must be in [1, total_records]; got " +
        std::to_string(num_shards) + " shards for " +
        std::to_string(total_records) + " records");
  }
  if (scheme != ShardScheme::kContiguous &&
      scheme != ShardScheme::kRoundRobin &&
      scheme != ShardScheme::kByCluster) {
    return Status::InvalidArgument("ShardManifest: unknown scheme");
  }
  ShardManifest manifest;
  manifest.scheme = scheme;
  manifest.num_shards = num_shards;
  manifest.total_records = total_records;
  return manifest;
}

std::vector<std::size_t> ShardRecordIndices(const ShardManifest& manifest,
                                            std::size_t shard) {
  std::vector<std::size_t> indices;
  const std::size_t n = manifest.total_records;
  const std::size_t s = manifest.num_shards;
  if (shard >= s || n == 0) return indices;
  // kByCluster indices are data-dependent (they live in the cluster
  // assignment); pure geometry cannot produce them.
  if (manifest.scheme == ShardScheme::kByCluster) return indices;
  if (manifest.scheme == ShardScheme::kRoundRobin) {
    for (std::size_t i = shard; i < n; i += s) indices.push_back(i);
    return indices;
  }
  // Contiguous: the first (n % s) shards hold ceil(n/s), the rest floor.
  const std::size_t base = n / s, extra = n % s;
  const std::size_t begin =
      shard * base + std::min<std::size_t>(shard, extra);
  const std::size_t size = base + (shard < extra ? 1 : 0);
  indices.reserve(size);
  for (std::size_t i = begin; i < begin + size; ++i) indices.push_back(i);
  return indices;
}

void PackSlice(const PaillierPublicKey& pk, ShardSlice& slice,
               ThreadPool* pool) {
  slice.packs = PackSsedRecords(
      pk, slice.db.records,
      DataOwner::ImpliedAttrBits(slice.db.num_attributes(),
                                 slice.db.distance_bits),
      pool);
}

Result<ShardCandidates> RunShardStage(ProtoContext& ctx,
                                      const ShardSlice& slice,
                                      std::size_t total_records,
                                      const std::vector<Ciphertext>& enc_query,
                                      unsigned k, QueryProtocol protocol,
                                      SkNNmBreakdown* breakdown) {
  const std::size_t shard_n = slice.db.num_records();
  if (shard_n == 0 || slice.global_indices.size() != shard_n) {
    return Status::InvalidArgument("RunShardStage: malformed shard slice");
  }
  if (enc_query.size() != slice.db.num_attributes()) {
    return Status::InvalidArgument("RunShardStage: query dimension mismatch");
  }
  if (k == 0) {
    return Status::InvalidArgument("RunShardStage: k must be at least 1");
  }
  // A shard smaller than k contributes everything it has; the coordinator's
  // merge pool still holds at least k candidates overall.
  const unsigned local_k =
      static_cast<unsigned>(std::min<std::size_t>(k, shard_n));
  const unsigned attr_bits = DataOwner::ImpliedAttrBits(
      slice.db.num_attributes(), slice.db.distance_bits);

  ShardCandidates out;
  if (protocol == QueryProtocol::kBasic) {
    SKNN_ASSIGN_OR_RETURN(
        std::vector<Ciphertext> dist,
        SecureSquaredDistanceBatch(ctx, slice.db.records, enc_query,
                                   attr_bits, &slice.packs));
    // Ties resolve to the lower position, and positions within a slice are
    // in ascending global-index order (every scheme, and a clustered
    // query's gathered candidates) — so the local list is exactly the
    // global order restricted to this slice.
    SKNN_ASSIGN_OR_RETURN(std::vector<uint32_t> local,
                          SecureTopKIndices(ctx, dist, local_k));
    for (uint32_t idx : local) {
      out.distances.push_back(dist[idx]);
      out.records.push_back(slice.db.records[idx]);
      out.global_indices.push_back(
          static_cast<uint32_t>(slice.global_indices[idx]));
    }
    return out;
  }

  SKNN_ASSIGN_OR_RETURN(
      std::vector<EncryptedBits> bits,
      PrepareDistanceBits(ctx, slice.db.records, enc_query,
                          slice.db.distance_bits, &slice.global_indices,
                          total_records,
                          protocol == QueryProtocol::kFarthest, breakdown,
                          &slice.packs));
  SKNN_ASSIGN_OR_RETURN(
      TopKExtraction top,
      ExtractTopK(ctx, slice.db.records, bits, local_k, attr_bits,
                  /*keep_winner_bits=*/true, breakdown));
  out.bits = std::move(top.winner_bits);
  out.records = std::move(top.records);
  return out;
}

}  // namespace sknn
