#include "core/shard_worker.h"

#include <string>

#include "common/stopwatch.h"
#include "proto/query_meter.h"

namespace sknn {

Result<std::unique_ptr<ShardWorker>> ShardWorker::Create(
    const PaillierPublicKey& pk, const EncryptedDatabase& db,
    const ShardManifest& manifest, std::size_t shard_index, RpcClient* c2,
    ThreadPool* pool) {
  if (manifest.scheme == ShardScheme::kByCluster) {
    return Status::InvalidArgument(
        "ShardWorker: a bycluster manifest does not determine record "
        "placement by itself; pass the cluster manifest (sknn_c1_shard "
        "--clusters)");
  }
  SKNN_ASSIGN_OR_RETURN(
      ShardManifest checked,
      MakeShardManifest(manifest.total_records, manifest.num_shards,
                        manifest.scheme));
  if (shard_index >= checked.num_shards) {
    return Status::InvalidArgument(
        "ShardWorker: shard index " + std::to_string(shard_index) +
        " out of range for " + std::to_string(checked.num_shards) +
        " shards");
  }
  return CreateSliced(pk, db, checked, shard_index,
                      ShardRecordIndices(checked, shard_index), c2, pool);
}

Result<std::unique_ptr<ShardWorker>> ShardWorker::Create(
    const PaillierPublicKey& pk, const EncryptedDatabase& db,
    const ClusterManifest& clusters, std::size_t shard_index, RpcClient* c2,
    ThreadPool* pool) {
  if (Status valid = ValidateClusterManifestForDatabase(clusters, db);
      !valid.ok()) {
    return valid;
  }
  if (shard_index >= clusters.num_clusters) {
    return Status::InvalidArgument(
        "ShardWorker: cluster index " + std::to_string(shard_index) +
        " out of range for " + std::to_string(clusters.num_clusters) +
        " clusters");
  }
  SKNN_ASSIGN_OR_RETURN(
      ShardManifest manifest,
      MakeShardManifest(clusters.total_records, clusters.num_clusters,
                        ShardScheme::kByCluster));
  std::vector<std::size_t> indices = ClusterRecordIndices(
      clusters, static_cast<uint32_t>(shard_index));
  if (indices.empty()) {
    return Status::InvalidArgument(
        "ShardWorker: cluster " + std::to_string(shard_index) +
        " is empty (corrupted or hand-edited cluster manifest?)");
  }
  return CreateSliced(pk, db, manifest, shard_index, std::move(indices), c2,
                      pool);
}

Result<std::unique_ptr<ShardWorker>> ShardWorker::CreateSliced(
    const PaillierPublicKey& pk, const EncryptedDatabase& db,
    const ShardManifest& manifest, std::size_t shard_index,
    std::vector<std::size_t> global_indices, RpcClient* c2,
    ThreadPool* pool) {
  if (db.num_records() != manifest.total_records) {
    return Status::InvalidArgument(
        "ShardWorker: manifest is for " +
        std::to_string(manifest.total_records) + " records, database has " +
        std::to_string(db.num_records()));
  }
  if (c2 == nullptr) {
    return Status::InvalidArgument("ShardWorker: null C2 client");
  }
  auto worker = std::unique_ptr<ShardWorker>(new ShardWorker());
  worker->pk_ = pk;
  worker->slice_.global_indices = std::move(global_indices);
  worker->slice_.db.distance_bits = db.distance_bits;
  worker->slice_.db.records.reserve(worker->slice_.global_indices.size());
  for (std::size_t gidx : worker->slice_.global_indices) {
    worker->slice_.db.records.push_back(db.records[gidx]);
  }
  PackSlice(pk, worker->slice_, pool);
  worker->geometry_.shard = static_cast<uint32_t>(shard_index);
  worker->geometry_.manifest = manifest;
  worker->geometry_.num_attributes =
      static_cast<uint32_t>(db.num_attributes());
  worker->geometry_.distance_bits = db.distance_bits;
  worker->geometry_.shard_records =
      static_cast<uint32_t>(worker->slice_.db.num_records());
  worker->c2_ = c2;
  worker->pool_ = pool;
  return worker;
}

Result<Message> ShardWorker::HandleShardQuery(const Message& request) {
  SKNN_ASSIGN_OR_RETURN(ShardQueryFrame frame, DecodeShardQuery(request));
  if (frame.enc_query.size() != geometry_.num_attributes) {
    return Status::InvalidArgument(
        "shard query has " + std::to_string(frame.enc_query.size()) +
        " attributes, shard database has " +
        std::to_string(geometry_.num_attributes));
  }
  for (const auto& c : frame.enc_query) {
    if (!pk_.IsValidCiphertext(c)) {
      return Status::CryptoError("shard query carries an invalid ciphertext");
    }
  }
  if (frame.k > geometry_.manifest.total_records) {
    return Status::OutOfRange(
        "shard query k = " + std::to_string(frame.k) + " exceeds the " +
        std::to_string(geometry_.manifest.total_records) +
        " database records");
  }

  QueryMeter meter;
  ProtoContext ctx(&pk_, c2_, pool_, frame.query_id, &meter);
  if (frame.deadline_ms > 0) {
    // The coordinator's per-attempt budget: bound every C2 exchange by it
    // so a hung C2 fails this stage as a typed kDeadlineExceeded (which the
    // coordinator may retry on a sibling replica) instead of pinning this
    // worker thread forever.
    ctx.set_deadline(std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(frame.deadline_ms));
  }
  Stopwatch watch;
  Result<ShardCandidates> candidates = [&] {
    ScopedOpSink sink(&meter.ops());
    return RunShardStage(ctx, slice_, geometry_.manifest.total_records,
                         frame.enc_query, frame.k, frame.protocol);
  }();
  SKNN_RETURN_NOT_OK(candidates.status());

  ShardCandidatesFrame out;
  out.candidates = std::move(candidates).value();
  out.seconds = watch.ElapsedSeconds();
  out.traffic = meter.traffic();
  out.ops = meter.ops().snapshot();
  return EncodeShardCandidates(out);
}

Result<Message> ShardWorker::Handle(const Message& request) {
  switch (static_cast<ShardOp>(request.type)) {
    case ShardOp::kShardPing:
      return EncodeShardGeometry(geometry_);
    case ShardOp::kShardQuery:
      return HandleShardQuery(request);
    default:
      return Status::ProtocolError("shard worker: unexpected opcode " +
                                   std::to_string(request.type));
  }
}

}  // namespace sknn
