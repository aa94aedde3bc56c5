// ShardWorker — one shard's stage, served over the shard wire.
//
// One worker hosts one slice of Epk(T), cut from the full database along
// the shard manifest and SSED-packed once on load, and answers the
// coordinator's frames (net/shard_wire.h). The stage itself is
// RunShardStage (core/sharding.h), the same C1 stage an engine without a
// coordinator runs over its whole table:
//
//   kShardPing  -> its geometry (shard index, manifest, db shape), so a
//                  misassembled worker set is rejected at connect time;
//   kShardQuery -> the distance + local-top-k stage over its slice, run
//                  with the query id the coordinator assigned (C2 keeps ONE
//                  per-query ledger entry across coordinator and workers),
//                  answered with min(k, slice size) candidates plus the
//                  stage's wall time, C2 traffic and C1-side Paillier ops.
//
// A worker-side failure is the handler's Status, which the RPC layer
// carries to the coordinator code included (net/rpc.h). A worker that does
// not answer, or whose own C2 link is dead, is kUnavailable there, and the
// coordinator fails over. The class is transport-agnostic:
// tools/sknn_c1_shard serves it over TCP RpcServers and is the only
// program that builds workers (scripts/lint.sh gate 1l); tests serve it
// over TCP or a socketpair (Channel::CreatePair). A front end reaches
// workers only through SknnEngine::CreateWithShardWorkers.
//
// The owner supplies the C2 client, the C1 pool and the key (which may
// carry a randomizer pool), and must keep them alive until the worker and
// every RpcServer dispatching into it are gone.
#ifndef SKNN_CORE_SHARD_WORKER_H_
#define SKNN_CORE_SHARD_WORKER_H_

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/clustering.h"
#include "core/sharding.h"
#include "net/rpc.h"
#include "net/shard_wire.h"

namespace sknn {

class ShardWorker {
 public:
  /// \brief Cuts shard `shard_index` of `manifest` out of the full
  /// database and packs it for SSED; the packing and the stages fan their
  /// local work out over `pool` (nullptr = serial), and stages run against
  /// C2 through `c2`. The full Epk(T) may be released once this returns.
  /// Rejects ShardScheme::kByCluster manifests — their record placement is
  /// data-dependent; use the ClusterManifest overload.
  static Result<std::unique_ptr<ShardWorker>> Create(
      const PaillierPublicKey& pk, const EncryptedDatabase& db,
      const ShardManifest& manifest, std::size_t shard_index, RpcClient* c2,
      ThreadPool* pool);

  /// \brief Cluster-partitioned worker (sknn_c1_shard --clusters): hosts
  /// the records of cluster `shard_index` under a ShardScheme::kByCluster
  /// manifest with one shard per cluster, so a clustered front end can
  /// prune whole workers out of a query's fan-out.
  static Result<std::unique_ptr<ShardWorker>> Create(
      const PaillierPublicKey& pk, const EncryptedDatabase& db,
      const ClusterManifest& clusters, std::size_t shard_index, RpcClient* c2,
      ThreadPool* pool);

  /// \brief RPC dispatch entry point (plug into an RpcServer); thread-safe
  /// — concurrent queries run with independent meters over the shared C2
  /// client. A refused frame (undecodable, wrong geometry, invalid
  /// ciphertext, oversized k, unknown opcode) or a failed stage is the
  /// returned Status.
  Result<Message> Handle(const Message& request);

  const ShardGeometry& geometry() const { return geometry_; }
  std::size_t shard_records() const { return slice_.db.num_records(); }

 private:
  ShardWorker() = default;

  /// Shared tail of both Create overloads: `global_indices` names the
  /// records this worker hosts, in ascending global order.
  static Result<std::unique_ptr<ShardWorker>> CreateSliced(
      const PaillierPublicKey& pk, const EncryptedDatabase& db,
      const ShardManifest& manifest, std::size_t shard_index,
      std::vector<std::size_t> global_indices, RpcClient* c2,
      ThreadPool* pool);

  Result<Message> HandleShardQuery(const Message& request);

  PaillierPublicKey pk_;
  ShardSlice slice_;
  ShardGeometry geometry_;
  RpcClient* c2_ = nullptr;
  ThreadPool* pool_ = nullptr;
};

}  // namespace sknn

#endif  // SKNN_CORE_SHARD_WORKER_H_
