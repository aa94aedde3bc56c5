// ShardWorker — the C1 shard worker service behind tools/sknn_c1_shard.
//
// One worker hosts one slice of Epk(T) (cut from the full database along
// the shard manifest), keeps its own link to the C2 key holder, and answers
// the coordinator's frames (net/shard_wire.h):
//
//   kShardPing  -> its geometry (shard index, manifest, db shape), so a
//                  misassembled worker set is rejected at connect time;
//   kShardQuery -> the distance + local-top-k stage over its slice, run
//                  with the query id the coordinator assigned (C2 keeps ONE
//                  per-query ledger entry across coordinator and workers),
//                  answered with min(k, slice size) candidates plus the
//                  stage's wall time, C2 traffic and C1-side Paillier ops.
//
// Worker-side failures are answered as kShardError frames carrying a real
// Status — only a dead worker (no answer at all) becomes kUnavailable at
// the coordinator. The class is transport-agnostic: the tool serves it over
// TCP RpcServers, tests over in-memory channels.
#ifndef SKNN_SERVE_SHARD_WORKER_H_
#define SKNN_SERVE_SHARD_WORKER_H_

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
  struct Options {
    /// Worker threads for this shard's local homomorphic fan-out.
    std::size_t threads = 1;
    bool verify_sbd = true;
    /// Precomputed-randomizer pool for this worker's encryptions.
    bool randomizer_pool = true;
    std::size_t randomizer_pool_capacity = 4096;
  };

  /// \brief Cuts shard `shard_index` of `manifest` out of the full
  /// database and connects the stage driver to C2 via `c2_link` (fails
  /// fast if the link is dead). The full Epk(T) is released after slicing.
  /// Rejects ShardScheme::kByCluster manifests — their record placement is
  /// data-dependent; use the ClusterManifest overload.
  static Result<std::unique_ptr<ShardWorker>> Create(
      const PaillierPublicKey& pk, const EncryptedDatabase& db,
      const ShardManifest& manifest, std::size_t shard_index,
      std::unique_ptr<Endpoint> c2_link, const Options& options);

  /// \brief Cluster-partitioned worker (sknn_c1_shard --clusters): hosts the
  /// records of cluster `shard_index` under a ShardScheme::kByCluster
  /// manifest with one shard per cluster, so a clustered front end can
  /// prune whole workers out of a query's fan-out.
  static Result<std::unique_ptr<ShardWorker>> Create(
      const PaillierPublicKey& pk, const EncryptedDatabase& db,
      const ClusterManifest& clusters, std::size_t shard_index,
      std::unique_ptr<Endpoint> c2_link, const Options& options);

  /// \brief RPC dispatch entry point (plug into an RpcServer); thread-safe
  /// — concurrent queries run with independent meters over the shared C2
  /// client.
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
      std::vector<std::size_t> global_indices,
      std::unique_ptr<Endpoint> c2_link, const Options& options);

  Message HandleShardQuery(const Message& request);

  Options options_;
  PaillierPublicKey pk_;
  ShardSlice slice_;
  ShardGeometry geometry_;
  std::unique_ptr<RpcClient> c2_client_;
  std::unique_ptr<ThreadPool> pool_;
  /// Declared after pk_ users; destroyed first once queries drained.
  std::unique_ptr<RandomizerPool> rand_pool_;
};

}  // namespace sknn

#endif  // SKNN_SERVE_SHARD_WORKER_H_
