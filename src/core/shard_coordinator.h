// ShardCoordinator — fans one query out to all shards and merges their
// candidates into the global answer.
//
// One shard placement: every shard is served by one or MORE ShardWorkers
// (core/shard_worker.h, the replicas) reached over the RPC stack
// (net/shard_wire.h). The workers are sknn_c1_shard processes behind TCP
// links (SknnEngine::CreateWithShardWorkers), or, in tests, workers served
// over in-process socketpairs; the coordinator cannot
// tell the two apart. A shard stage that gets no answer (kUnavailable: the
// worker is gone, or its own C2 link is), times out (kDeadlineExceeded), or
// whose candidates fail the Z*_{N^2} range check, retries on the next
// healthy replica WITHIN the same query (any other code is the live
// worker's typed answer, and the query fails with it). Because the
// deterministic tie-break makes every answer a pure function of (table,
// query, k), failover is invisible in the results. Only when every replica
// of a shard fails does the query surface an error: kUnavailable (or
// kDeadlineExceeded, if the per-query deadline ran out first, or
// kProtocolError, if the last replica answered out-of-range candidates).
// Per-replica health is tracked by a background ping-probe thread:
// consecutive failures eject a replica from the preferred rotation, a
// successful probe (after an automatic redial, when the worker's address
// is known) reinstates it.
//
// The merge is the same machinery as the unsharded protocol, restricted to
// the s*k candidates: for kSecure/kFarthest, k iterations of ExtractTopK
// over the candidates' augmented bit vectors (every candidate embeds its
// global index, so the total order — and therefore the result — is
// bitwise-identical to the unsharded SknnEngine::Query); for kBasic, one
// more plaintext top-k round at C2 over the candidate distances, ordered by
// global index so the lower-index tie-break stays exact. The coordinator
// finishes with the usual masked hand-off to Bob.
#ifndef SKNN_CORE_SHARD_COORDINATOR_H_
#define SKNN_CORE_SHARD_COORDINATOR_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/query_api.h"
#include "core/sharding.h"
#include "crypto/paillier.h"
#include "net/rpc.h"
#include "net/shard_wire.h"

namespace sknn {

class ShardCoordinator {
 public:
  /// \brief Per-run instrumentation, merged into QueryResponse by the
  /// engine.
  struct RunStats {
    std::vector<ShardQueryStats> shards;
    double merge_seconds = 0;
  };

  /// \brief Replication knobs. Defaults reproduce sensible production
  /// behavior; tests shrink the probe interval or turn probing off.
  struct Options {
    /// Per-link redial addresses ("host:port"), parallel to `worker_links`;
    /// empty vector or empty entries disable redial for those links. A
    /// replica with a redial address is automatically re-connected by the
    /// probe thread after its link dies (e.g. the worker was kill -9'd and
    /// restarted on the same port).
    std::vector<std::string> redial_addrs;
    /// Health-probe cadence. Zero disables the probe thread (ejection then
    /// only happens on query-path failures, reinstatement on query-path
    /// successes).
    std::chrono::milliseconds probe_interval{500};
  };

  /// \brief One replica's health, as reported by ReplicaStatuses() (and,
  /// over the wire, by the kHealth control-plane frame).
  struct ReplicaStatus {
    uint32_t shard = 0;
    uint32_t replica = 0;
    bool healthy = true;
    uint32_t consecutive_failures = 0;
    /// Times a query failed over AWAY from this replica.
    uint64_t failovers = 0;
    /// Seconds since this replica last answered anything (probe or query);
    /// negative = never.
    double last_ok_age_seconds = -1;
  };

  /// \brief Pings every link, validates that the workers agree on one
  /// manifest and that every shard {0..s-1} is covered by at least one
  /// worker (in any connection order), and groups the RPC clients by their
  /// REPORTED shard — several workers for one shard are replicas. The
  /// database geometry (total records, attributes, distance bits) is learned
  /// from the workers — the coordinator never needs Epk(T). `pk` is the
  /// table's key, against which every returned candidate is range-checked.
  /// (No `= {}` default for `options`: GCC cannot evaluate a nested
  /// aggregate's member initializers in a default argument of the
  /// enclosing class.)
  static Result<std::unique_ptr<ShardCoordinator>> Create(
      const PaillierPublicKey& pk,
      std::vector<std::unique_ptr<Endpoint>> worker_links, Options options);

  ~ShardCoordinator();

  /// \brief One query: fan out, collect the candidates, merge, mask-and-
  /// ship to Bob. The merge exchanges ride `ctx`'s meter; the shard stages
  /// run under `ctx`'s query id and deadline. `breakdown`
  /// receives the merge's sminn/extract/update phases.
  ///
  /// `active_shards` restricts the fan-out (clustered pruning): only the
  /// named shards run their stage — the others never see the query and
  /// report `pruned = 1` in their stats entry. nullptr = all shards. The
  /// caller must guarantee the surviving shards hold at least k records.
  Result<CloudQueryOutput> Run(ProtoContext& ctx, const QueryRequest& request,
                               const std::vector<Ciphertext>& enc_query,
                               SkNNmBreakdown* breakdown, RunStats* stats,
                               const std::vector<uint32_t>* active_shards =
                                   nullptr);

  const ShardManifest& manifest() const { return manifest_; }
  /// \brief Replicas serving shard `shard` (0 for an out-of-range shard).
  std::size_t replicas(std::size_t shard) const {
    return shard < groups_.size() ? groups_[shard].replicas.size() : 0;
  }
  /// \brief Live health snapshot of every replica of every shard.
  std::vector<ReplicaStatus> ReplicaStatuses() const;
  /// \brief Database geometry, as the workers reported it at connect.
  std::size_t num_attributes() const { return num_attributes_; }
  unsigned distance_bits() const { return distance_bits_; }
  /// \brief Records shard `shard` holds, as its workers reported at
  /// connect. 0 for an out-of-range shard.
  uint32_t shard_records(std::size_t shard) const {
    return shard < shard_records_.size() ? shard_records_[shard] : 0;
  }

 private:
  /// One worker serving one shard. The client is swappable
  /// (under the mutex) so the probe thread can redial a dead worker without
  /// disturbing callers, who take a shared_ptr copy per call.
  struct Replica {
    mutable Mutex mutex;
    std::shared_ptr<RpcClient> client GUARDED_BY(mutex);
    std::string redial_addr;  // immutable after construction; "" = no redial
    std::atomic<bool> healthy{true};
    std::atomic<uint32_t> consecutive_failures{0};
    std::atomic<uint64_t> failovers{0};
    /// steady_clock nanoseconds of the last successful answer; 0 = never.
    std::atomic<int64_t> last_ok_ns{0};

    std::shared_ptr<RpcClient> GetClient() const {
      MutexLock lock(&mutex);
      return client;
    }
    void MarkOk() {
      consecutive_failures.store(0, std::memory_order_relaxed);
      healthy.store(true, std::memory_order_relaxed);
      last_ok_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count(),
                       std::memory_order_relaxed);
    }
    /// Two consecutive failures (query or probe) eject a replica from the
    /// preferred rotation. Ejected replicas are still tried as a last
    /// resort when every healthy replica of the shard has failed.
    void MarkFailed() {
      const uint32_t failures =
          consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
      if (failures >= 2) {
        healthy.store(false, std::memory_order_relaxed);
      }
    }
  };

  /// All replicas of one shard. `preferred` rotates to the last replica
  /// that answered, so steady state sends every stage to a known-good
  /// worker first.
  struct ReplicaGroup {
    std::vector<std::unique_ptr<Replica>> replicas;
    std::atomic<std::size_t> preferred{0};
  };

  ShardCoordinator() = default;

  Result<ShardCandidates> RunShard(ProtoContext& ctx, std::size_t shard,
                                   const QueryRequest& request,
                                   const std::vector<Ciphertext>& enc_query,
                                   ShardQueryStats* stats);
  Result<CloudQueryOutput> MergeSecure(
      ProtoContext& ctx, std::vector<ShardCandidates> candidates, unsigned k,
      SkNNmBreakdown* breakdown);
  Result<CloudQueryOutput> MergeBasic(ProtoContext& ctx,
                                      std::vector<ShardCandidates> candidates,
                                      unsigned k);
  void ProbeLoop();
  void ProbeReplica(Replica& replica);

  PaillierPublicKey pk_;
  ShardManifest manifest_;
  std::size_t num_attributes_ = 0;
  unsigned distance_bits_ = 0;
  /// Record count per shard (clustered shards are unequal).
  std::vector<uint32_t> shard_records_;
  /// One replica group per shard, indexed by shard.
  std::vector<ReplicaGroup> groups_;
  Options options_;
  /// Background health probe (probe_interval > 0).
  mutable Mutex probe_mutex_;
  bool probe_stop_ GUARDED_BY(probe_mutex_) = false;
  CondVar probe_cv_;
  std::thread probe_thread_;
};

}  // namespace sknn

#endif  // SKNN_CORE_SHARD_COORDINATOR_H_
