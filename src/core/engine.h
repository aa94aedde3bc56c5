// SknnEngine — the whole outsourced system in one object, for applications
// and benchmarks: Alice's one-time setup (key generation + database
// encryption + outsourcing), the federated cloud (C1 protocol driver, C2
// key-holder service, the link between them), and Bob's query round trip.
//
// The engine is the in-process simulation of the paper's deployment; every
// inter-party byte still crosses the (accounted) channel, so computation
// and communication measurements match the real topology.
//
// The query surface is request-oriented (core/query_api.h): Query() runs
// one QueryRequest synchronously, Submit() returns a future, and
// QueryBatch() pipelines independent requests — up to c1_threads of them in
// flight — over the shared C1 pool and the correlation-id RPC demux. Each
// in-flight query is isolated end to end by its query id (C2 Bob-outbox
// bucket, traffic meter, op ledger), so concurrent responses are exactly
// what a serial loop would produce.
#ifndef SKNN_CORE_ENGINE_H_
#define SKNN_CORE_ENGINE_H_

#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/clustering.h"
#include "core/query_api.h"
#include "core/query_client.h"
#include "core/shard_coordinator.h"
#include "core/shard_worker.h"
#include "core/sharding.h"
#include "core/sknn_b.h"
#include "core/sknn_m.h"
#include "core/types.h"
#include "net/rpc.h"
#include "proto/c2_service.h"
#include "proto/context.h"

namespace sknn {

class SknnEngine {
 public:
  struct Options {
    /// Paillier modulus size K; the paper evaluates 512 and 1024. Secure
    /// and farthest queries need K >= l + 130 for SBD's short masks and
    /// K >= 2 * (l_aug + 2) for SMIN, with l = distance_bits() and l_aug =
    /// AugmentedBitWidth(l, n); below that they fail InvalidArgument.
    unsigned key_bits = 512;
    /// Attribute domain: values in [0, 2^attr_bits). Determines l.
    unsigned attr_bits = 8;
    /// C1-side worker threads (1 = the paper's serial variant). Also bounds
    /// how many submitted queries execute concurrently.
    std::size_t c1_threads = 1;
    /// C2-side worker threads.
    std::size_t c2_threads = 1;
    /// Simulated one-way latency of the C1 <-> C2 link (default zero =
    /// colocated clouds). Models the WAN between the two cloud providers of
    /// the paper's deployment; round-trip-bound protocols stall on it, which
    /// is exactly the idle time QueryBatch's pipelining reclaims
    /// (bench/bench_batch.cc).
    std::chrono::microseconds c1_c2_latency{0};
    /// Capture every plaintext C2 decrypts (security tests only).
    bool record_c2_views = false;
    /// Per-cloud randomizer pool capacity (r^N values held ready). Both
    /// clouds' encryptions draw from precomputed-randomizer pools
    /// (crypto/paillier.h): the r^N modexp moves off the critical path into
    /// background workers that soak up C1<->C2 round-trip stalls (on C1,
    /// max(1, c1_threads / 2) of them). Bob's client encrypts without one.
    std::size_t randomizer_pool_capacity = 4096;
    /// Refill the randomizer pools via the short-exponent fixed-base path
    /// (r^N = h_N^s for a short random s — docs/CRYPTO.md): refills are an
    /// order of magnitude cheaper than full-width r^N modexps, under the
    /// standard short-exponent indistinguishability assumption. Disable for
    /// the assumption-free full-width reference path; decrypted results are
    /// identical either way, only randomizer distribution economics change.
    bool short_randomizers = true;
    /// Shard the record fan-out: partition Epk(T) into this many in-process
    /// ShardWorkers (the code sknn_c1_shard runs), each served over an
    /// in-process Channel and sharing this engine's C2 client, C1 pool and
    /// key; run each query's distance + local-top-k stages per shard
    /// concurrently, and merge the s*k candidates through the coordinator
    /// (core/shard_coordinator.h). Results are bitwise-identical to the
    /// unsharded execution for every protocol. 1 = unsharded. For shards in
    /// separate worker PROCESSES use CreateWithShardWorkers instead, which
    /// ignores this option.
    std::size_t shards = 1;
    /// How the records are partitioned across shards.
    ShardScheme shard_scheme = ShardScheme::kContiguous;
    /// CreateWithShardWorkers only: "host:port" redial addresses, parallel
    /// to `shard_links`. A replica whose link dies is re-connected by the
    /// coordinator's probe thread at this address (a restarted worker on
    /// the same port is reinstated automatically). Empty = no redial.
    std::vector<std::string> shard_worker_redial_addrs;
    /// CreateWithShardWorkers only: cadence of the coordinator's replica
    /// health probes; zero disables probing (and redial).
    std::chrono::milliseconds shard_probe_interval{500};
    /// Clustered index mode: the k-means manifest built by `sknn_encrypt
    /// --clusters` (core/clustering.h, loaded via db_io). Non-null enables
    /// IndexMode::kClustered requests against this engine; exact requests
    /// are unaffected. With `shards > 1` the in-process partitioning
    /// becomes BY CLUSTER — one shard per cluster, the `shards` count and
    /// `shard_scheme` are ignored — so a pruned cluster's shard never runs
    /// its stage. A CreateWithShardWorkers engine requires the workers to
    /// have been partitioned by this same manifest (sknn_c1_shard
    /// --clusters); construction fails otherwise.
    std::shared_ptr<const ClusterManifest> clusters;
  };

  /// \brief One-time setup: Alice keygens, encrypts `table` and outsources.
  static Result<std::unique_ptr<SknnEngine>> Create(const PlainTable& table,
                                                    const Options& options);

  /// \brief Assembles the system from pre-existing artifacts — a key pair
  /// (e.g. loaded via crypto/serialization) and an already-encrypted
  /// database (e.g. loaded via core/db_io) — skipping Alice's encryption
  /// pass. Options::key_bits/attr_bits are ignored (implied by the parts).
  static Result<std::unique_ptr<SknnEngine>> CreateFromParts(
      const PaillierPublicKey& pk, PaillierSecretKey sk, EncryptedDatabase db,
      const Options& options);

  /// \brief Assembles a C1-only engine: the key holder C2 lives behind
  /// `c2_link` (typically a TCP connection to a standalone sknn_c2_server;
  /// any Endpoint works) instead of in-process. This is the construction
  /// path of the serving deployment (tools/sknn_c1_server): one standing
  /// engine instance holds pk + Epk(T) and drives the protocols over the
  /// link, while thin clients talk to it through serve/QueryService.
  ///
  /// Identical query semantics to the in-process engine — the Bob outbox and
  /// the C2 op ledger are fetched over the wire (kFetchBobOutbox /
  /// kFetchQueryOps) instead of by direct call, and both fetches are tagged
  /// with the query id, so many front ends may share one C2. The query-id
  /// space is seeded randomly per engine to keep concurrent front ends
  /// disjoint. Options that configure the in-process C2 (c2_threads,
  /// record_c2_views, c1_c2_latency) are ignored: the remote server owns its
  /// own parallelism and the WAN is real. Fails fast (ping) if the link is
  /// dead.
  static Result<std::unique_ptr<SknnEngine>> CreateWithRemoteC2(
      const PaillierPublicKey& pk, EncryptedDatabase db,
      std::unique_ptr<Endpoint> c2_link, const Options& options);

  /// \brief Assembles the sharded front end of the scaled-out deployment:
  /// every shard of Epk(T) is hosted by a sknn_c1_shard worker process
  /// behind one of `shard_links`, and C2 is behind `c2_link` (the workers
  /// hold their own C2 connections). The coordinator learns the database
  /// geometry from the workers at connect time, so this engine never loads
  /// Epk(T) itself; `database()` is empty. Queries behave exactly like any
  /// other engine's — bitwise-identical records, per-shard stats in
  /// QueryResponse::shards — and a worker dying mid-query surfaces as
  /// StatusCode::kUnavailable. Options::shards/shard_scheme are ignored
  /// (the workers' manifest wins).
  static Result<std::unique_ptr<SknnEngine>> CreateWithShardWorkers(
      const PaillierPublicKey& pk,
      std::vector<std::unique_ptr<Endpoint>> shard_links,
      std::unique_ptr<Endpoint> c2_link, const Options& options);

  ~SknnEngine();

  /// \brief Runs one request synchronously on the calling thread — the one
  /// blocking entry point everything else is built on.
  Result<QueryResponse> Query(const QueryRequest& request);

  /// \brief Enqueues a request on the engine's scheduler; the future
  /// resolves when the query completes. Up to Options::c1_threads submitted
  /// queries run concurrently, pipelined over the shared C1 pool and the
  /// correlation-id RPC demux.
  std::future<Result<QueryResponse>> Submit(QueryRequest request);

  /// \brief Submits every request and waits for all of them; results are in
  /// request order. Independent queries overlap, so with c1_threads > 1 a
  /// batch finishes well ahead of the equivalent serial loop
  /// (bench/bench_batch.cc measures the gap).
  std::vector<Result<QueryResponse>> QueryBatch(
      std::vector<QueryRequest> requests);

  /// \brief The up-front request validation Query/Submit/QueryBatch apply
  /// — and the serving front end applies at ADMISSION, before any crypto
  /// work: k in [1, k_max] (k_max = n; oversized k is kInvalidArgument),
  /// matching dimension, attributes in [0, 2^attr_bits), and clustered
  /// requests only against a table that has a cluster manifest.
  Status ValidateRequest(const QueryRequest& request) const;

  /// \brief Everything a serving control plane reports about this engine in
  /// one copyable value: the database geometry, the attribute domain, the
  /// admissible-k bound, and the shard topology. This is what a front end's
  /// kTableInfo frame (net/query_wire.h) carries per table.
  struct Info {
    std::size_t num_records = 0;
    std::size_t num_attributes = 0;
    unsigned attr_bits = 0;
    unsigned distance_bits = 0;
    /// Largest k ValidateRequest admits (= num_records).
    unsigned k_max = 0;
    /// 1 = unsharded execution.
    std::size_t num_shards = 1;
    /// Meaningful when num_shards > 1.
    ShardScheme shard_scheme = ShardScheme::kContiguous;
    /// True when the shards are sknn_c1_shard worker processes
    /// (CreateWithShardWorkers) rather than in-process workers.
    bool remote_shard_workers = false;
    /// Clusters of the table's k-means index; 0 = no cluster index (the
    /// table only serves IndexMode::kExact).
    uint32_t num_clusters = 0;
  };
  Info info() const;

  const PaillierPublicKey& public_key() const { return pk_; }
  /// \brief Epk(T) as hosted by this process — EMPTY for sharded engines:
  /// a CreateWithShardWorkers engine's records live in the workers, and an
  /// in-process shard set (Options::shards > 1) holds them in its in-process
  /// workers' slices instead.
  const EncryptedDatabase& database() const { return table_.db; }
  std::size_t num_records() const { return num_records_; }
  std::size_t num_attributes() const { return num_attributes_; }
  unsigned distance_bits() const { return distance_bits_; }
  /// \brief Attribute domain bound: valid values are [0, 2^attr_bits()).
  unsigned attr_bits() const { return attr_bits_; }
  /// \brief Non-null when queries execute sharded (Options::shards > 1 or
  /// CreateWithShardWorkers).
  const ShardCoordinator* shard_coordinator() const {
    return coordinator_.get();
  }

  /// \brief C2 instrumentation hooks (security tests). Only valid for an
  /// engine whose C2 runs in-process (Create / CreateFromParts).
  C2Service& c2_service() { return *c2_; }

  /// \brief Both clouds' randomizer-pool effectiveness counters, merged for
  /// the serving control plane (kServiceStats) and sknn_admin --stats.
  /// c2_capacity = 0 means C2 runs without a pool. C1's numbers come from
  /// the local pool; C2's are fetched over the link (kFetchPoolStats)
  /// for a remote C2 and read directly otherwise. Best-effort: a failed
  /// remote fetch reports zeros, never an error.
  struct RandomizerPoolStats {
    uint64_t c1_hits = 0;
    uint64_t c1_misses = 0;
    uint64_t c1_stock = 0;
    uint64_t c1_capacity = 0;
    uint64_t c2_hits = 0;
    uint64_t c2_misses = 0;
    uint64_t c2_stock = 0;
    uint64_t c2_capacity = 0;
  };
  RandomizerPoolStats randomizer_pool_stats();

  /// \brief The load-time SSED packing (proto/ssed.h) of the records and
  /// centroids this process hosts, in-process shard workers included.
  /// records = 0 when an SSED group is one slot (nothing to pack).
  struct PackStats {
    std::size_t records = 0;
    std::size_t groups_per_record = 0;
    double seconds = 0;
  };
  const PackStats& pack_stats() const { return pack_stats_; }

 private:
  SknnEngine() = default;

  struct QueryJob {
    QueryRequest request;
    std::promise<Result<QueryResponse>> promise;
  };

  /// \brief The request-driven execution path shared by Query and the
  /// scheduler: validate, assign a query id, run the protocol with
  /// per-query instrumentation, and recover Bob's records.
  Result<QueryResponse> ExecuteQuery(const QueryRequest& request);
  /// \brief C1's side of one query. A pruned clustered request first
  /// chooses its clusters. A sharded engine then hands the query to the
  /// coordinator (only the chosen clusters' shards run); an unsharded one
  /// runs RunShardStage over table_, or over the chosen clusters' records
  /// gathered into one slice, and masks the winners for Bob.
  Result<CloudQueryOutput> Dispatch(ProtoContext& ctx,
                                    const QueryRequest& request,
                                    const std::vector<Ciphertext>& enc_query,
                                    QueryResponse* response);
  /// \brief The clustered index's pruning round: one secure
  /// centroid-scoring round ranks every cluster, then the greedy pick keeps
  /// at least probe_clusters of them and enough to hold k records.
  Result<std::vector<uint32_t>> ChooseClusters(
      ProtoContext& ctx, const QueryRequest& request,
      const std::vector<Ciphertext>& enc_query);
  void SchedulerLoop();

  /// \brief The construction tail shared by every factory: geometry and
  /// attribute domain, C1 pool, Bob's client, the C1-side randomizer pool
  /// (plus the in-process C2's pools when one exists), the in-process
  /// shard set when Options::shards > 1, and the SSED packs.
  Status InitCommon();
  /// \brief The in-process shard set: one ShardWorker per shard (per
  /// cluster under a cluster index), each behind an RpcServer on a
  /// Channel::CreatePair() link, reached by the same coordinator code as
  /// sknn_c1_shard processes. The workers run on client_, c1_pool_ and pk_,
  /// so the shard set opens no C2 link and starts no randomizer pool of its
  /// own.
  Status ServeShardsInProcess();
  /// \brief One query's Bob-bound records — direct call for the in-process
  /// C2, a tagged kFetchBobOutbox exchange (metered through `ctx`) for a
  /// remote one.
  Result<std::vector<BigInt>> TakeC2Outbox(ProtoContext& ctx,
                                           uint64_t query_id);
  /// \brief One query's C2-side Paillier ledger entry; zeros, and one
  /// warning in the log, if the remote fetch fails (instrumentation is
  /// best-effort, results are not).
  OpSnapshot TakeC2QueryOps(ProtoContext& ctx, uint64_t query_id);
  /// \brief The tail of both factories whose C2 sits behind a link shared
  /// with other front ends: draws a random non-zero query-id base and
  /// pings C2, so a dead or mismatched link fails here, not on the first
  /// query. `factory` names the caller in the error.
  Status JoinSharedC2(const char* factory);

  Options options_;
  unsigned attr_bits_ = 0;
  PaillierPublicKey pk_;
  /// Epk(T) as the single shard an unsharded engine's queries run over
  /// (identity global indices). Empty for sharded engines: the workers
  /// hold the records.
  ShardSlice table_;
  /// Database geometry — mirrors table_ normally; reported by the shard
  /// workers for a CreateWithShardWorkers engine (whose table_ is empty).
  std::size_t num_records_ = 0;
  std::size_t num_attributes_ = 0;
  unsigned distance_bits_ = 0;
  /// Set by CreateWithShardWorkers: the shards are worker processes.
  bool remote_shard_workers_ = false;
  /// Clustered index state (null/empty without Options::clusters).
  std::shared_ptr<const ClusterManifest> clusters_;
  std::vector<uint32_t> cluster_sizes_;
  /// The centroids' SSED packs for the pruning round (empty: one slot).
  std::vector<std::vector<Ciphertext>> centroid_packs_;
  PackStats pack_stats_;
  std::unique_ptr<C2Service> c2_;
  Channel* channel_ = nullptr;  // owned by the endpoints inside client/server
  std::unique_ptr<RpcServer> server_;
  std::unique_ptr<RpcClient> client_;
  std::unique_ptr<ThreadPool> c1_pool_;
  /// C1's precomputed-randomizer stock, referenced by pk_ (C2's equivalent
  /// lives inside C2Service). Declared after everything that encrypts
  /// through pk_ so it is destroyed first only once queries have drained.
  std::unique_ptr<RandomizerPool> c1_rand_pool_;
  std::unique_ptr<QueryClient> bob_;
  /// The in-process shard set (empty otherwise), then the coordinator.
  /// Declared after client_, c1_pool_ and c1_rand_pool_, which the workers
  /// run on, so the coordinator closes the links first, the servers drain,
  /// and the workers go before the objects they use.
  std::vector<std::unique_ptr<ShardWorker>> shard_workers_;
  std::vector<std::unique_ptr<RpcServer>> shard_servers_;
  std::unique_ptr<ShardCoordinator> coordinator_;

  std::atomic<uint64_t> next_query_id_{1};

  // Request scheduler: dedicated dispatcher threads (one per allowed
  // in-flight query, spawned lazily on the first Submit) drive the
  // protocol; all heavy homomorphic work inside a query still fans out
  // over the shared c1_pool_.
  Mutex sched_mutex_;
  CondVar sched_cv_;
  std::deque<QueryJob> sched_queue_ GUARDED_BY(sched_mutex_);
  std::vector<std::thread> sched_threads_ GUARDED_BY(sched_mutex_);
  bool sched_stop_ GUARDED_BY(sched_mutex_) = false;
};

}  // namespace sknn

#endif  // SKNN_CORE_ENGINE_H_
