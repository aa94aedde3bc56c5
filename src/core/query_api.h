// The request/response vocabulary of the serveable engine.
//
// The paper's deployment serves many Bobs against one outsourced database;
// this header is the shape of that traffic. A QueryRequest names everything
// one round trip needs — the record, k, which protocol, and which
// measurements to collect — and a QueryResponse carries the records Bob
// reconstructs plus the per-query instrumentation the evaluation section
// reports. SknnEngine::Query runs one request on the calling thread, and
// concurrent callers or one QueryBatch pipeline independent requests over
// the C1 thread pool and the correlation-id RPC demux (each in-flight query
// is isolated by its query id end to end: Bob outbox, traffic meter,
// operation ledger).
#ifndef SKNN_CORE_QUERY_API_H_
#define SKNN_CORE_QUERY_API_H_

#include <string>
#include <vector>

#include "core/types.h"

namespace sknn {

/// \brief Which protocol a request runs.
enum class QueryProtocol {
  /// SkNN_b (Algorithm 5): efficient baseline; C2 learns distances and both
  /// clouds learn the data access pattern.
  kBasic,
  /// SkNN_m (Algorithm 6): fully secure k nearest neighbors.
  kSecure,
  /// SkNN_m machinery on complemented distances: fully secure k FARTHEST
  /// neighbors (outlier detection building block).
  kFarthest,
};

const char* QueryProtocolName(QueryProtocol protocol);

/// \brief Which index a request consults (orthogonal to QueryProtocol).
enum class IndexMode : uint32_t {
  /// Scan every record — the paper-exact protocols, and the differential
  /// oracle for the clustered mode.
  kExact = 0,
  /// Learned k-means index: one secure centroid-scoring round prunes to the
  /// closest probe_clusters clusters, then the exact machinery runs over
  /// the surviving candidates only. Approximate — the recall knob is
  /// QueryRequest::probe_clusters. Requires the table to have been built
  /// with a cluster manifest; rejected with kInvalidArgument otherwise.
  kClustered = 1,
};

/// \brief One Bob query, self-describing. Validated up front by the engine:
/// k must be in [1, n], the record's dimension must match the database, and
/// every attribute must lie in [0, 2^attr_bits).
struct QueryRequest {
  /// The plaintext query record Q (encrypted attribute-wise by Bob's
  /// QueryClient before anything reaches the clouds).
  PlainRecord record;
  /// Number of neighbors requested.
  unsigned k = 1;
  QueryProtocol protocol = QueryProtocol::kSecure;
  /// Collect the per-phase SkNN_m wall-clock split (Section 5.2). Ignored by
  /// the basic protocol, which has no phases to split.
  bool want_breakdown = true;
  /// Collect exact per-query Paillier operation counts across both clouds
  /// (Section 4.4 accounting).
  bool want_op_counts = true;
  /// Which table of a multi-table serving front end this query targets
  /// (serve/table_registry.h). Empty = the sole table, which is both the
  /// in-process engine's shape (an engine IS one table; it ignores this
  /// field) and the pre-multi-table client shape. A front end serving
  /// several tables rejects the empty name with kInvalidArgument and an
  /// unknown name with kNotFound. Kept after the established aggregate
  /// initialization order {record, k, protocol, ...} so it stays valid.
  std::string table;
  /// Per-query deadline in milliseconds, 0 = none. The serving stack bounds
  /// every blocking wait (C2 exchanges, shard-worker RPCs) by the time
  /// remaining and fails the query with kDeadlineExceeded once it runs out —
  /// a hung worker costs the deadline, never a stall. Appended after `table`
  /// for the same aggregate-initialization reason.
  uint32_t deadline_ms = 0;
  /// Which index to consult (aggregate-init: appended after deadline_ms).
  IndexMode index_mode = IndexMode::kExact;
  /// Clustered mode's recall knob: how many nearest clusters survive the
  /// pruning round. Clamped to [1, num_clusters]; probing every cluster is
  /// bitwise-identical to exact mode. More clusters are probed than asked
  /// for when the first probe_clusters clusters hold fewer than k records.
  /// Ignored in exact mode.
  uint32_t probe_clusters = 1;
  /// Bypass the serving front end's result cache for this request: the query
  /// executes the full protocol even when an identical response is cached
  /// (the hit is neither served nor refreshed). The response is still
  /// eligible to be inserted. In-process engines have no cache and ignore
  /// this. Appended after probe_clusters (aggregate-init order).
  bool no_cache = false;
};

/// \brief One shard's share of a sharded query (core/shard_coordinator.h):
/// the distance + local-top-k stage it executed on its slice of Epk(T).
struct ShardQueryStats {
  /// Shard index within the manifest.
  uint32_t shard = 0;
  /// Candidates this shard contributed to the merge (min(k, shard size)).
  uint32_t candidates = 0;
  /// Wall time of the shard stage as the coordinator observed it.
  double seconds = 0;
  /// The shard's own C1<->C2 traffic during its stage.
  TrafficStats traffic;
  /// C1-side Paillier operations of the shard stage (a remote worker
  /// reports its own; already included in QueryResponse::ops).
  OpSnapshot ops;
  /// Which replica of the shard answered (remote mode; 0 when unreplicated
  /// or local).
  uint32_t replica = 0;
  /// Replica attempts that failed before this shard's stage succeeded —
  /// nonzero means the query transparently failed over.
  uint32_t failovers = 0;
  /// 1 when the clustered pruning round skipped this shard entirely (it
  /// never saw the query); its candidates/seconds/traffic/ops are all zero.
  uint32_t pruned = 0;
  /// Records this shard holds — with `candidates` and `pruned`, the numbers
  /// behind the "per-query work proportional to the candidate set" claim.
  uint32_t shard_records = 0;
};

/// \brief Everything Bob ends up with after one request, plus the
/// measurements the evaluation section reports. All instrumentation is
/// per-query exact even when many requests run concurrently.
struct QueryResponse {
  /// The k records, in protocol order (nearest first; farthest first for
  /// QueryProtocol::kFarthest), exactly as Bob reconstructs them.
  PlainTable records;

  /// Bob-side cost: encrypting Q plus final unmasking — the paper's
  /// "4 ms / 17 ms" end-user numbers.
  double bob_seconds = 0;
  /// Cloud-side cost: everything between Epk(Q) arriving at C1 and the
  /// masked result leaving for Bob.
  double cloud_seconds = 0;
  /// This query's C1<->C2 communication (exact, counted per exchange).
  TrafficStats traffic;
  /// This query's Paillier operations across C1 and C2 (populated when
  /// QueryRequest::want_op_counts).
  OpSnapshot ops;
  /// Phase breakdown (populated for kSecure/kFarthest when
  /// QueryRequest::want_breakdown). Under sharded execution the ssed/sbd
  /// phases happen inside the shards; the merge's sminn/extract/update and
  /// the finalize phase are the coordinator's.
  SkNNmBreakdown breakdown;
  /// Per-shard stage instrumentation (empty for unsharded execution). The
  /// shard stages' traffic and ops are already folded into `traffic` and
  /// `ops` above; this is the split.
  std::vector<ShardQueryStats> shards;
  /// Wall time of the coordinator's global candidate merge (sharded only).
  double merge_seconds = 0;
  /// True when a serving front end answered this query from its result
  /// cache (serve/qos/result_cache.h) instead of running the protocol.
  /// Always false from an in-process engine.
  bool cache_hit = false;
  /// True when `ops` was asked for but C2's share could not be fetched
  /// (a failed kFetchQueryOps exchange): `ops` then holds C1's share only.
  bool c2_ops_missing = false;
};

}  // namespace sknn

#endif  // SKNN_CORE_QUERY_API_H_
