// Front-end wire contract: the versioned client <-> C1 serving protocol.
//
// The serving topology (docs/DEPLOY.md) splits Bob from C1: a thin client
// connects to the standing C1 query front end (serve/query_service.h),
// NEGOTIATES the contract with one kHello/kHelloAck exchange — the
// protocol revision, so a client from the wrong era gets a typed
// kQueryError instead of silent garbage — and then sends kQuery frames,
// each naming the TABLE it targets (the front end may host many independent
// encrypted tables behind one port; empty = the sole table, the pre-
// multi-table client shape). Answers are kQueryResult frames carrying the
// records plus the full instrumentation payload, or kQueryError frames
// carrying a real Status — code and message — so callers can distinguish
// "retry later" (ResourceExhausted backpressure, Unavailable) from "fix
// your request" (InvalidArgument/OutOfRange/NotFound).
//
// Alongside the data path rides a small control plane: kListTables (what is
// served), kTableInfo (one table's geometry and shard topology), and
// kServiceStats (per-table admission counters, in-flight, uptime) — the
// same frames sknn_admin prints and every later scaling PR (per-table
// caching, replication, resharding) introspects.
//
// Frames ride the existing Message/WireCodec/Endpoint stack, so the client
// <-> front-end link reuses RpcClient/RpcServer unchanged (correlation-id
// demux, length-prefixed framing) over TCP or an in-process socketpair. The
// FrontendOp opcode space is disjoint from the C1<->C2 Op space: a frame
// from the wrong link is rejected, never misinterpreted.
//
// Each codec is its frame's field list over net/message.h's FrameWriter
// and FrameReader: the decoder reads the fields in the order the encoder
// writes them, every count is bounded by the bytes left, and a frame with
// bytes left over is refused: each frame has one layout per revision, with
// no optional fields.
//
// The full frame catalog, encoding rules, negotiation rules and
// version-compatibility policy are specified in docs/API.md.
#ifndef SKNN_NET_QUERY_WIRE_H_
#define SKNN_NET_QUERY_WIRE_H_

#include <string>
#include <vector>

#include "core/query_api.h"
#include "net/message.h"

namespace sknn {

/// \brief Revision of the client-facing wire contract this build speaks.
/// A server accepts exactly this revision; every layout change bumps it.
/// The revision history is in docs/API.md ("Version policy").
constexpr uint32_t kProtocolRevision = 7;

enum class FrontendOp : uint16_t {
  /// One Bob query. aux = [k:u32][protocol:u32][flags:u32][m:u32][m x i64]
  /// [table_len:u32][table bytes][deadline_ms:u32][index_mode:u32]
  /// [probe_clusters:u32], flags bit 0 = want_breakdown, bit 1 =
  /// want_op_counts, bit 2 = no_cache (bypass the server's result cache);
  /// attributes as two's-complement little-endian u64 (requests are
  /// validated server-side, so out-of-domain values must survive the wire
  /// intact to be rejected with a proper Status). The empty table name
  /// means the sole table. deadline_ms is the query's end-to-end budget in
  /// milliseconds, 0 = unbounded; index_mode 0 = exact, 1 = clustered
  /// approximate search probing the probe_clusters nearest clusters.
  kQuery = 0x0101,
  /// Success. aux = [rows:u32][cols:u32][rows*cols x i64]
  /// [bob_seconds:f64][cloud_seconds:f64][traffic:4 x u64][ops:5 x u64]
  /// [breakdown:6 x f64][merge_seconds:f64][num_shards:u32] then per shard
  /// [shard:u32][candidates:u32][replica:u32][failovers:u32][pruned:u32]
  /// [shard_records:u32][seconds:f64][traffic:4 x u64][ops:5 x u64]
  /// (num_shards = 0 for unsharded execution) then [flags:u32], f64 as
  /// IEEE-754 bit patterns in u64 and ops as FrameWriter::Ops writes them.
  /// replica/failovers: which replica served the shard and how many replica
  /// attempts failed first; pruned/shard_records: whether the clustered
  /// probe round skipped the shard, and how many records it holds. flags
  /// bit 0 = cache_hit (answered from the result cache), bit 1 =
  /// c2_ops_missing (C2's op counts could not be fetched, so `ops` holds
  /// C1's share only).
  kQueryResult = 0x0102,
  /// Failure. aux = [status code:u32][message bytes].
  kQueryError = 0x0103,

  // -- Session handshake (revision 2) --

  /// Client -> server, first frame of every session.
  /// aux = [revision:u32][reserved:u32] — the same 8-byte shape as
  /// kHelloAck; the second word is 0 in this direction.
  kHello = 0x0110,
  /// Server -> client on an accepted hello.
  /// aux = [revision:u32][num_tables:u32].
  kHelloAck = 0x0111,

  // -- Control plane (revision 2) --

  /// Client -> server: enumerate served tables. aux empty.
  kListTables = 0x0112,
  /// Server -> client. aux = [count:u32] then per table
  /// [name_len:u32][name bytes].
  kTableList = 0x0113,
  /// Client -> server: one table's metadata.
  /// aux = [name_len:u32][name bytes] (empty name = sole table).
  kTableInfo = 0x0114,
  /// Server -> client. aux = [name_len:u32][name bytes][n:u64][m:u32]
  /// [attr_bits:u32][k_max:u32][distance_bits:u32][num_shards:u32]
  /// [scheme:u32][remote_workers:u32][num_clusters:u32] (the last word is
  /// revision 5: 0 = exact-only table, otherwise the clustered index's
  /// cluster count — the admissible probe_clusters range is [1, that]).
  kTableInfoResult = 0x0115,
  /// Client -> server: service-wide counters. aux empty.
  kServiceStats = 0x0116,
  /// Server -> client. aux = [uptime_seconds:f64][connections:u64]
  /// [in_flight:u64][num_tables:u32] then per table
  /// [name_len:u32][name bytes][completed:u64][failed:u64][rejected:u64]
  /// [in_flight:u64] followed (revision 4) by the table engine's
  /// randomizer-pool counters, C1 then C2:
  /// [c1_hits:u64][c1_misses:u64][c1_stock:u64][c1_capacity:u64]
  /// [c2_hits:u64][c2_misses:u64][c2_stock:u64][c2_capacity:u64]
  /// (capacity 0 = that cloud runs without a pool), followed (revision 6)
  /// by the table's admission weight/share and result-cache counters:
  /// [weight:u32][share_limit:u32][cache_hits:u64][cache_misses:u64]
  /// [cache_evictions:u64][cache_entries:u64][cache_bytes:u64].
  /// Revision 6 then appends a per-API-key section after the table blocks:
  /// [auth_enabled:u32][num_keys:u32] then per key [id_len:u32][id bytes]
  /// [completed:u64][denied:u64][quota_rejected:u64][quota:u64]
  /// [remaining:u64][weight:u32] (num_keys = 0 when auth is off).
  kServiceStatsResult = 0x0117,

  // -- Replica health and hot reload (revision 3) --

  /// Client -> server: per-replica shard-worker liveness. aux empty.
  kHealth = 0x0118,
  /// Server -> client. aux = [num_tables:u32] then per table
  /// [name_len:u32][name bytes][num_replicas:u32] then per replica
  /// [shard:u32][replica:u32][healthy:u32][consecutive_failures:u32]
  /// [failovers:u64][last_ok_age_seconds:f64]. Tables without remote shard
  /// replicas report num_replicas = 0.
  kHealthResult = 0x0119,
  /// Client -> server: rebuild one table's engine and swap it in under live
  /// traffic. aux = [name_len:u32][name bytes][spec_len:u32][spec bytes];
  /// an empty spec reuses the spec the table was registered with. Answered
  /// with kAdminAck or kQueryError.
  kReloadTable = 0x011A,
  /// Client -> server: stop serving one table (in-flight queries finish on
  /// the old engine). aux = [name_len:u32][name bytes]. Answered with
  /// kAdminAck or kQueryError.
  kDetachTable = 0x011B,
  /// Server -> client: a reload or detach succeeded.
  /// aux = [name_len:u32][name bytes].
  kAdminAck = 0x011C,
  /// Server -> client, UNSOLICITED (correlation id 0 — see RpcServer::Push):
  /// a table this session may be querying changed under it.
  /// aux = [name_len:u32][name bytes][kind:u32], kind 0 = reloaded,
  /// 1 = detached.
  kTableChanged = 0x011D,

  // -- API-key authentication (revision 6) --

  /// Client -> server, after the hello: present an API key for this
  /// session. aux = [key_len:u32][key bytes] (the raw key; the server
  /// stores only SHA-256 digests of its keys). Answered with kAuthAck on
  /// success or kQueryError(PermissionDenied) on an unknown/revoked key.
  /// Against a server running WITHOUT an API-key registry the frame is
  /// acked too (auth is then a no-op), so clients can always present
  /// their key. Only kQuery is gated: the control plane stays open so
  /// operators can introspect a misconfigured deployment.
  kAuthenticate = 0x011E,
  /// Server -> client: the key was accepted.
  /// aux = [key_id_len:u32][key id bytes] — the key's registered id (its
  /// stats name in kServiceStatsResult), never the key itself.
  kAuthAck = 0x011F,
};

inline uint16_t FrontendOpCode(FrontendOp op) {
  return static_cast<uint16_t>(op);
}

/// \brief What a kHello/kHelloAck exchange carries (client -> server: the
/// revision the client speaks; server -> client: the same, plus how many
/// tables it serves). Both decoders read the revision word first and refuse
/// any revision but kProtocolRevision with FailedPrecondition, before the
/// rest of the frame: another revision's layout is not this one's.
struct HelloInfo {
  uint32_t revision = kProtocolRevision;
  /// Only meaningful in the ack direction.
  uint32_t num_tables = 0;
};

/// \brief One table's metadata as kTableInfoResult reports it.
struct TableInfoReply {
  std::string name;
  uint64_t num_records = 0;
  uint32_t num_attributes = 0;
  /// Attribute domain: valid query values are [0, 2^attr_bits).
  uint32_t attr_bits = 0;
  /// Largest admissible k (= num_records).
  uint32_t k_max = 0;
  uint32_t distance_bits = 0;
  /// 1 = unsharded.
  uint32_t num_shards = 1;
  /// ShardScheme as u32 (meaningful when num_shards > 1).
  uint32_t shard_scheme = 0;
  /// True when the shards live in sknn_c1_shard worker processes.
  bool remote_workers = false;
  /// Clustered-index geometry: 0 = exact-only table, otherwise the number
  /// of clusters (= the admissible probe_clusters upper bound).
  uint32_t num_clusters = 0;
};

/// \brief One table's admission counters inside kServiceStatsResult.
/// Revision 4 widened the entry with the randomizer-pool effectiveness
/// counters of both clouds (SknnEngine::RandomizerPoolStats): hits = takes
/// served from precomputed stock, misses = inline full modexps, stock =
/// randomizers ready right now, capacity = pool size (0 = no pool).
struct TableStatsEntry {
  std::string name;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;
  uint64_t in_flight = 0;
  uint64_t c1_pool_hits = 0;
  uint64_t c1_pool_misses = 0;
  uint64_t c1_pool_stock = 0;
  uint64_t c1_pool_capacity = 0;
  uint64_t c2_pool_hits = 0;
  uint64_t c2_pool_misses = 0;
  uint64_t c2_pool_stock = 0;
  uint64_t c2_pool_capacity = 0;
  /// Revision 6: the table's weighted-fair-admission weight and the
  /// in-flight share that weight currently buys it (serve/qos/
  /// fair_admission.h), plus its result-cache effectiveness counters
  /// (serve/qos/result_cache.h; all five zero for a table serving with
  /// the cache disabled).
  uint32_t weight = 1;
  uint32_t share_limit = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_entries = 0;
  uint64_t cache_bytes = 0;
};

/// \brief One API key's serving counters inside kServiceStatsResult
/// (revision 6). `id` is the key's registered name — the key itself never
/// crosses the wire in this direction.
struct ApiKeyStatsEntry {
  std::string id;
  /// Queries this key completed.
  uint64_t completed = 0;
  /// Query frames denied because the session's key did not cover them.
  uint64_t denied = 0;
  /// Queries rejected because the key's quota bucket was empty.
  uint64_t quota_rejected = 0;
  /// The key's configured quota (queries per refill window; 0 = unlimited).
  uint64_t quota = 0;
  /// Tokens left in the quota bucket right now (quota = 0 reports 0).
  uint64_t remaining = 0;
  /// The key's admission weight (multiplies its fair share).
  uint32_t weight = 1;
};

/// \brief Service-wide counters as kServiceStatsResult reports them.
struct ServiceStatsReply {
  double uptime_seconds = 0;
  uint64_t connections_accepted = 0;
  uint64_t in_flight = 0;
  std::vector<TableStatsEntry> tables;
  /// Revision 6: whether the server gates kQuery behind kAuthenticate, and
  /// the per-key counters when it does (empty otherwise).
  bool auth_enabled = false;
  std::vector<ApiKeyStatsEntry> keys;
};

/// \brief One shard replica's liveness inside kHealthResult (mirrors
/// ShardCoordinator::ReplicaStatus).
struct ReplicaHealthEntry {
  uint32_t shard = 0;
  uint32_t replica = 0;
  bool healthy = true;
  uint32_t consecutive_failures = 0;
  uint64_t failovers = 0;
  /// Seconds since the replica last answered; negative = never.
  double last_ok_age_seconds = -1;
};

/// \brief One table's replica set inside kHealthResult. Empty `replicas`
/// = the table runs without remote shard workers (local or unsharded).
struct TableHealthEntry {
  std::string name;
  std::vector<ReplicaHealthEntry> replicas;
};

/// \brief Everything kHealthResult carries.
struct HealthReply {
  std::vector<TableHealthEntry> tables;
};

/// \brief kReloadTable's payload: which table, and (optionally) a fresh
/// build spec; empty spec = rebuild from the spec the table was registered
/// with.
struct ReloadTableRequest {
  std::string table;
  std::string spec;
};

/// \brief What happened to the table a kTableChanged note names.
enum class TableChangeKind : uint32_t {
  kReloaded = 0,
  kDetached = 1,
};

/// \brief The unsolicited kTableChanged server note (correlation id 0).
struct TableChangedNote {
  std::string table;
  TableChangeKind kind = TableChangeKind::kReloaded;
};

Message EncodeQueryRequest(const QueryRequest& request);
Result<QueryRequest> DecodeQueryRequest(const Message& msg);

Message EncodeQueryResponse(const QueryResponse& response);
Result<QueryResponse> DecodeQueryResponse(const Message& msg);

/// \brief kQueryError is a status frame (net/message.h): `status` must be
/// an error, and its code crosses the wire intact.
inline Message EncodeQueryError(const Status& status) {
  return EncodeStatusFrame(FrontendOpCode(FrontendOp::kQueryError), status);
}
/// \brief The Status carried by a kQueryError frame (never OK).
inline Status DecodeQueryError(const Message& msg) {
  return DecodeStatusFrame(FrontendOpCode(FrontendOp::kQueryError), msg);
}

Message EncodeHello(const HelloInfo& hello);
Result<HelloInfo> DecodeHello(const Message& msg);
Message EncodeHelloAck(const HelloInfo& ack);
Result<HelloInfo> DecodeHelloAck(const Message& msg);

Message EncodeListTablesRequest();
Message EncodeTableList(const std::vector<std::string>& names);
Result<std::vector<std::string>> DecodeTableList(const Message& msg);

Message EncodeTableInfoRequest(const std::string& name);
Result<std::string> DecodeTableInfoRequest(const Message& msg);
Message EncodeTableInfoReply(const TableInfoReply& info);
Result<TableInfoReply> DecodeTableInfoReply(const Message& msg);

Message EncodeServiceStatsRequest();
Message EncodeServiceStatsReply(const ServiceStatsReply& stats);
Result<ServiceStatsReply> DecodeServiceStatsReply(const Message& msg);

Message EncodeHealthRequest();
Message EncodeHealthReply(const HealthReply& health);
Result<HealthReply> DecodeHealthReply(const Message& msg);

Message EncodeReloadTableRequest(const ReloadTableRequest& request);
Result<ReloadTableRequest> DecodeReloadTableRequest(const Message& msg);
Message EncodeDetachTableRequest(const std::string& name);
Result<std::string> DecodeDetachTableRequest(const Message& msg);
Message EncodeAdminAck(const std::string& name);
Result<std::string> DecodeAdminAck(const Message& msg);

Message EncodeTableChanged(const TableChangedNote& note);
Result<TableChangedNote> DecodeTableChanged(const Message& msg);

Message EncodeAuthenticateRequest(const std::string& key);
Result<std::string> DecodeAuthenticateRequest(const Message& msg);
Message EncodeAuthAck(const std::string& key_id);
Result<std::string> DecodeAuthAck(const Message& msg);

}  // namespace sknn

#endif  // SKNN_NET_QUERY_WIRE_H_
