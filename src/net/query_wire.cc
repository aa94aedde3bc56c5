#include "net/query_wire.h"

#include <string>

namespace sknn {
namespace {

constexpr uint32_t kFlagBreakdown = 1;
constexpr uint32_t kFlagOpCounts = 2;
constexpr uint32_t kFlagNoCache = 4;

// kQueryResult's flags word.
constexpr uint32_t kResultCacheHit = 1;
constexpr uint32_t kResultC2OpsMissing = 2;

// Table and frame names cross the wire length-prefixed; anything longer is
// a hostile or corrupt frame, not a legitimate identifier. Table build
// SPECS (kReloadTable) are the one longer payload — paths and options —
// and get their own, still-bounded cap.
constexpr std::size_t kMaxNameLen = 256;
constexpr std::size_t kMaxSpecLen = 4096;

// Smallest encodings of the repeated blocks, for FrameReader::Count.
constexpr std::size_t kShardBlockBytes = 6 * 4 + 10 * 8;
constexpr std::size_t kTableStatsBytes = 4 + 12 * 8 + 2 * 4 + 5 * 8;
constexpr std::size_t kKeyStatsBytes = 4 + 5 * 8 + 4;
constexpr std::size_t kReplicaBytes = 4 * 4 + 8 + 8;

Status BadFrame(const char* what) {
  return Status::ProtocolError(std::string("front-end frame: ") + what);
}

Message NewFrame(FrontendOp op) {
  Message msg;
  msg.type = FrontendOpCode(op);
  return msg;
}

// Frames whose whole payload is one name: kTableInfo, kDetachTable,
// kAdminAck, kAuthenticate and kAuthAck.
Message EncodeNameShape(FrontendOp op, const std::string& name) {
  Message msg = NewFrame(op);
  FrameWriter(msg.aux).Str(name);
  return msg;
}

Result<std::string> DecodeNameShape(FrontendOp op, const char* what,
                                    const Message& msg) {
  if (msg.type != FrontendOpCode(op)) return Status::ProtocolError(what);
  FrameReader r(msg.aux);
  std::string name = r.Str(kMaxNameLen);
  SKNN_RETURN_NOT_OK(r.Done(what));
  return name;
}

// kHello and kHelloAck share one shape; only the opcode (and whether
// num_tables is meaningful) differs.
Message EncodeHelloShape(FrontendOp op, const HelloInfo& hello) {
  Message msg = NewFrame(op);
  FrameWriter(msg.aux).U32(hello.revision).U32(hello.num_tables);
  return msg;
}

// The revision word is read and checked before anything else, since the
// rest of another revision's frame has another layout: a peer of the wrong
// revision gets FailedPrecondition, not a ProtocolError about a length.
Result<HelloInfo> DecodeHelloShape(FrontendOp op, const char* what,
                                   const Message& msg) {
  if (msg.type != FrontendOpCode(op)) return Status::ProtocolError(what);
  FrameReader r(msg.aux);
  HelloInfo hello;
  hello.revision = r.U32();
  if (!r.ok()) return Status::ProtocolError(what);
  if (hello.revision != kProtocolRevision) {
    return Status::FailedPrecondition(
        "protocol revision " + std::to_string(hello.revision) +
        " unsupported; this build speaks revision " +
        std::to_string(kProtocolRevision));
  }
  hello.num_tables = r.U32();
  SKNN_RETURN_NOT_OK(r.Done(what));
  return hello;
}

}  // namespace

Message EncodeQueryRequest(const QueryRequest& request) {
  Message msg = NewFrame(FrontendOp::kQuery);
  FrameWriter w(msg.aux);
  w.U32(request.k).U32(static_cast<uint32_t>(request.protocol));
  w.U32((request.want_breakdown ? kFlagBreakdown : 0) |
        (request.want_op_counts ? kFlagOpCounts : 0) |
        (request.no_cache ? kFlagNoCache : 0));
  w.U32(static_cast<uint32_t>(request.record.size()));
  for (int64_t v : request.record) w.U64(static_cast<uint64_t>(v));
  w.Str(request.table)
      .U32(request.deadline_ms)
      .U32(static_cast<uint32_t>(request.index_mode))
      .U32(request.probe_clusters);
  return msg;
}

Result<QueryRequest> DecodeQueryRequest(const Message& msg) {
  if (msg.type != FrontendOpCode(FrontendOp::kQuery)) {
    return BadFrame("not a kQuery frame");
  }
  FrameReader r(msg.aux);
  QueryRequest request;
  request.k = r.U32();
  const uint32_t protocol = r.U32();
  const uint32_t flags = r.U32();
  request.want_breakdown = (flags & kFlagBreakdown) != 0;
  request.want_op_counts = (flags & kFlagOpCounts) != 0;
  request.no_cache = (flags & kFlagNoCache) != 0;
  request.record.resize(r.Count(8));
  for (int64_t& v : request.record) v = static_cast<int64_t>(r.U64());
  request.table = r.Str(kMaxNameLen);
  request.deadline_ms = r.U32();
  const uint32_t mode = r.U32();
  request.probe_clusters = r.U32();
  SKNN_RETURN_NOT_OK(r.Done("front-end frame: malformed kQuery"));
  if (protocol > static_cast<uint32_t>(QueryProtocol::kFarthest)) {
    return BadFrame("unknown protocol");
  }
  if (mode > static_cast<uint32_t>(IndexMode::kClustered)) {
    return BadFrame("kQuery carries an unknown index mode");
  }
  request.protocol = static_cast<QueryProtocol>(protocol);
  request.index_mode = static_cast<IndexMode>(mode);
  return request;
}

Message EncodeQueryResponse(const QueryResponse& response) {
  Message msg = NewFrame(FrontendOp::kQueryResult);
  FrameWriter w(msg.aux);
  const std::size_t rows = response.records.size();
  const std::size_t cols = rows == 0 ? 0 : response.records[0].size();
  w.U32(static_cast<uint32_t>(rows)).U32(static_cast<uint32_t>(cols));
  for (const auto& row : response.records) {
    for (int64_t v : row) w.U64(static_cast<uint64_t>(v));
  }
  w.F64(response.bob_seconds).F64(response.cloud_seconds);
  w.Traffic(response.traffic);
  w.Ops(response.ops);
  const SkNNmBreakdown& phases = response.breakdown;
  w.F64(phases.ssed_seconds)
      .F64(phases.sbd_seconds)
      .F64(phases.sminn_seconds)
      .F64(phases.extract_seconds)
      .F64(phases.update_seconds)
      .F64(phases.finalize_seconds);
  w.F64(response.merge_seconds);
  w.U32(static_cast<uint32_t>(response.shards.size()));
  for (const ShardQueryStats& shard : response.shards) {
    w.U32(shard.shard)
        .U32(shard.candidates)
        .U32(shard.replica)
        .U32(shard.failovers)
        .U32(shard.pruned)
        .U32(shard.shard_records)
        .F64(shard.seconds);
    w.Traffic(shard.traffic).Ops(shard.ops);
  }
  w.U32((response.cache_hit ? kResultCacheHit : 0) |
        (response.c2_ops_missing ? kResultC2OpsMissing : 0));
  return msg;
}

Result<QueryResponse> DecodeQueryResponse(const Message& msg) {
  if (msg.type != FrontendOpCode(FrontendOp::kQueryResult)) {
    return BadFrame("not a kQueryResult frame");
  }
  FrameReader r(msg.aux);
  QueryResponse response;
  // rows * cols values of 8 bytes each must fit in what is left; with no
  // rows, cols sizes nothing.
  response.records.resize(r.Count(8));
  const uint32_t cols = r.Count(8 * response.records.size());
  for (PlainRecord& row : response.records) {
    row.resize(cols);
    for (int64_t& v : row) v = static_cast<int64_t>(r.U64());
  }
  response.bob_seconds = r.F64();
  response.cloud_seconds = r.F64();
  response.traffic = r.Traffic();
  response.ops = r.Ops();
  SkNNmBreakdown& phases = response.breakdown;
  phases.ssed_seconds = r.F64();
  phases.sbd_seconds = r.F64();
  phases.sminn_seconds = r.F64();
  phases.extract_seconds = r.F64();
  phases.update_seconds = r.F64();
  phases.finalize_seconds = r.F64();
  response.merge_seconds = r.F64();
  response.shards.resize(r.Count(kShardBlockBytes));
  for (ShardQueryStats& shard : response.shards) {
    shard.shard = r.U32();
    shard.candidates = r.U32();
    shard.replica = r.U32();
    shard.failovers = r.U32();
    shard.pruned = r.U32();
    shard.shard_records = r.U32();
    shard.seconds = r.F64();
    shard.traffic = r.Traffic();
    shard.ops = r.Ops();
  }
  const uint32_t flags = r.U32();
  response.cache_hit = (flags & kResultCacheHit) != 0;
  response.c2_ops_missing = (flags & kResultC2OpsMissing) != 0;
  SKNN_RETURN_NOT_OK(r.Done("front-end frame: malformed kQueryResult"));
  return response;
}

Message EncodeHello(const HelloInfo& hello) {
  return EncodeHelloShape(FrontendOp::kHello, hello);
}

Result<HelloInfo> DecodeHello(const Message& msg) {
  return DecodeHelloShape(FrontendOp::kHello,
                          "front-end frame: malformed kHello", msg);
}

Message EncodeHelloAck(const HelloInfo& ack) {
  return EncodeHelloShape(FrontendOp::kHelloAck, ack);
}

Result<HelloInfo> DecodeHelloAck(const Message& msg) {
  return DecodeHelloShape(FrontendOp::kHelloAck,
                          "front-end frame: malformed kHelloAck", msg);
}

Message EncodeListTablesRequest() { return NewFrame(FrontendOp::kListTables); }

Message EncodeTableList(const std::vector<std::string>& names) {
  Message msg = NewFrame(FrontendOp::kTableList);
  FrameWriter w(msg.aux);
  w.U32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) w.Str(name);
  return msg;
}

Result<std::vector<std::string>> DecodeTableList(const Message& msg) {
  if (msg.type != FrontendOpCode(FrontendOp::kTableList)) {
    return BadFrame("not a kTableList frame");
  }
  FrameReader r(msg.aux);
  std::vector<std::string> names(r.Count(4));
  for (std::string& name : names) name = r.Str(kMaxNameLen);
  SKNN_RETURN_NOT_OK(r.Done("front-end frame: malformed kTableList"));
  return names;
}

Message EncodeTableInfoRequest(const std::string& name) {
  return EncodeNameShape(FrontendOp::kTableInfo, name);
}

Result<std::string> DecodeTableInfoRequest(const Message& msg) {
  return DecodeNameShape(FrontendOp::kTableInfo,
                         "front-end frame: malformed kTableInfo", msg);
}

Message EncodeTableInfoReply(const TableInfoReply& info) {
  Message msg = NewFrame(FrontendOp::kTableInfoResult);
  FrameWriter(msg.aux)
      .Str(info.name)
      .U64(info.num_records)
      .U32(info.num_attributes)
      .U32(info.attr_bits)
      .U32(info.k_max)
      .U32(info.distance_bits)
      .U32(info.num_shards)
      .U32(info.shard_scheme)
      .U32(info.remote_workers ? 1 : 0)
      .U32(info.num_clusters);
  return msg;
}

Result<TableInfoReply> DecodeTableInfoReply(const Message& msg) {
  if (msg.type != FrontendOpCode(FrontendOp::kTableInfoResult)) {
    return BadFrame("not a kTableInfoResult frame");
  }
  FrameReader r(msg.aux);
  TableInfoReply info;
  info.name = r.Str(kMaxNameLen);
  info.num_records = r.U64();
  info.num_attributes = r.U32();
  info.attr_bits = r.U32();
  info.k_max = r.U32();
  info.distance_bits = r.U32();
  info.num_shards = r.U32();
  info.shard_scheme = r.U32();
  info.remote_workers = r.U32() != 0;
  info.num_clusters = r.U32();
  SKNN_RETURN_NOT_OK(r.Done("front-end frame: malformed kTableInfoResult"));
  return info;
}

Message EncodeServiceStatsRequest() {
  return NewFrame(FrontendOp::kServiceStats);
}

Message EncodeServiceStatsReply(const ServiceStatsReply& stats) {
  Message msg = NewFrame(FrontendOp::kServiceStatsResult);
  FrameWriter w(msg.aux);
  w.F64(stats.uptime_seconds).U64(stats.connections_accepted).U64(
      stats.in_flight);
  w.U32(static_cast<uint32_t>(stats.tables.size()));
  for (const TableStatsEntry& table : stats.tables) {
    w.Str(table.name)
        .U64(table.completed)
        .U64(table.failed)
        .U64(table.rejected)
        .U64(table.in_flight)
        .U64(table.c1_pool_hits)
        .U64(table.c1_pool_misses)
        .U64(table.c1_pool_stock)
        .U64(table.c1_pool_capacity)
        .U64(table.c2_pool_hits)
        .U64(table.c2_pool_misses)
        .U64(table.c2_pool_stock)
        .U64(table.c2_pool_capacity)
        // Revision 6: QoS admission and result-cache counters.
        .U32(table.weight)
        .U32(table.share_limit)
        .U64(table.cache_hits)
        .U64(table.cache_misses)
        .U64(table.cache_evictions)
        .U64(table.cache_entries)
        .U64(table.cache_bytes);
  }
  // Revision 6: per-API-key section after the table blocks.
  w.U32(stats.auth_enabled ? 1 : 0);
  w.U32(static_cast<uint32_t>(stats.keys.size()));
  for (const ApiKeyStatsEntry& key : stats.keys) {
    w.Str(key.id)
        .U64(key.completed)
        .U64(key.denied)
        .U64(key.quota_rejected)
        .U64(key.quota)
        .U64(key.remaining)
        .U32(key.weight);
  }
  return msg;
}

Result<ServiceStatsReply> DecodeServiceStatsReply(const Message& msg) {
  if (msg.type != FrontendOpCode(FrontendOp::kServiceStatsResult)) {
    return BadFrame("not a kServiceStatsResult frame");
  }
  FrameReader r(msg.aux);
  ServiceStatsReply stats;
  stats.uptime_seconds = r.F64();
  stats.connections_accepted = r.U64();
  stats.in_flight = r.U64();
  stats.tables.resize(r.Count(kTableStatsBytes));
  for (TableStatsEntry& table : stats.tables) {
    table.name = r.Str(kMaxNameLen);
    table.completed = r.U64();
    table.failed = r.U64();
    table.rejected = r.U64();
    table.in_flight = r.U64();
    table.c1_pool_hits = r.U64();
    table.c1_pool_misses = r.U64();
    table.c1_pool_stock = r.U64();
    table.c1_pool_capacity = r.U64();
    table.c2_pool_hits = r.U64();
    table.c2_pool_misses = r.U64();
    table.c2_pool_stock = r.U64();
    table.c2_pool_capacity = r.U64();
    table.weight = r.U32();
    table.share_limit = r.U32();
    table.cache_hits = r.U64();
    table.cache_misses = r.U64();
    table.cache_evictions = r.U64();
    table.cache_entries = r.U64();
    table.cache_bytes = r.U64();
  }
  stats.auth_enabled = r.U32() != 0;
  stats.keys.resize(r.Count(kKeyStatsBytes));
  for (ApiKeyStatsEntry& key : stats.keys) {
    key.id = r.Str(kMaxNameLen);
    key.completed = r.U64();
    key.denied = r.U64();
    key.quota_rejected = r.U64();
    key.quota = r.U64();
    key.remaining = r.U64();
    key.weight = r.U32();
  }
  SKNN_RETURN_NOT_OK(r.Done("front-end frame: malformed kServiceStatsResult"));
  return stats;
}

Message EncodeHealthRequest() { return NewFrame(FrontendOp::kHealth); }

Message EncodeHealthReply(const HealthReply& health) {
  Message msg = NewFrame(FrontendOp::kHealthResult);
  FrameWriter w(msg.aux);
  w.U32(static_cast<uint32_t>(health.tables.size()));
  for (const TableHealthEntry& table : health.tables) {
    w.Str(table.name).U32(static_cast<uint32_t>(table.replicas.size()));
    for (const ReplicaHealthEntry& replica : table.replicas) {
      w.U32(replica.shard)
          .U32(replica.replica)
          .U32(replica.healthy ? 1 : 0)
          .U32(replica.consecutive_failures)
          .U64(replica.failovers)
          .F64(replica.last_ok_age_seconds);
    }
  }
  return msg;
}

Result<HealthReply> DecodeHealthReply(const Message& msg) {
  if (msg.type != FrontendOpCode(FrontendOp::kHealthResult)) {
    return BadFrame("not a kHealthResult frame");
  }
  FrameReader r(msg.aux);
  HealthReply health;
  // A table block is at least its name's length prefix and replica count.
  health.tables.resize(r.Count(8));
  for (TableHealthEntry& table : health.tables) {
    table.name = r.Str(kMaxNameLen);
    table.replicas.resize(r.Count(kReplicaBytes));
    for (ReplicaHealthEntry& replica : table.replicas) {
      replica.shard = r.U32();
      replica.replica = r.U32();
      replica.healthy = r.U32() != 0;
      replica.consecutive_failures = r.U32();
      replica.failovers = r.U64();
      replica.last_ok_age_seconds = r.F64();
    }
  }
  SKNN_RETURN_NOT_OK(r.Done("front-end frame: malformed kHealthResult"));
  return health;
}

Message EncodeReloadTableRequest(const ReloadTableRequest& request) {
  Message msg = NewFrame(FrontendOp::kReloadTable);
  FrameWriter(msg.aux).Str(request.table).Str(request.spec);
  return msg;
}

Result<ReloadTableRequest> DecodeReloadTableRequest(const Message& msg) {
  if (msg.type != FrontendOpCode(FrontendOp::kReloadTable)) {
    return BadFrame("not a kReloadTable frame");
  }
  FrameReader r(msg.aux);
  ReloadTableRequest request;
  request.table = r.Str(kMaxNameLen);
  request.spec = r.Str(kMaxSpecLen);
  SKNN_RETURN_NOT_OK(r.Done("front-end frame: malformed kReloadTable"));
  return request;
}

Message EncodeDetachTableRequest(const std::string& name) {
  return EncodeNameShape(FrontendOp::kDetachTable, name);
}

Result<std::string> DecodeDetachTableRequest(const Message& msg) {
  return DecodeNameShape(FrontendOp::kDetachTable,
                         "front-end frame: malformed kDetachTable", msg);
}

Message EncodeAdminAck(const std::string& name) {
  return EncodeNameShape(FrontendOp::kAdminAck, name);
}

Result<std::string> DecodeAdminAck(const Message& msg) {
  return DecodeNameShape(FrontendOp::kAdminAck,
                         "front-end frame: malformed kAdminAck", msg);
}

Message EncodeTableChanged(const TableChangedNote& note) {
  Message msg = NewFrame(FrontendOp::kTableChanged);
  FrameWriter(msg.aux).Str(note.table).U32(static_cast<uint32_t>(note.kind));
  return msg;
}

Result<TableChangedNote> DecodeTableChanged(const Message& msg) {
  if (msg.type != FrontendOpCode(FrontendOp::kTableChanged)) {
    return BadFrame("not a kTableChanged note");
  }
  FrameReader r(msg.aux);
  TableChangedNote note;
  note.table = r.Str(kMaxNameLen);
  const uint32_t kind = r.U32();
  SKNN_RETURN_NOT_OK(r.Done("front-end frame: malformed kTableChanged"));
  if (kind > static_cast<uint32_t>(TableChangeKind::kDetached)) {
    return BadFrame("kTableChanged carries an unknown kind");
  }
  note.kind = static_cast<TableChangeKind>(kind);
  return note;
}

Message EncodeAuthenticateRequest(const std::string& key) {
  return EncodeNameShape(FrontendOp::kAuthenticate, key);
}

Result<std::string> DecodeAuthenticateRequest(const Message& msg) {
  return DecodeNameShape(FrontendOp::kAuthenticate,
                         "front-end frame: malformed kAuthenticate", msg);
}

Message EncodeAuthAck(const std::string& key_id) {
  return EncodeNameShape(FrontendOp::kAuthAck, key_id);
}

Result<std::string> DecodeAuthAck(const Message& msg) {
  return DecodeNameShape(FrontendOp::kAuthAck,
                         "front-end frame: malformed kAuthAck", msg);
}

}  // namespace sknn
