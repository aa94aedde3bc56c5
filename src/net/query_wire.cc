#include "net/query_wire.h"

#include <bit>
#include <string>

namespace sknn {
namespace {

constexpr uint32_t kFlagBreakdown = 1;
constexpr uint32_t kFlagOpCounts = 2;
// Revision 6: bypass the server's result cache for this request.
constexpr uint32_t kFlagNoCache = 4;

// A serialized Paillier ciphertext is at most 2*|N| bits; 64 KiB covers
// keys far beyond anything this system runs. Anything longer in the
// kQueryResult cache tail is a hostile or corrupt frame.
constexpr std::size_t kMaxCiphertextLen = std::size_t{1} << 16;

void AppendF64(Message& msg, double v) {
  msg.AppendAuxU64(std::bit_cast<uint64_t>(v));
}

double F64At(const Message& msg, std::size_t offset) {
  return std::bit_cast<double>(msg.AuxU64At(offset));
}

Status BadFrame(const char* what) {
  return Status::ProtocolError(std::string("front-end frame: ") + what);
}

// Table and frame names cross the wire length-prefixed; anything longer is
// a hostile or corrupt frame, not a legitimate identifier. Table build
// SPECS (kReloadTable) are the one longer payload — paths and options —
// and get their own, still-bounded cap.
constexpr std::size_t kMaxNameLen = 256;
constexpr std::size_t kMaxSpecLen = 4096;

void AppendString(Message& msg, const std::string& text) {
  msg.AppendAuxU32(static_cast<uint32_t>(text.size()));
  msg.aux.insert(msg.aux.end(), text.begin(), text.end());
}

// Reads [len:u32][bytes] at `at`, advancing it; false on any overrun.
bool StringAt(const Message& msg, std::size_t* at, std::string* out,
              std::size_t max_len = kMaxNameLen) {
  if (msg.aux.size() < *at + 4) return false;
  const std::size_t len = msg.AuxU32At(*at);
  *at += 4;
  if (len > max_len || msg.aux.size() < *at + len) return false;
  out->assign(msg.aux.begin() + static_cast<std::ptrdiff_t>(*at),
              msg.aux.begin() + static_cast<std::ptrdiff_t>(*at + len));
  *at += len;
  return true;
}

}  // namespace

Message EncodeQueryRequest(const QueryRequest& request) {
  Message msg;
  msg.type = FrontendOpCode(FrontendOp::kQuery);
  msg.AppendAuxU32(request.k);
  msg.AppendAuxU32(static_cast<uint32_t>(request.protocol));
  msg.AppendAuxU32((request.want_breakdown ? kFlagBreakdown : 0) |
                   (request.want_op_counts ? kFlagOpCounts : 0) |
                   (request.no_cache ? kFlagNoCache : 0));
  msg.AppendAuxU32(static_cast<uint32_t>(request.record.size()));
  for (int64_t v : request.record) {
    msg.AppendAuxU64(static_cast<uint64_t>(v));
  }
  AppendString(msg, request.table);
  // Exact-mode requests keep the revision-3/4 shape (optional lone deadline
  // word) so their frames stay byte-identical across the revision bump.
  // Clustered requests emit the full revision-5 tail: the deadline word is
  // then always present (0 = unbounded) so the index_mode/probe words have
  // a fixed offset.
  if (request.index_mode != IndexMode::kExact) {
    msg.AppendAuxU32(request.deadline_ms);
    msg.AppendAuxU32(static_cast<uint32_t>(request.index_mode));
    msg.AppendAuxU32(request.probe_clusters);
  } else if (request.deadline_ms != 0) {
    msg.AppendAuxU32(request.deadline_ms);
  }
  return msg;
}

Result<QueryRequest> DecodeQueryRequest(const Message& msg) {
  if (msg.type != FrontendOpCode(FrontendOp::kQuery)) {
    return BadFrame("not a kQuery frame");
  }
  if (msg.aux.size() < 16) return BadFrame("truncated kQuery header");
  QueryRequest request;
  request.k = msg.AuxU32At(0);
  const uint32_t protocol = msg.AuxU32At(4);
  if (protocol > static_cast<uint32_t>(QueryProtocol::kFarthest)) {
    return BadFrame("unknown protocol");
  }
  request.protocol = static_cast<QueryProtocol>(protocol);
  const uint32_t flags = msg.AuxU32At(8);
  request.want_breakdown = (flags & kFlagBreakdown) != 0;
  request.want_op_counts = (flags & kFlagOpCounts) != 0;
  request.no_cache = (flags & kFlagNoCache) != 0;
  const uint32_t m = msg.AuxU32At(12);
  std::size_t at = 16 + std::size_t{m} * 8;
  if (msg.aux.size() < at) return BadFrame("kQuery geometry mismatch");
  request.record.reserve(m);
  for (uint32_t j = 0; j < m; ++j) {
    request.record.push_back(
        static_cast<int64_t>(msg.AuxU64At(16 + std::size_t{j} * 8)));
  }
  // The table name always follows the record (an encoder of every
  // revision the hello gate admits writes it, empty for the sole table).
  // An optional trailing deadline word may follow it, and the index_mode
  // and probe_clusters words may follow the deadline (no-deadline /
  // exact-mode defaults otherwise).
  if (!StringAt(msg, &at, &request.table)) {
    return BadFrame("kQuery table-name geometry mismatch");
  }
  if (msg.aux.size() == at) return request;
  const std::size_t tail = msg.aux.size() - at;
  if (tail != 4 && tail != 12) {
    return BadFrame("kQuery deadline geometry mismatch");
  }
  request.deadline_ms = msg.AuxU32At(at);
  if (tail == 12) {
    const uint32_t mode = msg.AuxU32At(at + 4);
    if (mode > static_cast<uint32_t>(IndexMode::kClustered)) {
      return BadFrame("kQuery carries an unknown index mode");
    }
    request.index_mode = static_cast<IndexMode>(mode);
    request.probe_clusters = msg.AuxU32At(at + 8);
  }
  return request;
}

Message EncodeQueryResponse(const QueryResponse& response) {
  Message msg;
  msg.type = FrontendOpCode(FrontendOp::kQueryResult);
  const std::size_t rows = response.records.size();
  const std::size_t cols = rows == 0 ? 0 : response.records[0].size();
  msg.AppendAuxU32(static_cast<uint32_t>(rows));
  msg.AppendAuxU32(static_cast<uint32_t>(cols));
  for (const auto& row : response.records) {
    for (int64_t v : row) msg.AppendAuxU64(static_cast<uint64_t>(v));
  }
  AppendF64(msg, response.bob_seconds);
  AppendF64(msg, response.cloud_seconds);
  msg.AppendAuxU64(response.traffic.frames_a_to_b);
  msg.AppendAuxU64(response.traffic.bytes_a_to_b);
  msg.AppendAuxU64(response.traffic.frames_b_to_a);
  msg.AppendAuxU64(response.traffic.bytes_b_to_a);
  msg.AppendAuxU64(response.ops.encryptions);
  msg.AppendAuxU64(response.ops.decryptions);
  msg.AppendAuxU64(response.ops.exponentiations);
  msg.AppendAuxU64(response.ops.multiplications);
  AppendF64(msg, response.breakdown.ssed_seconds);
  AppendF64(msg, response.breakdown.sbd_seconds);
  AppendF64(msg, response.breakdown.sminn_seconds);
  AppendF64(msg, response.breakdown.extract_seconds);
  AppendF64(msg, response.breakdown.update_seconds);
  AppendF64(msg, response.breakdown.finalize_seconds);
  AppendF64(msg, response.merge_seconds);
  msg.AppendAuxU32(static_cast<uint32_t>(response.shards.size()));
  for (const ShardQueryStats& shard : response.shards) {
    msg.AppendAuxU32(shard.shard);
    msg.AppendAuxU32(shard.candidates);
    msg.AppendAuxU32(shard.replica);
    msg.AppendAuxU32(shard.failovers);
    msg.AppendAuxU32(shard.pruned);
    msg.AppendAuxU32(shard.shard_records);
    AppendF64(msg, shard.seconds);
    msg.AppendAuxU64(shard.traffic.frames_a_to_b);
    msg.AppendAuxU64(shard.traffic.bytes_a_to_b);
    msg.AppendAuxU64(shard.traffic.frames_b_to_a);
    msg.AppendAuxU64(shard.traffic.bytes_b_to_a);
    msg.AppendAuxU64(shard.ops.encryptions);
    msg.AppendAuxU64(shard.ops.decryptions);
    msg.AppendAuxU64(shard.ops.exponentiations);
    msg.AppendAuxU64(shard.ops.multiplications);
  }
  // Revision 6's mandatory cache tail: whether the result came from the
  // server's cache, and the rerandomized result-attribute ciphertexts for
  // cache-eligible queries (empty otherwise).
  msg.AppendAuxU32(response.cache_hit ? 1 : 0);
  msg.AppendAuxU32(static_cast<uint32_t>(response.encrypted_records.size()));
  for (const std::vector<uint8_t>& ct : response.encrypted_records) {
    msg.AppendAuxU32(static_cast<uint32_t>(ct.size()));
    msg.aux.insert(msg.aux.end(), ct.begin(), ct.end());
  }
  return msg;
}

Result<QueryResponse> DecodeQueryResponse(const Message& msg) {
  if (msg.type != FrontendOpCode(FrontendOp::kQueryResult)) {
    return BadFrame("not a kQueryResult frame");
  }
  if (msg.aux.size() < 8) return BadFrame("truncated kQueryResult header");
  const std::size_t rows = msg.AuxU32At(0);
  const std::size_t cols = msg.AuxU32At(4);
  // Bound the claimed geometry BEFORE arithmetic: unchecked u32 dimensions
  // could overflow `expected` into a small value and defeat the size check,
  // turning a hostile frame into a huge out-of-bounds read below.
  constexpr std::size_t kMaxDim = std::size_t{1} << 20;
  if (rows > kMaxDim || cols > kMaxDim) {
    return BadFrame("kQueryResult geometry implausible");
  }
  // Records, two timings, 4 traffic counters, 4 op counters, 6 phases,
  // merge seconds — then the shard-count u32 and its per-shard blocks.
  const std::size_t fixed = 8 + (rows * cols + 2 + 4 + 4 + 6 + 1) * 8 + 4;
  if (msg.aux.size() < fixed) {
    return BadFrame("kQueryResult geometry mismatch");
  }
  const std::size_t num_shards = msg.AuxU32At(fixed - 4);
  // Revision 5 layout: shard, candidates, replica, failovers, pruned,
  // shard_records, seconds, 4 traffic counters, 4 op counters. Revision 6
  // appends the mandatory 8-byte cache-tail header after the shard blocks,
  // so the exact-size check becomes a lower bound here and an exact check
  // once the tail's variable-length ciphertexts are walked.
  constexpr std::size_t kPerShard = 4 + 4 + 4 + 4 + 4 + 4 + 9 * 8;
  if (num_shards > kMaxDim ||
      msg.aux.size() < fixed + num_shards * kPerShard + 8) {
    return BadFrame("kQueryResult shard-stats geometry mismatch");
  }
  QueryResponse response;
  std::size_t at = 8;
  response.records.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    PlainRecord row;
    row.reserve(cols);
    for (std::size_t j = 0; j < cols; ++j, at += 8) {
      row.push_back(static_cast<int64_t>(msg.AuxU64At(at)));
    }
    response.records.push_back(std::move(row));
  }
  response.bob_seconds = F64At(msg, at);
  response.cloud_seconds = F64At(msg, at + 8);
  response.traffic.frames_a_to_b = msg.AuxU64At(at + 16);
  response.traffic.bytes_a_to_b = msg.AuxU64At(at + 24);
  response.traffic.frames_b_to_a = msg.AuxU64At(at + 32);
  response.traffic.bytes_b_to_a = msg.AuxU64At(at + 40);
  response.ops.encryptions = msg.AuxU64At(at + 48);
  response.ops.decryptions = msg.AuxU64At(at + 56);
  response.ops.exponentiations = msg.AuxU64At(at + 64);
  response.ops.multiplications = msg.AuxU64At(at + 72);
  response.breakdown.ssed_seconds = F64At(msg, at + 80);
  response.breakdown.sbd_seconds = F64At(msg, at + 88);
  response.breakdown.sminn_seconds = F64At(msg, at + 96);
  response.breakdown.extract_seconds = F64At(msg, at + 104);
  response.breakdown.update_seconds = F64At(msg, at + 112);
  response.breakdown.finalize_seconds = F64At(msg, at + 120);
  response.merge_seconds = F64At(msg, at + 128);
  at += 140;  // past the counters/phases block and the shard-count u32
  response.shards.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    ShardQueryStats shard;
    shard.shard = msg.AuxU32At(at);
    shard.candidates = msg.AuxU32At(at + 4);
    shard.replica = msg.AuxU32At(at + 8);
    shard.failovers = msg.AuxU32At(at + 12);
    shard.pruned = msg.AuxU32At(at + 16);
    shard.shard_records = msg.AuxU32At(at + 20);
    shard.seconds = F64At(msg, at + 24);
    shard.traffic.frames_a_to_b = msg.AuxU64At(at + 32);
    shard.traffic.bytes_a_to_b = msg.AuxU64At(at + 40);
    shard.traffic.frames_b_to_a = msg.AuxU64At(at + 48);
    shard.traffic.bytes_b_to_a = msg.AuxU64At(at + 56);
    shard.ops.encryptions = msg.AuxU64At(at + 64);
    shard.ops.decryptions = msg.AuxU64At(at + 72);
    shard.ops.exponentiations = msg.AuxU64At(at + 80);
    shard.ops.multiplications = msg.AuxU64At(at + 88);
    response.shards.push_back(shard);
    at += kPerShard;
  }
  // The revision-6 cache tail (its 8-byte header was size-checked above).
  response.cache_hit = msg.AuxU32At(at) != 0;
  const std::size_t enc_count = msg.AuxU32At(at + 4);
  at += 8;
  // Implausible-count guard before reserve: each ciphertext needs at least
  // its 4-byte length prefix.
  if (enc_count * 4 > msg.aux.size() - at) {
    return BadFrame("kQueryResult ciphertext count implausible");
  }
  response.encrypted_records.reserve(enc_count);
  for (std::size_t i = 0; i < enc_count; ++i) {
    if (msg.aux.size() < at + 4) {
      return BadFrame("kQueryResult ciphertext geometry mismatch");
    }
    const std::size_t len = msg.AuxU32At(at);
    at += 4;
    if (len > kMaxCiphertextLen || msg.aux.size() < at + len) {
      return BadFrame("kQueryResult ciphertext geometry mismatch");
    }
    response.encrypted_records.emplace_back(
        msg.aux.begin() + static_cast<std::ptrdiff_t>(at),
        msg.aux.begin() + static_cast<std::ptrdiff_t>(at + len));
    at += len;
  }
  if (at != msg.aux.size()) return BadFrame("kQueryResult trailing bytes");
  return response;
}

Message EncodeQueryError(const Status& status) {
  Message msg;
  msg.type = FrontendOpCode(FrontendOp::kQueryError);
  msg.AppendAuxU32(static_cast<uint32_t>(status.code()));
  const std::string& text = status.message();
  msg.aux.insert(msg.aux.end(), text.begin(), text.end());
  return msg;
}

Status DecodeQueryError(const Message& msg) {
  if (msg.type != FrontendOpCode(FrontendOp::kQueryError) ||
      msg.aux.size() < 4) {
    return BadFrame("malformed kQueryError frame");
  }
  const uint32_t code = msg.AuxU32At(0);
  if (code == 0 ||
      code > static_cast<uint32_t>(StatusCode::kPermissionDenied)) {
    return BadFrame("kQueryError carries an unknown status code");
  }
  return Status(static_cast<StatusCode>(code),
                std::string(msg.aux.begin() + 4, msg.aux.end()));
}

namespace {

// kHello and kHelloAck share one shape; only the opcode (and whether
// num_tables is meaningful) differs.
Message EncodeHelloShape(FrontendOp op, const HelloInfo& hello) {
  Message msg;
  msg.type = FrontendOpCode(op);
  msg.AppendAuxU32(hello.revision);
  msg.AppendAuxU32(hello.features);
  msg.AppendAuxU32(hello.num_tables);
  return msg;
}

Result<HelloInfo> DecodeHelloShape(FrontendOp op, const char* what,
                                   const Message& msg) {
  if (msg.type != FrontendOpCode(op)) return BadFrame(what);
  if (msg.aux.size() != 12) return BadFrame(what);
  HelloInfo hello;
  hello.revision = msg.AuxU32At(0);
  hello.features = msg.AuxU32At(4);
  hello.num_tables = msg.AuxU32At(8);
  return hello;
}

}  // namespace

Message EncodeHello(const HelloInfo& hello) {
  return EncodeHelloShape(FrontendOp::kHello, hello);
}

Result<HelloInfo> DecodeHello(const Message& msg) {
  return DecodeHelloShape(FrontendOp::kHello, "malformed kHello frame", msg);
}

Message EncodeHelloAck(const HelloInfo& ack) {
  return EncodeHelloShape(FrontendOp::kHelloAck, ack);
}

Result<HelloInfo> DecodeHelloAck(const Message& msg) {
  return DecodeHelloShape(FrontendOp::kHelloAck, "malformed kHelloAck frame",
                          msg);
}

Message EncodeListTablesRequest() {
  Message msg;
  msg.type = FrontendOpCode(FrontendOp::kListTables);
  return msg;
}

Message EncodeTableList(const std::vector<std::string>& names) {
  Message msg;
  msg.type = FrontendOpCode(FrontendOp::kTableList);
  msg.AppendAuxU32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) AppendString(msg, name);
  return msg;
}

Result<std::vector<std::string>> DecodeTableList(const Message& msg) {
  if (msg.type != FrontendOpCode(FrontendOp::kTableList)) {
    return BadFrame("not a kTableList frame");
  }
  if (msg.aux.size() < 4) return BadFrame("truncated kTableList");
  const uint32_t count = msg.AuxU32At(0);
  // Bound the claimed count BEFORE reserving: each entry needs at least its
  // 4-byte length prefix, so a hostile count cannot force a huge allocation
  // ahead of the per-entry bounds checks.
  if (std::size_t{count} * 4 > msg.aux.size() - 4) {
    return BadFrame("kTableList count implausible");
  }
  std::size_t at = 4;
  std::vector<std::string> names;
  names.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    if (!StringAt(msg, &at, &name)) {
      return BadFrame("kTableList geometry mismatch");
    }
    names.push_back(std::move(name));
  }
  if (at != msg.aux.size()) return BadFrame("kTableList trailing bytes");
  return names;
}

Message EncodeTableInfoRequest(const std::string& name) {
  Message msg;
  msg.type = FrontendOpCode(FrontendOp::kTableInfo);
  AppendString(msg, name);
  return msg;
}

Result<std::string> DecodeTableInfoRequest(const Message& msg) {
  if (msg.type != FrontendOpCode(FrontendOp::kTableInfo)) {
    return BadFrame("not a kTableInfo frame");
  }
  std::size_t at = 0;
  std::string name;
  if (!StringAt(msg, &at, &name) || at != msg.aux.size()) {
    return BadFrame("kTableInfo geometry mismatch");
  }
  return name;
}

Message EncodeTableInfoReply(const TableInfoReply& info) {
  Message msg;
  msg.type = FrontendOpCode(FrontendOp::kTableInfoResult);
  AppendString(msg, info.name);
  msg.AppendAuxU64(info.num_records);
  msg.AppendAuxU32(info.num_attributes);
  msg.AppendAuxU32(info.attr_bits);
  msg.AppendAuxU32(info.k_max);
  msg.AppendAuxU32(info.distance_bits);
  msg.AppendAuxU32(info.num_shards);
  msg.AppendAuxU32(info.shard_scheme);
  msg.AppendAuxU32(info.remote_workers ? 1 : 0);
  msg.AppendAuxU32(info.num_clusters);
  return msg;
}

Result<TableInfoReply> DecodeTableInfoReply(const Message& msg) {
  if (msg.type != FrontendOpCode(FrontendOp::kTableInfoResult)) {
    return BadFrame("not a kTableInfoResult frame");
  }
  std::size_t at = 0;
  TableInfoReply info;
  if (!StringAt(msg, &at, &info.name) ||
      msg.aux.size() != at + 8 + 8 * 4) {
    return BadFrame("kTableInfoResult geometry mismatch");
  }
  info.num_records = msg.AuxU64At(at);
  info.num_attributes = msg.AuxU32At(at + 8);
  info.attr_bits = msg.AuxU32At(at + 12);
  info.k_max = msg.AuxU32At(at + 16);
  info.distance_bits = msg.AuxU32At(at + 20);
  info.num_shards = msg.AuxU32At(at + 24);
  info.shard_scheme = msg.AuxU32At(at + 28);
  info.remote_workers = msg.AuxU32At(at + 32) != 0;
  info.num_clusters = msg.AuxU32At(at + 36);
  return info;
}

Message EncodeServiceStatsRequest() {
  Message msg;
  msg.type = FrontendOpCode(FrontendOp::kServiceStats);
  return msg;
}

Message EncodeServiceStatsReply(const ServiceStatsReply& stats) {
  Message msg;
  msg.type = FrontendOpCode(FrontendOp::kServiceStatsResult);
  AppendF64(msg, stats.uptime_seconds);
  msg.AppendAuxU64(stats.connections_accepted);
  msg.AppendAuxU64(stats.in_flight);
  msg.AppendAuxU32(static_cast<uint32_t>(stats.tables.size()));
  for (const TableStatsEntry& table : stats.tables) {
    AppendString(msg, table.name);
    msg.AppendAuxU64(table.completed);
    msg.AppendAuxU64(table.failed);
    msg.AppendAuxU64(table.rejected);
    msg.AppendAuxU64(table.in_flight);
    msg.AppendAuxU64(table.c1_pool_hits);
    msg.AppendAuxU64(table.c1_pool_misses);
    msg.AppendAuxU64(table.c1_pool_stock);
    msg.AppendAuxU64(table.c1_pool_capacity);
    msg.AppendAuxU64(table.c2_pool_hits);
    msg.AppendAuxU64(table.c2_pool_misses);
    msg.AppendAuxU64(table.c2_pool_stock);
    msg.AppendAuxU64(table.c2_pool_capacity);
    // Revision 6: QoS admission and result-cache counters.
    msg.AppendAuxU32(table.weight);
    msg.AppendAuxU32(table.share_limit);
    msg.AppendAuxU64(table.cache_hits);
    msg.AppendAuxU64(table.cache_misses);
    msg.AppendAuxU64(table.cache_evictions);
    msg.AppendAuxU64(table.cache_entries);
    msg.AppendAuxU64(table.cache_bytes);
  }
  // Revision 6: per-API-key section after the table blocks.
  msg.AppendAuxU32(stats.auth_enabled ? 1 : 0);
  msg.AppendAuxU32(static_cast<uint32_t>(stats.keys.size()));
  for (const ApiKeyStatsEntry& key : stats.keys) {
    AppendString(msg, key.id);
    msg.AppendAuxU64(key.completed);
    msg.AppendAuxU64(key.denied);
    msg.AppendAuxU64(key.quota_rejected);
    msg.AppendAuxU64(key.quota);
    msg.AppendAuxU64(key.remaining);
    msg.AppendAuxU32(key.weight);
  }
  return msg;
}

Result<ServiceStatsReply> DecodeServiceStatsReply(const Message& msg) {
  if (msg.type != FrontendOpCode(FrontendOp::kServiceStatsResult)) {
    return BadFrame("not a kServiceStatsResult frame");
  }
  if (msg.aux.size() < 28) return BadFrame("truncated kServiceStatsResult");
  ServiceStatsReply stats;
  stats.uptime_seconds = F64At(msg, 0);
  stats.connections_accepted = msg.AuxU64At(8);
  stats.in_flight = msg.AuxU64At(16);
  const uint32_t count = msg.AuxU32At(24);
  // Same implausible-count guard as kTableList: a per-table block is at
  // least 148 bytes (name length prefix + 144 bytes of fixed counters).
  if (std::size_t{count} * 148 > msg.aux.size() - 28) {
    return BadFrame("kServiceStatsResult count implausible");
  }
  std::size_t at = 28;
  stats.tables.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    TableStatsEntry table;
    if (!StringAt(msg, &at, &table.name) || msg.aux.size() < at + 144) {
      return BadFrame("kServiceStatsResult geometry mismatch");
    }
    table.completed = msg.AuxU64At(at);
    table.failed = msg.AuxU64At(at + 8);
    table.rejected = msg.AuxU64At(at + 16);
    table.in_flight = msg.AuxU64At(at + 24);
    table.c1_pool_hits = msg.AuxU64At(at + 32);
    table.c1_pool_misses = msg.AuxU64At(at + 40);
    table.c1_pool_stock = msg.AuxU64At(at + 48);
    table.c1_pool_capacity = msg.AuxU64At(at + 56);
    table.c2_pool_hits = msg.AuxU64At(at + 64);
    table.c2_pool_misses = msg.AuxU64At(at + 72);
    table.c2_pool_stock = msg.AuxU64At(at + 80);
    table.c2_pool_capacity = msg.AuxU64At(at + 88);
    table.weight = msg.AuxU32At(at + 96);
    table.share_limit = msg.AuxU32At(at + 100);
    table.cache_hits = msg.AuxU64At(at + 104);
    table.cache_misses = msg.AuxU64At(at + 112);
    table.cache_evictions = msg.AuxU64At(at + 120);
    table.cache_entries = msg.AuxU64At(at + 128);
    table.cache_bytes = msg.AuxU64At(at + 136);
    at += 144;
    stats.tables.push_back(std::move(table));
  }
  // Revision 6's per-API-key section: [auth_enabled:u32][num_keys:u32] then
  // one block per key.
  if (msg.aux.size() < at + 8) {
    return BadFrame("kServiceStatsResult key section truncated");
  }
  stats.auth_enabled = msg.AuxU32At(at) != 0;
  const uint32_t num_keys = msg.AuxU32At(at + 4);
  at += 8;
  // A per-key block is at least 48 bytes (id length prefix + five u64
  // counters + weight).
  if (std::size_t{num_keys} * 48 > msg.aux.size() - at) {
    return BadFrame("kServiceStatsResult key count implausible");
  }
  stats.keys.reserve(num_keys);
  for (uint32_t i = 0; i < num_keys; ++i) {
    ApiKeyStatsEntry key;
    if (!StringAt(msg, &at, &key.id) || msg.aux.size() < at + 44) {
      return BadFrame("kServiceStatsResult key geometry mismatch");
    }
    key.completed = msg.AuxU64At(at);
    key.denied = msg.AuxU64At(at + 8);
    key.quota_rejected = msg.AuxU64At(at + 16);
    key.quota = msg.AuxU64At(at + 24);
    key.remaining = msg.AuxU64At(at + 32);
    key.weight = msg.AuxU32At(at + 40);
    at += 44;
    stats.keys.push_back(std::move(key));
  }
  if (at != msg.aux.size()) {
    return BadFrame("kServiceStatsResult trailing bytes");
  }
  return stats;
}

Message EncodeHealthRequest() {
  Message msg;
  msg.type = FrontendOpCode(FrontendOp::kHealth);
  return msg;
}

Message EncodeHealthReply(const HealthReply& health) {
  Message msg;
  msg.type = FrontendOpCode(FrontendOp::kHealthResult);
  msg.AppendAuxU32(static_cast<uint32_t>(health.tables.size()));
  for (const TableHealthEntry& table : health.tables) {
    AppendString(msg, table.name);
    msg.AppendAuxU32(static_cast<uint32_t>(table.replicas.size()));
    for (const ReplicaHealthEntry& replica : table.replicas) {
      msg.AppendAuxU32(replica.shard);
      msg.AppendAuxU32(replica.replica);
      msg.AppendAuxU32(replica.healthy ? 1 : 0);
      msg.AppendAuxU32(replica.consecutive_failures);
      msg.AppendAuxU64(replica.failovers);
      AppendF64(msg, replica.last_ok_age_seconds);
    }
  }
  return msg;
}

Result<HealthReply> DecodeHealthReply(const Message& msg) {
  if (msg.type != FrontendOpCode(FrontendOp::kHealthResult)) {
    return BadFrame("not a kHealthResult frame");
  }
  if (msg.aux.size() < 4) return BadFrame("truncated kHealthResult");
  const uint32_t num_tables = msg.AuxU32At(0);
  // Every table block needs at least its name length prefix and replica
  // count — the same implausible-count guard as kTableList.
  if (std::size_t{num_tables} * 8 > msg.aux.size() - 4) {
    return BadFrame("kHealthResult table count implausible");
  }
  constexpr std::size_t kPerReplica = 4 * 4 + 8 + 8;
  HealthReply health;
  health.tables.reserve(num_tables);
  std::size_t at = 4;
  for (uint32_t t = 0; t < num_tables; ++t) {
    TableHealthEntry table;
    if (!StringAt(msg, &at, &table.name) || msg.aux.size() < at + 4) {
      return BadFrame("kHealthResult table geometry mismatch");
    }
    const uint32_t num_replicas = msg.AuxU32At(at);
    at += 4;
    if (num_replicas > (std::size_t{1} << 20) ||
        msg.aux.size() < at + std::size_t{num_replicas} * kPerReplica) {
      return BadFrame("kHealthResult replica count implausible");
    }
    table.replicas.reserve(num_replicas);
    for (uint32_t r = 0; r < num_replicas; ++r) {
      ReplicaHealthEntry replica;
      replica.shard = msg.AuxU32At(at);
      replica.replica = msg.AuxU32At(at + 4);
      replica.healthy = msg.AuxU32At(at + 8) != 0;
      replica.consecutive_failures = msg.AuxU32At(at + 12);
      replica.failovers = msg.AuxU64At(at + 16);
      replica.last_ok_age_seconds = F64At(msg, at + 24);
      at += kPerReplica;
      table.replicas.push_back(replica);
    }
    health.tables.push_back(std::move(table));
  }
  if (at != msg.aux.size()) return BadFrame("kHealthResult trailing bytes");
  return health;
}

Message EncodeReloadTableRequest(const ReloadTableRequest& request) {
  Message msg;
  msg.type = FrontendOpCode(FrontendOp::kReloadTable);
  AppendString(msg, request.table);
  AppendString(msg, request.spec);
  return msg;
}

Result<ReloadTableRequest> DecodeReloadTableRequest(const Message& msg) {
  if (msg.type != FrontendOpCode(FrontendOp::kReloadTable)) {
    return BadFrame("not a kReloadTable frame");
  }
  std::size_t at = 0;
  ReloadTableRequest request;
  if (!StringAt(msg, &at, &request.table) ||
      !StringAt(msg, &at, &request.spec, kMaxSpecLen) ||
      at != msg.aux.size()) {
    return BadFrame("kReloadTable geometry mismatch");
  }
  return request;
}

namespace {

// kDetachTable and kAdminAck share one shape: a single table name.
Message EncodeNameShape(FrontendOp op, const std::string& name) {
  Message msg;
  msg.type = FrontendOpCode(op);
  AppendString(msg, name);
  return msg;
}

Result<std::string> DecodeNameShape(FrontendOp op, const char* what,
                                    const Message& msg) {
  if (msg.type != FrontendOpCode(op)) return BadFrame(what);
  std::size_t at = 0;
  std::string name;
  if (!StringAt(msg, &at, &name) || at != msg.aux.size()) {
    return BadFrame(what);
  }
  return name;
}

}  // namespace

Message EncodeDetachTableRequest(const std::string& name) {
  return EncodeNameShape(FrontendOp::kDetachTable, name);
}

Result<std::string> DecodeDetachTableRequest(const Message& msg) {
  return DecodeNameShape(FrontendOp::kDetachTable,
                         "malformed kDetachTable frame", msg);
}

Message EncodeAdminAck(const std::string& name) {
  return EncodeNameShape(FrontendOp::kAdminAck, name);
}

Result<std::string> DecodeAdminAck(const Message& msg) {
  return DecodeNameShape(FrontendOp::kAdminAck, "malformed kAdminAck frame",
                         msg);
}

Message EncodeTableChanged(const TableChangedNote& note) {
  Message msg;
  msg.type = FrontendOpCode(FrontendOp::kTableChanged);
  AppendString(msg, note.table);
  msg.AppendAuxU32(static_cast<uint32_t>(note.kind));
  return msg;
}

Result<TableChangedNote> DecodeTableChanged(const Message& msg) {
  if (msg.type != FrontendOpCode(FrontendOp::kTableChanged)) {
    return BadFrame("not a kTableChanged note");
  }
  std::size_t at = 0;
  TableChangedNote note;
  if (!StringAt(msg, &at, &note.table) || msg.aux.size() != at + 4) {
    return BadFrame("kTableChanged geometry mismatch");
  }
  const uint32_t kind = msg.AuxU32At(at);
  if (kind > static_cast<uint32_t>(TableChangeKind::kDetached)) {
    return BadFrame("kTableChanged carries an unknown kind");
  }
  note.kind = static_cast<TableChangeKind>(kind);
  return note;
}

Message EncodeAuthenticateRequest(const std::string& key) {
  Message msg;
  msg.type = FrontendOpCode(FrontendOp::kAuthenticate);
  AppendString(msg, key);
  return msg;
}

Result<std::string> DecodeAuthenticateRequest(const Message& msg) {
  if (msg.type != FrontendOpCode(FrontendOp::kAuthenticate)) {
    return BadFrame("not a kAuthenticate frame");
  }
  std::size_t at = 0;
  std::string key;
  if (!StringAt(msg, &at, &key) || at != msg.aux.size()) {
    return BadFrame("kAuthenticate geometry mismatch");
  }
  return key;
}

Message EncodeAuthAck(const std::string& key_id) {
  return EncodeNameShape(FrontendOp::kAuthAck, key_id);
}

Result<std::string> DecodeAuthAck(const Message& msg) {
  return DecodeNameShape(FrontendOp::kAuthAck, "malformed kAuthAck frame",
                         msg);
}

}  // namespace sknn
