#include "net/shard_wire.h"

#include <bit>
#include <string>

namespace sknn {
namespace {

Status BadFrame(const char* what) {
  return Status::ProtocolError(std::string("shard frame: ") + what);
}

void AppendF64(Message& msg, double v) {
  msg.AppendAuxU64(std::bit_cast<uint64_t>(v));
}

double F64At(const Message& msg, std::size_t offset) {
  return std::bit_cast<double>(msg.AuxU64At(offset));
}

}  // namespace

Message EncodeShardPing() {
  Message msg;
  msg.type = ShardOpCode(ShardOp::kShardPing);
  return msg;
}

Message EncodeShardGeometry(const ShardGeometry& geometry) {
  Message msg;
  msg.type = ShardOpCode(ShardOp::kShardPing);
  msg.AppendAuxU32(geometry.shard);
  msg.AppendAuxU32(static_cast<uint32_t>(geometry.manifest.scheme));
  msg.AppendAuxU32(static_cast<uint32_t>(geometry.manifest.num_shards));
  msg.AppendAuxU32(static_cast<uint32_t>(geometry.manifest.total_records));
  msg.AppendAuxU32(geometry.num_attributes);
  msg.AppendAuxU32(geometry.distance_bits);
  msg.AppendAuxU32(geometry.shard_records);
  return msg;
}

Result<ShardGeometry> DecodeShardGeometry(const Message& msg) {
  if (msg.type != ShardOpCode(ShardOp::kShardPing)) {
    return BadFrame("not a kShardPing response");
  }
  // Coordinator and workers deploy as a unit (same build), so the geometry
  // frame carries no compatibility tail: it is exactly 28 bytes.
  if (msg.aux.size() != 28) return BadFrame("bad geometry payload");
  ShardGeometry geometry;
  geometry.shard = msg.AuxU32At(0);
  const uint32_t scheme = msg.AuxU32At(4);
  if (scheme > static_cast<uint32_t>(ShardScheme::kByCluster)) {
    return BadFrame("unknown shard scheme");
  }
  geometry.manifest.scheme = static_cast<ShardScheme>(scheme);
  geometry.manifest.num_shards = msg.AuxU32At(8);
  geometry.manifest.total_records = msg.AuxU32At(12);
  geometry.num_attributes = msg.AuxU32At(16);
  geometry.distance_bits = msg.AuxU32At(20);
  geometry.shard_records = msg.AuxU32At(24);
  return geometry;
}

Message EncodeShardQuery(const ShardQueryFrame& frame) {
  Message msg;
  msg.type = ShardOpCode(ShardOp::kShardQuery);
  msg.query_id = frame.query_id;
  msg.AppendAuxU32(frame.k);
  msg.AppendAuxU32(static_cast<uint32_t>(frame.protocol));
  if (frame.deadline_ms != 0) msg.AppendAuxU32(frame.deadline_ms);
  msg.ints.reserve(frame.enc_query.size());
  for (const auto& c : frame.enc_query) msg.ints.push_back(c.value());
  return msg;
}

Result<ShardQueryFrame> DecodeShardQuery(const Message& msg) {
  if (msg.type != ShardOpCode(ShardOp::kShardQuery)) {
    return BadFrame("not a kShardQuery frame");
  }
  // 8 bytes = the original header; 12 = with the trailing deadline word.
  if (msg.aux.size() != 8 && msg.aux.size() != 12) {
    return BadFrame("bad kShardQuery header");
  }
  ShardQueryFrame frame;
  frame.query_id = msg.query_id;
  frame.k = msg.AuxU32At(0);
  if (msg.aux.size() == 12) frame.deadline_ms = msg.AuxU32At(8);
  const uint32_t protocol = msg.AuxU32At(4);
  if (protocol > static_cast<uint32_t>(QueryProtocol::kFarthest)) {
    return BadFrame("unknown protocol");
  }
  frame.protocol = static_cast<QueryProtocol>(protocol);
  if (frame.k == 0) return BadFrame("k must be at least 1");
  if (msg.ints.empty()) return BadFrame("empty query vector");
  frame.enc_query.reserve(msg.ints.size());
  for (const auto& v : msg.ints) frame.enc_query.emplace_back(v);
  return frame;
}

Message EncodeShardCandidates(const ShardCandidatesFrame& frame) {
  const ShardCandidates& c = frame.candidates;
  const std::size_t count = c.count();
  const std::size_t bits_per = c.bits.empty() ? 0 : c.bits[0].size();
  const std::size_t m = c.records.empty() ? 0 : c.records[0].size();
  Message msg;
  msg.type = ShardOpCode(ShardOp::kShardCandidates);
  msg.AppendAuxU32(static_cast<uint32_t>(count));
  msg.AppendAuxU32(static_cast<uint32_t>(bits_per));
  msg.AppendAuxU32(static_cast<uint32_t>(m));
  msg.AppendAuxU32(c.distances.empty() ? 0 : 1);
  for (uint32_t gidx : c.global_indices) msg.AppendAuxU32(gidx);
  AppendF64(msg, frame.seconds);
  msg.AppendAuxU64(frame.traffic.frames_a_to_b);
  msg.AppendAuxU64(frame.traffic.bytes_a_to_b);
  msg.AppendAuxU64(frame.traffic.frames_b_to_a);
  msg.AppendAuxU64(frame.traffic.bytes_b_to_a);
  msg.AppendAuxU64(frame.ops.encryptions);
  msg.AppendAuxU64(frame.ops.decryptions);
  msg.AppendAuxU64(frame.ops.exponentiations);
  msg.AppendAuxU64(frame.ops.multiplications);
  msg.AppendAuxU64(frame.ops.inversions);
  msg.ints.reserve(count * (bits_per + m) + c.distances.size());
  for (const auto& bits : c.bits) {
    for (const auto& b : bits) msg.ints.push_back(b.value());
  }
  for (const auto& record : c.records) {
    for (const auto& attr : record) msg.ints.push_back(attr.value());
  }
  for (const auto& d : c.distances) msg.ints.push_back(d.value());
  return msg;
}

Result<ShardCandidatesFrame> DecodeShardCandidates(const Message& msg) {
  if (msg.type == ShardOpCode(ShardOp::kShardError)) {
    return DecodeShardError(msg);
  }
  if (msg.type != ShardOpCode(ShardOp::kShardCandidates)) {
    return BadFrame("not a kShardCandidates frame");
  }
  if (msg.aux.size() < 16) return BadFrame("truncated candidates header");
  const std::size_t count = msg.AuxU32At(0);
  const std::size_t bits_per = msg.AuxU32At(4);
  const std::size_t m = msg.AuxU32At(8);
  const bool has_distances = msg.AuxU32At(12) != 0;
  constexpr std::size_t kMaxDim = std::size_t{1} << 20;
  if (count == 0 || count > kMaxDim || bits_per > kMaxDim || m == 0 ||
      m > kMaxDim) {
    return BadFrame("candidates geometry implausible");
  }
  const std::size_t index_count = has_distances ? count : 0;
  // Header, per-candidate global indices (basic only), seconds, 4 traffic
  // counters, 5 op counters.
  if (msg.aux.size() != 16 + index_count * 4 + (1 + 4 + 5) * 8) {
    return BadFrame("candidates aux geometry mismatch");
  }
  const std::size_t want_ints =
      count * (bits_per + m) + (has_distances ? count : 0);
  if (msg.ints.size() != want_ints) {
    return BadFrame("candidates payload geometry mismatch");
  }
  if (has_distances == (bits_per > 0)) {
    return BadFrame("candidates must carry bits XOR distances");
  }
  ShardCandidatesFrame frame;
  ShardCandidates& c = frame.candidates;
  std::size_t at = 0;
  if (bits_per > 0) {
    c.bits.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      EncryptedBits bits;
      bits.reserve(bits_per);
      for (std::size_t g = 0; g < bits_per; ++g) {
        bits.emplace_back(msg.ints[at++]);
      }
      c.bits.push_back(std::move(bits));
    }
  }
  c.records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<Ciphertext> record;
    record.reserve(m);
    for (std::size_t j = 0; j < m; ++j) record.emplace_back(msg.ints[at++]);
    c.records.push_back(std::move(record));
  }
  if (has_distances) {
    c.distances.reserve(count);
    c.global_indices.reserve(count);
    for (std::size_t i = 0; i < count; ++i) c.distances.emplace_back(msg.ints[at++]);
    for (std::size_t i = 0; i < count; ++i) {
      c.global_indices.push_back(msg.AuxU32At(16 + i * 4));
    }
  }
  const std::size_t tail = 16 + index_count * 4;
  frame.seconds = F64At(msg, tail);
  frame.traffic.frames_a_to_b = msg.AuxU64At(tail + 8);
  frame.traffic.bytes_a_to_b = msg.AuxU64At(tail + 16);
  frame.traffic.frames_b_to_a = msg.AuxU64At(tail + 24);
  frame.traffic.bytes_b_to_a = msg.AuxU64At(tail + 32);
  frame.ops.encryptions = msg.AuxU64At(tail + 40);
  frame.ops.decryptions = msg.AuxU64At(tail + 48);
  frame.ops.exponentiations = msg.AuxU64At(tail + 56);
  frame.ops.multiplications = msg.AuxU64At(tail + 64);
  frame.ops.inversions = msg.AuxU64At(tail + 72);
  return frame;
}

Message EncodeShardError(const Status& status) {
  Message msg;
  msg.type = ShardOpCode(ShardOp::kShardError);
  msg.AppendAuxU32(static_cast<uint32_t>(status.code()));
  const std::string& text = status.message();
  msg.aux.insert(msg.aux.end(), text.begin(), text.end());
  return msg;
}

Status DecodeShardError(const Message& msg) {
  if (msg.type != ShardOpCode(ShardOp::kShardError) || msg.aux.size() < 4) {
    return BadFrame("malformed kShardError frame");
  }
  const uint32_t code = msg.AuxU32At(0);
  if (code == 0 ||
      code > static_cast<uint32_t>(StatusCode::kDeadlineExceeded)) {
    return BadFrame("kShardError carries an unknown status code");
  }
  return Status(static_cast<StatusCode>(code),
                std::string(msg.aux.begin() + 4, msg.aux.end()));
}

}  // namespace sknn
