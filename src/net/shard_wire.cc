#include "net/shard_wire.h"

#include <string>

namespace sknn {
namespace {

Status BadFrame(const char* what) {
  return Status::ProtocolError(std::string("shard frame: ") + what);
}

}  // namespace

Message EncodeShardPing() {
  Message msg;
  msg.type = ShardOpCode(ShardOp::kShardPing);
  return msg;
}

Message EncodeShardGeometry(const ShardGeometry& geometry) {
  Message msg = EncodeShardPing();
  FrameWriter(msg.aux)
      .U32(geometry.shard)
      .U32(static_cast<uint32_t>(geometry.manifest.scheme))
      .U32(static_cast<uint32_t>(geometry.manifest.num_shards))
      .U32(static_cast<uint32_t>(geometry.manifest.total_records))
      .U32(geometry.num_attributes)
      .U32(geometry.distance_bits)
      .U32(geometry.shard_records);
  return msg;
}

Result<ShardGeometry> DecodeShardGeometry(const Message& msg) {
  if (msg.type != ShardOpCode(ShardOp::kShardPing)) {
    return BadFrame("not a kShardPing response");
  }
  // Coordinator and workers deploy as a unit (same build), so the geometry
  // frame carries no compatibility tail: it is exactly 28 bytes.
  FrameReader r(msg.aux);
  ShardGeometry geometry;
  geometry.shard = r.U32();
  const uint32_t scheme = r.U32();
  geometry.manifest.num_shards = r.U32();
  geometry.manifest.total_records = r.U32();
  geometry.num_attributes = r.U32();
  geometry.distance_bits = r.U32();
  geometry.shard_records = r.U32();
  SKNN_RETURN_NOT_OK(r.Done("shard frame: bad geometry payload"));
  if (scheme > static_cast<uint32_t>(ShardScheme::kByCluster)) {
    return BadFrame("unknown shard scheme");
  }
  geometry.manifest.scheme = static_cast<ShardScheme>(scheme);
  // The coordinator sizes its replica groups from num_shards, so the
  // manifest must be one MakeShardManifest accepts.
  const ShardManifest& m = geometry.manifest;
  if (m.num_shards == 0 || m.num_shards > m.total_records ||
      geometry.shard >= m.num_shards ||
      geometry.shard_records > m.total_records) {
    return BadFrame("geometry out of range");
  }
  return geometry;
}

Message EncodeShardQuery(const ShardQueryFrame& frame) {
  Message msg;
  msg.type = ShardOpCode(ShardOp::kShardQuery);
  msg.query_id = frame.query_id;
  FrameWriter w(msg.aux);
  w.U32(frame.k).U32(static_cast<uint32_t>(frame.protocol)).U32(
      frame.deadline_ms);
  msg.ints.reserve(frame.enc_query.size());
  for (const auto& c : frame.enc_query) msg.ints.push_back(c.value());
  return msg;
}

Result<ShardQueryFrame> DecodeShardQuery(const Message& msg) {
  if (msg.type != ShardOpCode(ShardOp::kShardQuery)) {
    return BadFrame("not a kShardQuery frame");
  }
  FrameReader r(msg.aux);
  ShardQueryFrame frame;
  frame.query_id = msg.query_id;
  frame.k = r.U32();
  const uint32_t protocol = r.U32();
  frame.deadline_ms = r.U32();
  SKNN_RETURN_NOT_OK(r.Done("shard frame: bad kShardQuery header"));
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
  FrameWriter w(msg.aux);
  w.U32(static_cast<uint32_t>(count))
      .U32(static_cast<uint32_t>(bits_per))
      .U32(static_cast<uint32_t>(m))
      .U32(c.distances.empty() ? 0 : 1);
  for (uint32_t gidx : c.global_indices) w.U32(gidx);
  w.F64(frame.seconds).Traffic(frame.traffic).Ops(frame.ops);
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
  if (msg.type != ShardOpCode(ShardOp::kShardCandidates)) {
    return BadFrame("not a kShardCandidates frame");
  }
  FrameReader r(msg.aux);
  const std::size_t count = r.U32();
  const std::size_t bits_per = r.U32();
  const std::size_t m = r.U32();
  const bool has_distances = r.U32() != 0;
  // The geometry sizes the ints: count * (bits_per + m) of them, plus count
  // distances in basic mode. Divide rather than multiply, so no claim can
  // overflow its way past the check.
  const std::size_t n = msg.ints.size();
  if (count == 0 || m == 0 || count > n || bits_per + m > n / count ||
      n != count * (bits_per + m) + (has_distances ? count : 0)) {
    return BadFrame("candidates payload geometry mismatch");
  }
  if (has_distances == (bits_per > 0)) {
    return BadFrame("candidates must carry bits XOR distances");
  }
  ShardCandidatesFrame frame;
  ShardCandidates& c = frame.candidates;
  if (has_distances) {
    c.global_indices.resize(count);
    for (uint32_t& gidx : c.global_indices) gidx = r.U32();
  }
  frame.seconds = r.F64();
  frame.traffic = r.Traffic();
  frame.ops = r.Ops();
  SKNN_RETURN_NOT_OK(r.Done("shard frame: candidates aux geometry mismatch"));
  std::size_t at = 0;
  auto next = [&] { return Ciphertext(msg.ints[at++]); };
  c.bits.assign(bits_per > 0 ? count : 0, EncryptedBits(bits_per));
  for (EncryptedBits& bits : c.bits) {
    for (Ciphertext& b : bits) b = next();
  }
  c.records.assign(count, std::vector<Ciphertext>(m));
  for (auto& record : c.records) {
    for (Ciphertext& attr : record) attr = next();
  }
  if (has_distances) {
    c.distances.resize(count);
    for (Ciphertext& d : c.distances) d = next();
  }
  return frame;
}

}  // namespace sknn
