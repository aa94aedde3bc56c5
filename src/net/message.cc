#include "net/message.h"

#include <algorithm>

namespace sknn {
namespace {

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

bool GetU16(const std::vector<uint8_t>& in, std::size_t& pos, uint16_t* v) {
  if (pos + 2 > in.size()) return false;
  *v = static_cast<uint16_t>(in[pos]) | (static_cast<uint16_t>(in[pos + 1]) << 8);
  pos += 2;
  return true;
}

bool GetU32(const std::vector<uint8_t>& in, std::size_t& pos, uint32_t* v) {
  if (pos + 4 > in.size()) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(in[pos + i]) << (8 * i);
  pos += 4;
  return true;
}

bool GetU64(const std::vector<uint8_t>& in, std::size_t& pos, uint64_t* v) {
  if (pos + 8 > in.size()) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(in[pos + i]) << (8 * i);
  pos += 8;
  return true;
}

}  // namespace

void AppendU32(std::vector<uint8_t>& aux, uint32_t v) { PutU32(aux, v); }

void Message::AppendAuxU32(uint32_t v) { PutU32(aux, v); }

uint32_t Message::AuxU32At(std::size_t offset) const {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(aux[offset + i]) << (8 * i);
  }
  return v;
}

void Message::AppendAuxU64(uint64_t v) { PutU64(aux, v); }

uint64_t Message::AuxU64At(std::size_t offset) const {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(aux[offset + i]) << (8 * i);
  }
  return v;
}

std::size_t Message::WireSize() const {
  std::size_t size = 2 + 8 + 8 + 4 + 4 + aux.size();
  for (const auto& v : ints) {
    size += 4 + (v.IsZero() ? 0 : (v.BitLength() + 7) / 8);
  }
  return size;
}

std::vector<uint8_t> WireCodec::Encode(const Message& msg) {
  std::vector<uint8_t> out;
  out.reserve(msg.WireSize());
  PutU16(out, msg.type);
  PutU64(out, msg.correlation_id);
  PutU64(out, msg.query_id);
  PutU32(out, static_cast<uint32_t>(msg.ints.size()));
  for (const auto& v : msg.ints) {
    std::vector<uint8_t> bytes = v.ToBytes();
    PutU32(out, static_cast<uint32_t>(bytes.size()));
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
  PutU32(out, static_cast<uint32_t>(msg.aux.size()));
  out.insert(out.end(), msg.aux.begin(), msg.aux.end());
  return out;
}

Result<Message> WireCodec::Decode(const std::vector<uint8_t>& bytes) {
  Message msg;
  std::size_t pos = 0;
  uint32_t n_ints = 0, aux_len = 0;
  if (!GetU16(bytes, pos, &msg.type) ||
      !GetU64(bytes, pos, &msg.correlation_id) ||
      !GetU64(bytes, pos, &msg.query_id) ||
      !GetU32(bytes, pos, &n_ints)) {
    return Status::ProtocolError("WireCodec: truncated header");
  }
  // The count is the peer's claim: reserve only what the remaining bytes can
  // hold (each int carries at least its 4-byte length prefix).
  msg.ints.reserve(std::min<std::size_t>(n_ints, (bytes.size() - pos) / 4));
  for (uint32_t i = 0; i < n_ints; ++i) {
    uint32_t len = 0;
    if (!GetU32(bytes, pos, &len) || pos + len > bytes.size()) {
      return Status::ProtocolError("WireCodec: truncated integer");
    }
    std::vector<uint8_t> chunk(bytes.begin() + pos, bytes.begin() + pos + len);
    msg.ints.push_back(BigInt::FromBytes(chunk));
    pos += len;
  }
  if (!GetU32(bytes, pos, &aux_len) || pos + aux_len > bytes.size()) {
    return Status::ProtocolError("WireCodec: truncated aux");
  }
  msg.aux.assign(bytes.begin() + pos, bytes.begin() + pos + aux_len);
  pos += aux_len;
  if (pos != bytes.size()) {
    return Status::ProtocolError("WireCodec: trailing bytes");
  }
  return msg;
}

}  // namespace sknn
