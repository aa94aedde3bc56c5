#include "net/message.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "crypto/op_counters.h"

namespace sknn {

std::string TrafficStats::ToString() const {
  std::ostringstream os;
  os << "C1->C2: " << frames_a_to_b << " frames / " << bytes_a_to_b
     << " B; C2->C1: " << frames_b_to_a << " frames / " << bytes_b_to_a
     << " B";
  return os.str();
}

FrameWriter& FrameWriter::Le(uint64_t v, std::size_t width) {
  const std::size_t at = out_.size();
  out_.resize(at + width);
  for (std::size_t i = 0; i < width; ++i) {
    out_[at + i] = static_cast<uint8_t>(v >> (8 * i));
  }
  return *this;
}

FrameWriter& FrameWriter::U8(uint8_t v) { return Le(v, 1); }
FrameWriter& FrameWriter::U16(uint16_t v) { return Le(v, 2); }
FrameWriter& FrameWriter::U32(uint32_t v) { return Le(v, 4); }
FrameWriter& FrameWriter::U64(uint64_t v) { return Le(v, 8); }

FrameWriter& FrameWriter::F64(double v) {
  return U64(std::bit_cast<uint64_t>(v));
}

FrameWriter& FrameWriter::Str(std::string_view text) {
  U32(static_cast<uint32_t>(text.size()));
  return Text(text);
}

FrameWriter& FrameWriter::Bytes(const std::vector<uint8_t>& bytes) {
  U32(static_cast<uint32_t>(bytes.size()));
  out_.insert(out_.end(), bytes.begin(), bytes.end());
  return *this;
}

FrameWriter& FrameWriter::Text(std::string_view text) {
  const std::size_t at = out_.size();
  out_.resize(at + text.size());
  std::copy(text.begin(), text.end(), out_.begin() + at);
  return *this;
}

FrameWriter& FrameWriter::Traffic(const TrafficStats& traffic) {
  return U64(traffic.frames_a_to_b)
      .U64(traffic.bytes_a_to_b)
      .U64(traffic.frames_b_to_a)
      .U64(traffic.bytes_b_to_a);
}

FrameWriter& FrameWriter::Ops(const OpSnapshot& ops) {
  return U64(ops.encryptions)
      .U64(ops.decryptions)
      .U64(ops.exponentiations)
      .U64(ops.multiplications)
      .U64(ops.inversions);
}

const uint8_t* FrameReader::Take(std::size_t n) {
  if (!ok_ || n > remaining()) {
    ok_ = false;
    return nullptr;
  }
  const uint8_t* at = bytes_.data() + pos_;
  pos_ += n;
  return at;
}

uint64_t FrameReader::Le(std::size_t width) {
  const uint8_t* at = Take(width);
  uint64_t v = 0;
  if (at == nullptr) return v;
  for (std::size_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(at[i]) << (8 * i);
  }
  return v;
}

uint8_t FrameReader::U8() { return static_cast<uint8_t>(Le(1)); }
uint16_t FrameReader::U16() { return static_cast<uint16_t>(Le(2)); }
uint32_t FrameReader::U32() { return static_cast<uint32_t>(Le(4)); }
uint64_t FrameReader::U64() { return Le(8); }

double FrameReader::F64() { return std::bit_cast<double>(U64()); }

std::string FrameReader::Str(std::size_t max_len) {
  std::vector<uint8_t> bytes = Bytes(max_len);
  return std::string(bytes.begin(), bytes.end());
}

std::vector<uint8_t> FrameReader::Bytes(std::size_t max_len) {
  const uint32_t len = U32();
  if (len > max_len) ok_ = false;
  const uint8_t* at = Take(len);
  if (at == nullptr) return {};
  return std::vector<uint8_t>(at, at + len);
}

std::string FrameReader::Text() {
  const std::size_t len = remaining();
  const uint8_t* at = Take(len);
  if (at == nullptr) return {};
  return std::string(at, at + len);
}

TrafficStats FrameReader::Traffic() {
  TrafficStats traffic;
  traffic.frames_a_to_b = U64();
  traffic.bytes_a_to_b = U64();
  traffic.frames_b_to_a = U64();
  traffic.bytes_b_to_a = U64();
  return traffic;
}

OpSnapshot FrameReader::Ops() {
  OpSnapshot ops;
  ops.encryptions = U64();
  ops.decryptions = U64();
  ops.exponentiations = U64();
  ops.multiplications = U64();
  ops.inversions = U64();
  return ops;
}

uint32_t FrameReader::Count(std::size_t min_item_bytes) {
  const uint32_t count = U32();
  if (min_item_bytes != 0 && count > remaining() / min_item_bytes) {
    ok_ = false;
    return 0;
  }
  return count;
}

Status FrameReader::Done(const char* what) const {
  if (!ok_ || remaining() != 0) return Status::ProtocolError(what);
  return Status::OK();
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
  FrameWriter w(out);
  w.U16(msg.type).U64(msg.correlation_id).U64(msg.query_id);
  w.U32(static_cast<uint32_t>(msg.ints.size()));
  for (const auto& v : msg.ints) w.Bytes(v.ToBytes());
  w.Bytes(msg.aux);
  return out;
}

Result<Message> WireCodec::Decode(const std::vector<uint8_t>& bytes) {
  FrameReader r(bytes);
  Message msg;
  msg.type = r.U16();
  msg.correlation_id = r.U64();
  msg.query_id = r.U64();
  // The int count is the peer's claim: each int carries at least its 4-byte
  // length prefix, so Count bounds the vector by the frame's own size.
  msg.ints.resize(r.Count(4));
  for (BigInt& v : msg.ints) v = BigInt::FromBytes(r.Bytes(bytes.size()));
  msg.aux = r.Bytes(bytes.size());
  SKNN_RETURN_NOT_OK(r.Done("WireCodec: truncated frame or trailing bytes"));
  return msg;
}

Message EncodeStatusFrame(uint16_t type, const Status& status) {
  Message msg;
  msg.type = type;
  FrameWriter(msg.aux)
      .U32(static_cast<uint32_t>(status.code()))
      .Text(status.message());
  return msg;
}

Status DecodeStatusFrame(uint16_t type, const Message& msg) {
  FrameReader r(msg.aux);
  const uint32_t code = r.U32();
  std::string text = r.Text();
  if (msg.type != type || !r.ok()) {
    return Status::ProtocolError("malformed status frame of type " +
                                 std::to_string(msg.type));
  }
  if (code == 0 || code > static_cast<uint32_t>(kLastStatusCode)) {
    return Status::ProtocolError("status frame: unknown status code " +
                                 std::to_string(code));
  }
  return Status(static_cast<StatusCode>(code), std::move(text));
}

}  // namespace sknn
