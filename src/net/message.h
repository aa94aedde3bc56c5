// Typed protocol message, its wire codec, and the one frame layer every
// payload is written and read through.
//
// The two clouds exchange Messages: an opcode, a correlation id (so many
// requests can be in flight during parallel record fan-out), a query id (so
// many *queries* can be in flight — C2 keys its per-query state, e.g. Bob's
// outbox, by it), a vector of big integers (ciphertexts / plaintext
// residues) and optional raw bytes (aux). Every link is a stream socket
// (net/socket.h) carrying each frame's WireCodec bytes behind a 4-byte
// length prefix; TrafficStats counts the WireCodec bytes.
//
// Every byte of a frame, the header included, goes through FrameWriter and
// FrameReader. A frame's codec is its field list: the writer appends the
// fields in order, and the reader reads them back in the same order. The
// reader is bounds-checked: a read past the end yields 0 and fails the
// frame, a count is refused when its items could not fit in the bytes
// left, and Done() refuses a frame with bytes left over. So a decoder
// cannot read out of bounds or size memory from a peer's header alone.
// The encoding rules are stated once in docs/API.md ("Encoding rules").
#ifndef SKNN_NET_MESSAGE_H_
#define SKNN_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bigint/bigint.h"
#include "common/status.h"

namespace sknn {

struct OpSnapshot;

/// \brief C1<->C2 traffic in frames and bytes, per direction. C1 is the
/// "A" side of the link. Counted per query at the call layer (QueryMeter,
/// proto/query_meter.h) and carried in shard and query responses.
struct TrafficStats {
  uint64_t frames_a_to_b = 0;
  uint64_t bytes_a_to_b = 0;
  uint64_t frames_b_to_a = 0;
  uint64_t bytes_b_to_a = 0;

  uint64_t total_bytes() const { return bytes_a_to_b + bytes_b_to_a; }
  uint64_t total_frames() const { return frames_a_to_b + frames_b_to_a; }
  TrafficStats operator+(const TrafficStats& o) const {
    return {frames_a_to_b + o.frames_a_to_b, bytes_a_to_b + o.bytes_a_to_b,
            frames_b_to_a + o.frames_b_to_a, bytes_b_to_a + o.bytes_b_to_a};
  }
  std::string ToString() const;
};

struct Message {
  uint16_t type = 0;
  uint64_t correlation_id = 0;
  /// Identifies which client query this exchange belongs to (0 = untagged).
  /// Assigned by the C1 engine per query; echoed back in responses.
  uint64_t query_id = 0;
  std::vector<BigInt> ints;
  std::vector<uint8_t> aux;

  /// \brief Serialized size in bytes (what the codec will emit).
  std::size_t WireSize() const;
};

/// \brief Appends little-endian fields to a byte buffer (usually a
/// Message's aux). Calls chain: FrameWriter(msg.aux).U32(k).Str(name).
class FrameWriter {
 public:
  explicit FrameWriter(std::vector<uint8_t>& out) : out_(out) {}

  FrameWriter& U8(uint8_t v);
  FrameWriter& U16(uint16_t v);
  FrameWriter& U32(uint32_t v);
  FrameWriter& U64(uint64_t v);
  /// IEEE-754 bit pattern as a u64.
  FrameWriter& F64(double v);
  /// [len:u32][bytes].
  FrameWriter& Str(std::string_view text);
  FrameWriter& Bytes(const std::vector<uint8_t>& bytes);
  /// The rest of the frame as text: no length prefix, so it comes last.
  FrameWriter& Text(std::string_view text);
  /// [frames_a_to_b][bytes_a_to_b][frames_b_to_a][bytes_b_to_a], 4 x u64.
  FrameWriter& Traffic(const TrafficStats& traffic);
  /// [encryptions][decryptions][exponentiations][multiplications]
  /// [inversions], 5 x u64.
  FrameWriter& Ops(const OpSnapshot& ops);

 private:
  /// The low `width` bytes of v, little-endian.
  FrameWriter& Le(uint64_t v, std::size_t width);

  std::vector<uint8_t>& out_;
};

/// \brief Reads back what FrameWriter wrote, with every read bounds-checked.
/// A read past the end returns 0 (empty for strings) and fails the reader
/// for good; Done() reports the outcome. The reader borrows `bytes`.
class FrameReader {
 public:
  explicit FrameReader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  double F64();
  /// [len:u32][bytes]; fails when len > max_len or the bytes run short.
  std::string Str(std::size_t max_len);
  std::vector<uint8_t> Bytes(std::size_t max_len);
  /// Every byte left, as text.
  std::string Text();
  TrafficStats Traffic();
  OpSnapshot Ops();
  /// \brief A u32 item count, refused (0, reader failed) when `count`
  /// items of at least `min_item_bytes` each could not fit in the bytes
  /// left. Sizing a container from the result is therefore bounded by the
  /// frame itself. min_item_bytes = 0 bounds nothing; a caller passing 0
  /// must not allocate per item.
  uint32_t Count(std::size_t min_item_bytes);

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool ok() const { return ok_; }
  /// \brief OK when every read fit and no byte is left over; otherwise
  /// ProtocolError(what).
  Status Done(const char* what) const;

 private:
  /// Start of the next n bytes, or nullptr (and the reader fails).
  const uint8_t* Take(std::size_t n);
  /// A `width`-byte little-endian value, 0 when it does not fit.
  uint64_t Le(std::size_t width);

  const std::vector<uint8_t>& bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// \brief Wire format:
///   [type:2][cid:8][qid:8][n_ints:4]([len:4][bytes])*[aux_len:4][aux]
/// all integers little-endian; BigInts as big-endian magnitudes (values are
/// protocol residues, always non-negative).
class WireCodec {
 public:
  static std::vector<uint8_t> Encode(const Message& msg);
  static Result<Message> Decode(const std::vector<uint8_t>& bytes);
};

/// \brief A status frame: aux = [status code:u32][message text]. The RPC
/// layer's kError answer on every link (net/rpc.h) and the front end's
/// kQueryError (net/query_wire.h) use this shape. `status` must be an
/// error.
Message EncodeStatusFrame(uint16_t type, const Status& status);
/// \brief The Status a status frame of `type` carries. Never OK: a frame of
/// another type, one shorter than its code, or one whose code is OK or not
/// a defined StatusCode is a ProtocolError.
Status DecodeStatusFrame(uint16_t type, const Message& msg);

}  // namespace sknn

#endif  // SKNN_NET_MESSAGE_H_
