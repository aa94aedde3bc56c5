// Typed protocol message and its wire codec.
//
// The two clouds exchange Messages: an opcode, a correlation id (so many
// requests can be in flight during parallel record fan-out), a query id (so
// many *queries* can be in flight — C2 keys its per-query state, e.g. Bob's
// outbox, by it), a vector of big integers (ciphertexts / plaintext
// residues) and optional raw bytes. Messages are actually serialized to a
// length-prefixed wire format — the traffic counters in channel.h therefore
// measure real communication cost, and the same codec would work over a
// socket.
#ifndef SKNN_NET_MESSAGE_H_
#define SKNN_NET_MESSAGE_H_

#include <cstdint>
#include <vector>

#include "bigint/bigint.h"
#include "common/status.h"

namespace sknn {

struct Message {
  uint16_t type = 0;
  uint64_t correlation_id = 0;
  /// Identifies which client query this exchange belongs to (0 = untagged).
  /// Assigned by C1's request scheduler; echoed back in responses.
  uint64_t query_id = 0;
  std::vector<BigInt> ints;
  std::vector<uint8_t> aux;

  /// \brief Serialized size in bytes (what the codec will emit).
  std::size_t WireSize() const;

  /// \brief Appends a little-endian u32 to aux — the aux-header convention
  /// shared by every opcode that carries geometry (l, count, k, indices).
  void AppendAuxU32(uint32_t v);
  /// \brief Reads the little-endian u32 at aux[offset..offset+4). The caller
  /// must have validated aux.size().
  uint32_t AuxU32At(std::size_t offset) const;

  /// \brief Little-endian u64 aux accessors — the front-end frames
  /// (net/query_wire.h) carry record attributes, counters and f64 bit
  /// patterns this wide.
  void AppendAuxU64(uint64_t v);
  uint64_t AuxU64At(std::size_t offset) const;
};

/// \brief Appends v to `aux` as a little-endian u32: the same encoding
/// Message::AppendAuxU32 writes, for an aux built before its Message.
void AppendU32(std::vector<uint8_t>& aux, uint32_t v);

/// \brief Wire format:
///   [type:2][cid:8][qid:8][n_ints:4]([len:4][bytes])*[aux_len:4][aux]
/// all integers little-endian; BigInts as big-endian magnitudes (values are
/// protocol residues, always non-negative).
class WireCodec {
 public:
  static std::vector<uint8_t> Encode(const Message& msg);
  static Result<Message> Decode(const std::vector<uint8_t>& bytes);
};

}  // namespace sknn

#endif  // SKNN_NET_MESSAGE_H_
