// Coordinator <-> shard-worker wire frames.
//
// A sharded front end (docs/DEPLOY.md) fans each query out to s shard
// workers (tools/sknn_c1_shard), each holding one slice of Epk(T) and its
// own link to C2. The frames ride the existing Message/WireCodec/RpcClient
// stack, in an opcode space disjoint from both the C1<->C2 Op space and the
// client-facing FrontendOp space, so a frame from the wrong link is
// rejected, never misinterpreted.
//
//   kShardPing       coordinator -> worker at connect: the worker answers
//                    with its geometry (shard index, manifest, db shape) so
//                    a misconfigured worker set fails fast, not per query.
//   kShardQuery      one query's fan-out leg: Epk(Q), k, protocol and the
//                    attempt's deadline_ms (0 = unbounded); the
//                    query id rides the Message header so the worker tags
//                    its C2 exchanges with it (one ledger entry per query
//                    across coordinator AND workers).
//   kShardCandidates the worker's min(k, shard size) local candidates plus
//                    its stage instrumentation (seconds, C2 traffic, ops).
//
// A worker's refusal is no frame of this space: its handler returns the
// Status, and the RPC layer (net/rpc.h) carries it, code included, as the
// kError status frame every link shares. 0x0204 (kShardError, the former
// shard-only status frame) is reserved: never reuse it.
//
// Each codec is the frame's field list over net/message.h's FrameWriter and
// FrameReader, so every decoder is bounds-checked and exact: a frame is
// accepted only at its one documented length (kShardQuery: 12 bytes).
#ifndef SKNN_NET_SHARD_WIRE_H_
#define SKNN_NET_SHARD_WIRE_H_

#include "core/query_api.h"
#include "core/sharding.h"
#include "net/message.h"

namespace sknn {

enum class ShardOp : uint16_t {
  kShardPing = 0x0201,
  kShardQuery = 0x0202,
  kShardCandidates = 0x0203,
  // 0x0204 is reserved (see above).
};

inline uint16_t ShardOpCode(ShardOp op) { return static_cast<uint16_t>(op); }

/// \brief What a worker reports about itself at connect time.
struct ShardGeometry {
  uint32_t shard = 0;
  ShardManifest manifest;
  uint32_t num_attributes = 0;
  uint32_t distance_bits = 0;
  /// Records this worker's slice holds. For kContiguous/kRoundRobin this is
  /// derivable from the manifest; for kByCluster (data-dependent slices) it
  /// is the only way the coordinator learns shard sizes, which the clustered
  /// candidate-selection rule and per-shard stats need.
  uint32_t shard_records = 0;

  bool operator==(const ShardGeometry&) const = default;
};

Message EncodeShardPing();
Message EncodeShardGeometry(const ShardGeometry& geometry);
/// \brief Refuses (ProtocolError) a geometry MakeShardManifest would not
/// build: num_shards outside [1, total_records], shard >= num_shards, or
/// shard_records > total_records.
Result<ShardGeometry> DecodeShardGeometry(const Message& msg);

/// \brief One query's shard leg.
struct ShardQueryFrame {
  uint64_t query_id = 0;
  unsigned k = 1;
  QueryProtocol protocol = QueryProtocol::kSecure;
  /// Milliseconds this attempt may take, 0 = unbounded. The worker arms its
  /// ProtoContext deadline with it so a hung C2 fails the stage as
  /// kDeadlineExceeded instead of pinning the worker thread forever.
  uint32_t deadline_ms = 0;
  std::vector<Ciphertext> enc_query;
};

Message EncodeShardQuery(const ShardQueryFrame& frame);
Result<ShardQueryFrame> DecodeShardQuery(const Message& msg);

/// \brief A worker's answer: candidates plus stage instrumentation.
struct ShardCandidatesFrame {
  ShardCandidates candidates;
  double seconds = 0;
  TrafficStats traffic;
  OpSnapshot ops;
};

Message EncodeShardCandidates(const ShardCandidatesFrame& frame);
Result<ShardCandidatesFrame> DecodeShardCandidates(const Message& msg);

}  // namespace sknn

#endif  // SKNN_NET_SHARD_WIRE_H_
