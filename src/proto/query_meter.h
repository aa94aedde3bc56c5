// Per-query instrumentation sink, threaded through ProtoContext into the
// protocol drivers (sknn_b / sknn_m). One QueryMeter lives for the duration
// of one query; it accumulates
//   * the Paillier operations performed on the query's behalf (via the
//     thread-local OpCounters sink, installed by the engine and propagated
//     into pool workers by ProtoContext::ForEach), and
//   * the exact C1<->C2 wire traffic of the query's RPC exchanges (counted
//     at the call layer, not from link-level globals, so concurrent
//     queries cannot pollute each other's numbers).
// An engine-level OpCounters::Snapshot() delta would only be correct for
// one query at a time.
#ifndef SKNN_PROTO_QUERY_METER_H_
#define SKNN_PROTO_QUERY_METER_H_

#include <atomic>
#include <cstdint>

#include "crypto/op_counters.h"
#include "net/message.h"

namespace sknn {

class QueryMeter {
 public:
  /// \brief C1-side Paillier operation sink for this query.
  OpAccumulator& ops() { return ops_; }

  /// \brief Accounts one request/response RPC exchange with C2.
  void CountExchange(std::size_t request_bytes, std::size_t response_bytes) {
    frames_to_c2_.fetch_add(1, kOrder);
    bytes_to_c2_.fetch_add(request_bytes, kOrder);
    frames_from_c2_.fetch_add(1, kOrder);
    bytes_from_c2_.fetch_add(response_bytes, kOrder);
  }

  /// \brief The query's C1<->C2 traffic (net/message.h's TrafficStats; C1
  /// is the "A" side of the link).
  TrafficStats traffic() const {
    return {frames_to_c2_.load(kOrder), bytes_to_c2_.load(kOrder),
            frames_from_c2_.load(kOrder), bytes_from_c2_.load(kOrder)};
  }

 private:
  static constexpr std::memory_order kOrder = std::memory_order_relaxed;
  OpAccumulator ops_;
  std::atomic<uint64_t> frames_to_c2_{0};
  std::atomic<uint64_t> bytes_to_c2_{0};
  std::atomic<uint64_t> frames_from_c2_{0};
  std::atomic<uint64_t> bytes_from_c2_{0};
};

}  // namespace sknn

#endif  // SKNN_PROTO_QUERY_METER_H_
