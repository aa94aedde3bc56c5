// Execution context shared by the C1-side protocol drivers: the public key,
// the RPC client to C2, and an optional thread pool for the parallel variant
// (paper Section 5.3). Each batched protocol stage is one message to C2,
// which fans its independent instances across its own pool; when a C1 pool
// is present, local homomorphic work fans out with ParallelFor — this is the
// library's analogue of the paper's OpenMP parallelization.
#ifndef SKNN_PROTO_CONTEXT_H_
#define SKNN_PROTO_CONTEXT_H_

#include <chrono>
#include <functional>
#include <vector>

#include "common/thread_pool.h"
#include "crypto/paillier.h"
#include "net/rpc.h"
#include "proto/opcodes.h"
#include "proto/query_meter.h"

namespace sknn {

class ProtoContext {
 public:
  /// `query_id` tags every RPC issued through this context so C2 can key its
  /// per-query state (Bob outbox, op ledger) — 0 means untagged. `meter`, if
  /// set, receives the context's exact per-query wire-traffic accounting.
  /// The trailing `bool` is ignored. The one caller that passes it is the
  /// benchmark's `TwoParty::Run` (bench/sknn_bench/layers.h); ROADMAP
  /// item 1 removes the parameter together with that argument when the
  /// benchmark next changes.
  ProtoContext(const PaillierPublicKey* pk, RpcClient* client,
               ThreadPool* pool = nullptr, uint64_t query_id = 0,
               QueryMeter* meter = nullptr, bool /*ignored*/ = false)
      : pk_(pk), client_(client), pool_(pool), query_id_(query_id),
        meter_(meter) {}

  const PaillierPublicKey& pk() const { return *pk_; }
  /// \brief The C2 link, so a caller can derive a sibling context (its own
  /// query id or meter) over the same link.
  RpcClient* client() const { return client_; }
  ThreadPool* pool() const { return pool_; }
  uint64_t query_id() const { return query_id_; }
  QueryMeter* meter() const { return meter_; }

  /// \brief Arms a per-query deadline: every Exchange from here on bounds
  /// its RPC wait by the time remaining and fails with kDeadlineExceeded
  /// once it runs out — so a hung C2 (or a hung worker, via the shard
  /// context that copies this) can never stall a query past its budget.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  bool has_deadline() const { return has_deadline_; }
  std::chrono::steady_clock::time_point deadline() const { return deadline_; }

  /// \brief Single RPC round trip. Fails with C2's own Status (its code
  /// intact) if C2 refused the request, kUnavailable if the link died, or
  /// with kProtocolError if an opcode whose kOpTable row returns ciphertexts
  /// (proto/opcodes.h) returned a value outside Z*_{N^2}.
  Result<Message> Call(Op op, std::vector<BigInt> ints,
                       std::vector<uint8_t> aux = {});

  /// \brief Runs `fn(i)` for i in [0, count), parallel when a pool is set.
  void ForEach(std::size_t count,
               const std::function<void(std::size_t)>& fn) const;

  /// \brief Batch call: `ints.size() / in_arity` independent items, each
  /// contributing `in_arity` request ints and producing `out_arity` response
  /// ints, in one message — the per-stage message count is 1 regardless of
  /// c1_threads. Fails with kInvalidArgument if `ints` is not a whole number
  /// of items, and with kProtocolError if C2 answers with the wrong number
  /// of ints. An empty batch returns empty without a round trip.
  Result<std::vector<BigInt>> CallBatch(Op op, std::vector<BigInt> ints,
                                        std::size_t in_arity,
                                        std::size_t out_arity,
                                        std::vector<uint8_t> aux = {});

 private:
  /// \brief Issues one tagged, metered RPC (shared by Call / CallBatch).
  Result<Message> Exchange(Message request);

  const PaillierPublicKey* pk_;
  RpcClient* client_;
  ThreadPool* pool_;
  uint64_t query_id_ = 0;
  QueryMeter* meter_ = nullptr;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace sknn

#endif  // SKNN_PROTO_CONTEXT_H_
