// Opcodes of the C1 -> C2 RPC vocabulary.
//
// Every interactive step of the paper's sub-protocols maps to one opcode.
// All opcodes are *batched*: a request carries many independent instances so
// that, e.g., the n*m secure squarings of an SSED round over the whole
// database cost one round trip, not n*m. Batching does not change what C2
// learns (each instance is processed independently) — it only amortizes
// message framing, exactly like the paper's remark that per-record
// computations are independent (Section 5.3).
//
// Every opcode that decrypts checks each request ciphertext first: a value
// outside Z*_{N^2} (0, a multiple of p or q, N^2 or above) is answered with
// kProtocolError before C2 decrypts anything.
#ifndef SKNN_PROTO_OPCODES_H_
#define SKNN_PROTO_OPCODES_H_

#include <cstdint>

namespace sknn {

enum class Op : uint16_t {
  kPing = 1,

  /// SM, Algorithm 1 step 2. ints = [a'_0, b'_0, a'_1, b'_1, ...];
  /// response ints = [h'_0, h'_1, ...] where h_i = D(a'_i)*D(b'_i) mod N.
  kSmBatch = 2,

  /// SBD Encrypted-LSB step (Samanthula-Jiang [21]). ints = [Y_0, Y_1, ...]
  /// with Y_i = Epk(z_i + r_i); response ints = [Epk(y_0 mod 2), ...].
  kLsbBatch = 3,

  /// SBD verification round (SVR). ints = [Epk(v_i * gamma_i), ...];
  /// response aux[i] = 1 if D(.) == 0 (decomposition correct) else 0.
  kSvrCheckBatch = 4,

  /// SMIN, Algorithm 3 step 2. aux = [l:u32][count:u32]; ints = count blocks
  /// of [Gamma'_1..Gamma'_l, L'_1..L'_l]; response ints = count blocks of
  /// [M'_1..M'_l, Epk(alpha)].
  kSminPhase2Batch = 5,

  /// SkNN_m, Algorithm 6 step 3(c). ints = [beta_0..beta_{n-1}];
  /// response ints = [U_0..U_{n-1}], exactly one U_i = Epk(1).
  kMinPointerBatch = 6,

  /// SkNN_b, Algorithm 5 step 3. aux = [k:u32]; ints = [Epk(d_0), ...];
  /// response aux = k little-endian u32 indices (top-k smallest).
  kTopKIndices = 7,

  /// SkNN_b step 5 / SkNN_m final step: C1 sends randomized records gamma;
  /// C2 decrypts them *into its Bob outbox* (they are sent to Bob, never
  /// back to C1). Response is an empty ack.
  kMaskedDecryptToBob = 8,

  /// Bob's pickup of his decrypted masked result (C2 -> Bob leg). Issued on
  /// Bob's OWN connection to C2 in the two-process deployment — never on
  /// C1's connection, or C1 could unmask the result. Response ints = the
  /// outbox contents, which are cleared.
  kFetchBobOutbox = 9,

  // -- Vectorized wire forms (PR 2 hot path) --
  //
  // Semantically identical to their scalar counterparts, but C1 ships the
  // ENTIRE stage vector in one message instead of one chunk per C1 worker,
  // and C2 fans the independent instances out across its own thread pool.
  // Per-stage message count becomes exactly 1 regardless of record count and
  // thread fan-out; what C2 decrypts is unchanged, so the security argument
  // carries over verbatim.

  /// Vectorized kSmBatch: same geometry, whole SM stage in one message.
  kSmVec = 10,

  /// Vectorized kLsbBatch: one message per SBD bit-round for all instances.
  kLsbVec = 11,

  /// Vectorized kSminPhase2Batch: one message per SMIN tournament level.
  kSminPhase2Vec = 12,

  /// Drains C2's Paillier-operation ledger entry for the tagged query:
  /// response aux = 5 little-endian u64 (encryptions, decryptions,
  /// exponentiations, multiplications, inversions). Issued by a C1 front
  /// end running against a REMOTE C2 (engine CreateWithRemoteC2) after the
  /// protocol finishes, so QueryResponse::ops stays exact across process
  /// boundaries.
  kFetchQueryOps = 13,

  /// Drains nothing: reports C2's randomizer-pool effectiveness counters.
  /// Response aux = 4 little-endian u64 (hits, misses, stock, capacity);
  /// capacity = 0 when no pool is attached. Issued by a C1 front end
  /// answering a kServiceStats control-plane frame, so operators see both
  /// clouds' pools in one place.
  kFetchPoolStats = 14,

  /// Secure squaring (sm.h, SecureSquareBatch). ints = [a'_0, a'_1, ...]
  /// with a'_i = Epk(a_i + r_i); response ints = [h_0, h_1, ...] where
  /// h_i = Epk(D(a'_i)^2 mod N), freshly randomized. Vector-only: there is
  /// no scalar form, and C2 fans a request's instances across its pool.
  kSqVec = 15,

  /// Error response emitted by the RPC server (status text in aux).
  kError = 0xFFFF,
};

/// \brief The vectorized wire form of `op`, or `op` itself when the opcode
/// has no vector form (it is already a single-message exchange).
inline Op VectorForm(Op op) {
  switch (op) {
    case Op::kSmBatch:
      return Op::kSmVec;
    case Op::kLsbBatch:
      return Op::kLsbVec;
    case Op::kSminPhase2Batch:
      return Op::kSminPhase2Vec;
    default:
      return op;
  }
}

inline uint16_t OpCode(Op op) { return static_cast<uint16_t>(op); }

}  // namespace sknn

#endif  // SKNN_PROTO_OPCODES_H_
