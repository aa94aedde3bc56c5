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
// What each opcode is lives in one place, its kOpTable row below: C2 reads
// it to check and route a request, C1 to check the reply. Adding an opcode
// is one enumerator, one row and one C2Service::Serve specialization, plus
// its line in docs/DEPLOY.md's opcode table (scripts/lint.sh checks it).
#ifndef SKNN_PROTO_OPCODES_H_
#define SKNN_PROTO_OPCODES_H_

#include <cstdint>

namespace sknn {

// Wire numbers; kReservedOpcodes below lists the retired ones.
enum class Op : uint16_t {
  kPing = 1,

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
  /// records queued under the request's own query id (0 is one more key),
  /// which are cleared; other queries' records stay queued.
  kFetchBobOutbox = 9,

  /// SM, Algorithm 1 step 2, for a whole SM stage in one message.
  /// ints = [a'_0, b'_0, a'_1, b'_1, ...]; response ints = [h'_0, h'_1, ...]
  /// where h_i = Epk(D(a'_i)*D(b'_i) mod N).
  kSmVec = 10,

  /// SMIN, Algorithm 3 step 2, one message per SMIN tournament level.
  /// aux = [l:u32][count:u32]; ints = count blocks of
  /// [Gamma'_1..Gamma'_l, L'_1..L'_l]; response ints = count blocks of
  /// [M'_1..M'_l, Epk(alpha)].
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

  /// Secure squaring (sm.h: SMIN's bit squares, and SSED's differences when
  /// a group is one slot). ints = [a'_0, a'_1, ...] with a'_i =
  /// Epk(a_i + r_i); response ints = [h_0, h_1, ...] where
  /// h_i = Epk(D(a'_i)^2 mod N), freshly randomized.
  kSqVec = 15,

  /// SBD Encrypted-LSB step without halving (sbd.h), one message per bit
  /// round t for all instances. aux = [t:u32] with t < key_bits; ints =
  /// [Y_0, Y_1, ...] with Y_i = Epk(2^t * (y_i + r_i)); response ints =
  /// [Epk(parity(D(Y_0) * 2^(-t) mod N)), ...], freshly randomized.
  kLsbShiftVec = 16,

  /// SSED's packed squares (ssed.h; docs/CRYPTO.md section 10). aux =
  /// [slot_bits:u32][slots:u32]; ints = [c_0, c_1, ...], one per group of
  /// a record's attributes. C2 reads u_i = N - D(c_i) as `slots` slots of
  /// `slot_bits` bits, least significant first (slot_bits = 0 with slots
  /// = 1: all of u_i), and answers ints = [Epk(sum of u_i's slots^2 mod
  /// N), ...], freshly randomized. Refused unless slots >= 1, slot_bits *
  /// slots < key_bits, and slot_bits > 0 or slots = 1.
  kSqSumVec = 17,

  /// Error response emitted by the RPC server (status text in aux).
  kError = 0xFFFF,
};

constexpr uint16_t OpCode(Op op) { return static_cast<uint16_t>(op); }

/// Retired wire numbers, never to be reused: 2, 3 and 5 carried the
/// per-worker chunked forms of SM, SBD's encrypted-LSB step and SMIN phase
/// 2, 4 SBD's verification round, which short masks made unnecessary, and
/// 11 the halving form of the encrypted-LSB step that kLsbShiftVec
/// replaced. They have no kOpTable row, so C2 answers them as unknown
/// opcodes.
inline constexpr uint16_t kReservedOpcodes[] = {2, 3, 4, 5, 11};

/// \brief What one live opcode is, for both clouds.
struct OpSpec {
  Op op;
  const char* name;
  /// C2 checks every request int against Z*_{N^2} (0, a multiple of p or q,
  /// N^2 or above is refused with kProtocolError) before the handler runs,
  /// and hands the handler the checked ciphertexts.
  bool decrypts;
  /// C1 checks every reply int against Z*_{N^2} before it computes with
  /// (and negates) it.
  bool returns_ciphertexts;
  /// No Paillier work of its own: C2 attributes nothing to the query's op
  /// ledger, which would re-create an entry a fetch just drained.
  bool meta;
  /// The request carries an aux header, which the handler parses. C2
  /// refuses any aux on a row without one.
  bool takes_aux;
};

/// One row per live opcode. kError is a reply, never a request, and has
/// none.
inline constexpr OpSpec kOpTable[] = {
    // op                     name                   decr.  ret.ct meta   aux
    {Op::kPing,               "kPing",               false, false, true,  false},
    {Op::kMinPointerBatch,    "kMinPointerBatch",    true,  true,  false, false},
    {Op::kTopKIndices,        "kTopKIndices",        true,  false, false, true},
    {Op::kMaskedDecryptToBob, "kMaskedDecryptToBob", true,  false, false, false},
    {Op::kFetchBobOutbox,     "kFetchBobOutbox",     false, false, true,  false},
    {Op::kSmVec,              "kSmVec",              true,  true,  false, false},
    {Op::kSminPhase2Vec,      "kSminPhase2Vec",      true,  true,  false, true},
    {Op::kFetchQueryOps,      "kFetchQueryOps",      false, false, true,  false},
    {Op::kFetchPoolStats,     "kFetchPoolStats",     false, false, true,  false},
    {Op::kSqVec,              "kSqVec",              true,  true,  false, false},
    {Op::kLsbShiftVec,        "kLsbShiftVec",        true,  true,  false, true},
    {Op::kSqSumVec,           "kSqSumVec",           true,  true,  false, true},
};

/// \brief The row of wire number `type`, or nullptr if it has none (a
/// reserved or never-assigned number, or kError).
constexpr const OpSpec* FindOpSpec(uint16_t type) {
  for (const OpSpec& spec : kOpTable) {
    if (OpCode(spec.op) == type) return &spec;
  }
  return nullptr;
}

}  // namespace sknn

#endif  // SKNN_PROTO_OPCODES_H_
