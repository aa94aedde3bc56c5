// Secure Squared Euclidean Distance (SSED), Algorithm 2, with packed
// squares (docs/CRYPTO.md section 10).
//
// C1 holds two attribute-wise encrypted vectors; the squared distance
// |X-Y|^2 = sum_j d_j^2, d_j = x_j - y_j, is assembled from homomorphic
// differences, one blinded squaring round trip and a homomorphic sum. The
// paper squares each d_j on its own; here the blinded differences of one
// record share the slots of one plaintext, so C2 decrypts one value per
// group of attributes (sm.h's SecureSquareSumBatch runs the round trip):
//   - C1 sends Epk(-U) per group, U = sum_j (r_j - d_j) * 2^(j*s), with
//     sm.h's blinds r_j;
//   - C2 decrypts, reads N - D(.) = U slot by slot and answers
//     Epk(sum_j (r_j - d_j)^2) (Op::kSqSumVec);
//   - C1 strips the blinds, since d^2 = (r - d)^2 + 2rd - r^2:
//     Epk(sum_j d_j^2) = reply * prod_j Epk(d_j)^(2 r_j)
//                        * Epk(-sum_j r_j^2).
// With short blinds each slot r_j - d_j lies in (0, 2^s), s = w + kappa +
// 1, so the slots need no offset and never carry. With full-width blinds,
// or a key with room for one slot only, a group is one attribute and its
// slot is the whole plaintext: sm.h's secure square (Op::kSqVec), at its
// cost.
// Only squared distances are ever computed — the paper notes squaring
// preserves the ordering kNN needs, and exact roots are infeasible on
// ciphertexts.
#ifndef SKNN_PROTO_SSED_H_
#define SKNN_PROTO_SSED_H_

#include <vector>

#include "proto/context.h"
#include "proto/sm.h"

namespace sknn {

/// \brief The layout for m attributes in [0, 2^attr_bits) under modulus
/// `n`. When the short blinds of sm.h apply and at least two slots of
/// s = attr_bits + kBlindStatisticalBits + 1 bits fit in bitlen(n) - 1
/// bits: s-bit slots, in the fewest groups that hold m, balanced (the last
/// group may hold fewer; its empty slots read 0). Otherwise one
/// whole-plaintext slot per group.
SlotLayout SsedLayoutFor(const BigInt& n, unsigned attr_bits, std::size_t m);

/// \brief Packs every record's groups once, for SecureSquaredDistanceBatch:
/// out[i][g] = prod_j Epk(x_ij)^(2^(j * slot_bits)) over group g's
/// attributes, by Horner. Empty when a group is one slot: such a group is
/// its attribute's ciphertext and needs no pack. Fanned across `pool`
/// (serial when null).
std::vector<std::vector<Ciphertext>> PackSsedRecords(
    const PaillierPublicKey& pk,
    const std::vector<std::vector<Ciphertext>>& records, unsigned attr_bits,
    ThreadPool* pool);

/// \brief Epk(|X - Y|^2) from Epk(X), Epk(Y) (equal-length vectors).
Result<Ciphertext> SecureSquaredDistance(ProtoContext& ctx,
                                         const std::vector<Ciphertext>& ex,
                                         const std::vector<Ciphertext>& ey);

/// \brief Distances from one encrypted query to many encrypted records in a
/// single round trip: out[i] = Epk(|records[i] - query|^2).
/// `attr_bits > 0` promises every record and query attribute lies in
/// [0, 2^attr_bits), so each difference has |x - y| < 2^attr_bits and is
/// blinded short and packed (file comment). 0, the default, blinds
/// uniformly on Z_N, one attribute per plaintext. The result is exact for
/// any input with one slot per group; with more, a broken promise can
/// corrupt that record's distance only. `packs`, if non-null and
/// non-empty, is PackSsedRecords(records) for the same key and attr_bits;
/// otherwise the records are packed here, on every call.
Result<std::vector<Ciphertext>> SecureSquaredDistanceBatch(
    ProtoContext& ctx, const std::vector<std::vector<Ciphertext>>& records,
    const std::vector<Ciphertext>& query, unsigned attr_bits = 0,
    const std::vector<std::vector<Ciphertext>>* packs = nullptr);

}  // namespace sknn

#endif  // SKNN_PROTO_SSED_H_
