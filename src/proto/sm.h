// Secure Multiplication (SM), Algorithm 1.
//
// C1 holds Epk(a), Epk(b); C2 holds sk. Output Epk(a*b) is known only to C1.
// C1 subtracts a blind from each operand, C2 decrypts and multiplies the
// blinded values, and C1 strips the three cross terms homomorphically:
//   a*b = (a - r_a)(b - r_b) + a*r_b + b*r_a - r_a*r_b   (mod N)
// The paper adds the blinds instead (Equation 1); subtracting them makes
// the cross-term exponents r_b, r_a themselves, with no inversion.
//
// Secure squaring is SM with b = a and one blind:
//   a^2 = (a - r)^2 + 2*a*r - r^2   (mod N)
// One blinding encryption, one decryption at C2 and one exponentiation at
// C1, where SM needs two, two and a double exponentiation. SMIN squares
// bit differences with it (u XOR v = (u - v)^2 on bits); docs/CRYPTO.md
// section 7. Its row-sum form squares and sums SSED's differences, several
// short-blinded operands to the slots of one plaintext when they fit
// (ssed.h, docs/CRYPTO.md section 10).
//
// Blind width (docs/CRYPTO.md section 9). `operand_bits = w > 0` promises
// |a| < 2^w (and |b| < 2^w for SM) as integers. Each blind is then uniform
// on [2^w, 2^w + 2^(w + kBlindStatisticalBits)), so the cross-term powers
// are about w + 128 bits wide, and every value C2 decrypts is N - (r - a)
// with 0 < r - a < 2^(w + kBlindStatisticalBits + 1): 2^-128-close to a
// view that does not depend on a. With w = 0 (the default), or a key too
// short for the window (w + kBlindStatisticalBits + 2 > bitlen(N)), blinds
// are uniform on Z_N and C2's view is uniform. The result is correct
// either way; a broken promise costs hiding, and correctness only of the
// row sum of a packed group it breaks.
#ifndef SKNN_PROTO_SM_H_
#define SKNN_PROTO_SM_H_

#include <vector>

#include "proto/context.h"

namespace sknn {

/// \brief Statistical security parameter kappa of a short additive blind.
inline constexpr unsigned kBlindStatisticalBits = 128;

/// \brief True when operands below 2^operand_bits get short blinds under
/// modulus `n`: operand_bits > 0 and the window fits (file comment).
bool ShortBlindsFit(const BigInt& n, unsigned operand_bits);

/// \brief `count` additive blinds for operands below 2^operand_bits in
/// magnitude: uniform on [2^w, 2^w + 2^(w + kBlindStatisticalBits)) when
/// ShortBlindsFit, else uniform on Z_N (docs/CRYPTO.md section 9). SBD
/// draws its masks here too (sbd.h).
std::vector<BigInt> DrawBlinds(std::size_t count, const BigInt& n,
                               unsigned operand_bits);

/// \brief How squared operands share the slots of one plaintext (ssed.h
/// packs a record's attribute differences; docs/CRYPTO.md section 10).
struct SlotLayout {
  /// Slot width in bits; 0 means one slot spanning the whole plaintext.
  unsigned slot_bits = 0;
  /// Operands per group (per value C2 decrypts), at least 1.
  std::size_t slots = 1;

  std::size_t Groups(std::size_t m) const { return (m + slots - 1) / slots; }
};

/// \brief Epk(a*b) from Epk(a), Epk(b); one round trip, full-width blinds.
Result<Ciphertext> SecureMultiply(ProtoContext& ctx, const Ciphertext& ea,
                                  const Ciphertext& eb);

/// \brief Element-wise SM over two equal-length vectors in one round
/// trip. This batching is what makes the per-record independence of
/// Section 5.3 exploitable. `operand_bits` as in the file comment.
Result<std::vector<Ciphertext>> SecureMultiplyBatch(
    ProtoContext& ctx, const std::vector<Ciphertext>& eas,
    const std::vector<Ciphertext>& ebs, unsigned operand_bits = 0);

/// \brief Element-wise secure squaring: out[i] = Epk(a_i^2) from
/// eas[i] = Epk(a_i), in one round trip (Op::kSqVec). C2 sees only
/// a_i - r_i; `operand_bits` as in the file comment.
Result<std::vector<Ciphertext>> SecureSquareBatch(
    ProtoContext& ctx, const std::vector<Ciphertext>& eas,
    unsigned operand_bits = 0);

/// \brief Row sums of secure squares in one round trip: out[i] =
/// Epk(sum_j a_ij^2) over row i of `eas` (row-major, `m` operands a row).
/// A row splits into layout.Groups(m) groups of up to layout.slots
/// operands, and C2 decrypts one blinded value per group. With one slot a
/// group is its operand, sent as Op::kSqVec, and `packs` is ignored.
/// Otherwise `packs[i * groups + g]` = prod_j Epk(a_j)^(2^(j * slot_bits))
/// over group g of row i, the blinds must be short for `operand_bits`, and
/// the groups go as Op::kSqSumVec. `operand_bits` as in the file comment.
Result<std::vector<Ciphertext>> SecureSquareSumBatch(
    ProtoContext& ctx, const std::vector<Ciphertext>& eas, std::size_t m,
    const SlotLayout& layout, const std::vector<Ciphertext>& packs,
    unsigned operand_bits);

}  // namespace sknn

#endif  // SKNN_PROTO_SM_H_
