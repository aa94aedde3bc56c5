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
// C1, where SM needs two, two and a double exponentiation. SSED squares
// attribute differences with it, and SMIN squares bit differences
// (u XOR v = (u - v)^2 on bits); docs/CRYPTO.md section 7.
//
// Blind width (docs/CRYPTO.md section 9). `operand_bits = w > 0` promises
// |a| < 2^w (and |b| < 2^w for SM) as integers. Each blind is then uniform
// on [2^w, 2^w + 2^(w + kBlindStatisticalBits)), so the cross-term powers
// are about w + 128 bits wide, and every value C2 decrypts is N - (r - a)
// with 0 < r - a < 2^(w + kBlindStatisticalBits + 1): 2^-128-close to a
// view that does not depend on a. With w = 0 (the default), or a key too
// short for the window (w + kBlindStatisticalBits + 2 > bitlen(N)), blinds
// are uniform on Z_N and C2's view is uniform. The result is correct
// either way; a broken promise costs hiding, never correctness.
#ifndef SKNN_PROTO_SM_H_
#define SKNN_PROTO_SM_H_

#include <vector>

#include "proto/context.h"

namespace sknn {

/// \brief Statistical security parameter kappa of a short additive blind.
inline constexpr unsigned kBlindStatisticalBits = 128;

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

}  // namespace sknn

#endif  // SKNN_PROTO_SM_H_
