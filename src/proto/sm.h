// Secure Multiplication (SM), Algorithm 1.
//
// C1 holds Epk(a), Epk(b); C2 holds sk. Output Epk(a*b) is known only to C1.
// Based on the identity (Equation 1):
//   a*b = (a + r_a)(b + r_b) - a*r_b - b*r_a - r_a*r_b   (mod N)
// C1 blinds both operands, C2 decrypts and multiplies the blinded values,
// and C1 strips the three cross terms homomorphically.
//
// Secure squaring is SM with b = a and one blind:
//   a^2 = (a + r)^2 - 2*a*r - r^2   (mod N)
// One blinding encryption, one decryption at C2 and one exponentiation at
// C1, where SM needs two, two and a double exponentiation. SSED squares
// attribute differences with it, and SMIN squares bit differences
// (u XOR v = (u - v)^2 on bits); docs/CRYPTO.md section 7.
#ifndef SKNN_PROTO_SM_H_
#define SKNN_PROTO_SM_H_

#include <vector>

#include "proto/context.h"

namespace sknn {

/// \brief Epk(a*b) from Epk(a), Epk(b); one round trip.
Result<Ciphertext> SecureMultiply(ProtoContext& ctx, const Ciphertext& ea,
                                  const Ciphertext& eb);

/// \brief Element-wise SM over two equal-length vectors in one round
/// trip. This batching is what makes the per-record independence of
/// Section 5.3 exploitable.
Result<std::vector<Ciphertext>> SecureMultiplyBatch(
    ProtoContext& ctx, const std::vector<Ciphertext>& eas,
    const std::vector<Ciphertext>& ebs);

/// \brief Element-wise secure squaring: out[i] = Epk(a_i^2) from
/// eas[i] = Epk(a_i), in one round trip (Op::kSqVec). C2 sees only
/// a_i + r_i with r_i uniform in Z_N.
Result<std::vector<Ciphertext>> SecureSquareBatch(
    ProtoContext& ctx, const std::vector<Ciphertext>& eas);

}  // namespace sknn

#endif  // SKNN_PROTO_SM_H_
