// Secure Squared Euclidean Distance (SSED), Algorithm 2.
//
// C1 holds two attribute-wise encrypted vectors; the squared distance
// |X-Y|^2 = sum_i (x_i - y_i)^2 is assembled from homomorphic differences,
// one batched secure squaring (sm.h; the paper runs SM with both operands
// equal, which costs a second blind and decryption), and a homomorphic sum.
// Only squared distances are ever computed — the paper notes squaring
// preserves the ordering kNN needs, and exact roots are infeasible on
// ciphertexts.
#ifndef SKNN_PROTO_SSED_H_
#define SKNN_PROTO_SSED_H_

#include <vector>

#include "proto/context.h"

namespace sknn {

/// \brief Epk(|X - Y|^2) from Epk(X), Epk(Y) (equal-length vectors).
Result<Ciphertext> SecureSquaredDistance(ProtoContext& ctx,
                                         const std::vector<Ciphertext>& ex,
                                         const std::vector<Ciphertext>& ey);

/// \brief Distances from one encrypted query to many encrypted records in a
/// single batched squaring round trip: out[i] = Epk(|records[i] - query|^2).
/// `attr_bits > 0` promises every record and query attribute lies in
/// [0, 2^attr_bits), so each difference has |x - y| < 2^attr_bits and is
/// squared with short blinds (sm.h, operand_bits = attr_bits). 0, the
/// default, blinds uniformly on Z_N. Either way the result is exact.
Result<std::vector<Ciphertext>> SecureSquaredDistanceBatch(
    ProtoContext& ctx, const std::vector<std::vector<Ciphertext>>& records,
    const std::vector<Ciphertext>& query, unsigned attr_bits = 0);

}  // namespace sknn

#endif  // SKNN_PROTO_SSED_H_
