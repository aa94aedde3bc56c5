// Secure Minimum (SMIN, Algorithm 3) and Secure Minimum out of n numbers
// (SMIN_n, Algorithm 4).
//
// SMIN: C1 holds [u], [v] — encrypted bit vectors (MSB first, length l) —
// and learns [min(u,v)] without either party learning which operand won:
//
//   * C1 flips a private coin F in {u > v, v > u} and evaluates the chosen
//     comparison obliviously: Gamma_i encrypts the blinded bit difference,
//     G_i = u_i XOR v_i = (u_i - v_i)^2 comes from one batched secure
//     squaring, the H chain (H_i = 2 H_{i-1} + G_i) is 1 exactly at the
//     first differing position, Phi_i = H_i - 1 is zero exactly there and a
//     unit elsewhere, and L_i = u_i + r'_i * Phi_i (v_i when F: v > u)
//     exposes the deciding bit only at that position. The paper's
//     W_i = u_i(1 - v_i) in place of u_i equals u_i wherever u_i != v_i,
//     so it changes nothing C2 can see (docs/CRYPTO.md section 7).
//   * C1 permutes Gamma and L with fresh permutations pi_1, pi_2 and sends
//     them; C2 decrypts L, sets alpha = [some entry == 1] (the outcome of F,
//     meaningless to C2 since F is secret), and returns re-randomized
//     Gamma^alpha plus Epk(alpha).
//   * C1 un-permutes, strips the Gamma blinding and recombines:
//     min_i = u_i + alpha*(v_i - u_i) when F: u > v (symmetrically for v).
//
// SMIN_n runs a bottom-up tournament of SMINs (ceil(log2 n) rounds); all
// pairs of a round ride in the same batched round trips.
#ifndef SKNN_PROTO_SMIN_H_
#define SKNN_PROTO_SMIN_H_

#include <vector>

#include "proto/context.h"

namespace sknn {

/// \brief An encrypted bit vector [z], MSB first — the paper's bracket
/// notation.
using EncryptedBits = std::vector<Ciphertext>;

/// \brief [min(u,v)] from [u], [v] (equal length l >= 1).
Result<EncryptedBits> SecureMin(ProtoContext& ctx, const EncryptedBits& u,
                                const EncryptedBits& v);

/// \brief Pairwise SMIN over a batch: out[i] = [min(us[i], vs[i])]. Two
/// round trips total regardless of batch size. The width l must satisfy
/// 1 <= l <= key_bits/2 - 2 (InvalidArgument otherwise).
Result<std::vector<EncryptedBits>> SecureMinBatch(
    ProtoContext& ctx, const std::vector<EncryptedBits>& us,
    const std::vector<EncryptedBits>& vs);

/// \brief [min(d_1, ..., d_n)] via the tournament of Algorithm 4.
/// 2*ceil(log2 n) round trips.
Result<EncryptedBits> SecureMinN(ProtoContext& ctx,
                                 const std::vector<EncryptedBits>& ds);

/// \brief Homomorphic bitwise complement of an encrypted bit vector:
/// out_i = Epk(1 - b_i). Local (no interaction). SMIN_n over complemented
/// vectors finds the maximum, max(d) = NOT min(NOT d), which is how the
/// secure k-farthest query reuses Algorithm 6 (core/sknn_m.h).
EncryptedBits ComplementBits(const PaillierPublicKey& pk,
                             const EncryptedBits& bits);

/// \brief The naive ordering Algorithm 4 improves on: a sequential linear
/// scan (min = SMIN(min, d_i) one pair at a time). Same O(n-1) SMIN count
/// but 2*(n-1) round trips and no batching — kept as the ablation baseline
/// for the tournament design choice (see bench_ablation).
Result<EncryptedBits> SecureMinNLinear(ProtoContext& ctx,
                                       const std::vector<EncryptedBits>& ds);

}  // namespace sknn

#endif  // SKNN_PROTO_SMIN_H_
