// Secure Bit-Decomposition (SBD) — the Samanthula-Jiang protocol the paper
// adopts (reference [21], ASIACCS 2013).
//
// C1 holds Epk(z) with 0 <= z < 2^l; the output is [z] =
// <Epk(z_1), ..., Epk(z_l)> (MSB first, matching the paper's notation),
// known only to C1. The protocol extracts one encrypted LSB per round. At
// round t, C1 holds Epk(2^t * y) with y = z >> t (the bits found so far
// subtracted, not shifted out):
//
//   1. C1 blinds:  Y = Epk(2^t * y) * Epk(2^t * r mod N),  r short (below).
//   2. C2 (kLsbShiftVec, t in aux) decrypts, multiplies by 2^{-t} mod N —
//      a plaintext mulmod — and returns a fresh Epk(parity(y + r)).
//   3. C1 un-flips the parity if r is odd:  Epk(lsb) or Epk(1 - lsb).
//   4. C1 subtracts:  Epk(2^t * y) <- Epk(2^t * y) * Epk(lsb)^{-2^t}, a
//      t-bit power, which leaves Epk(2^{t+1} * (y >> 1)).
//
// Reference [21] halves Epk(z) in step 4 with the |N|-bit power
// ^{2^{-1} mod N}; C2 sees the same y + r either way (docs/CRYPTO.md,
// "Halving-free SBD").
//
// Reference [21] draws r uniform in Z_N, so y + r can wrap past N and flip
// the parity, and it adds a verification round that retries failures. Here
// r is drawn by sm.h's DrawBlinds at operand_bits = l: uniform on
// [2^l, 2^l + 2^(l + kBlindStatisticalBits)), so y + r < N and every
// parity is exact, and C2's view of y + r is within 2^-128 of one that
// does not depend on y (docs/CRYPTO.md, "Short SBD masks"). A key too
// short for that window, l > key_bits - 130, is refused.
#ifndef SKNN_PROTO_SBD_H_
#define SKNN_PROTO_SBD_H_

#include <vector>

#include "proto/context.h"

namespace sknn {

struct SbdOptions {
  /// Bit width of the decomposition; caller guarantees z < 2^l.
  unsigned l = 0;
};

/// \brief [z] (MSB-first, length opts.l) from Epk(z). InvalidArgument
/// unless 1 <= opts.l <= bitlen(N) - 130 (ShortBlindsFit in sm.h).
Result<std::vector<Ciphertext>> BitDecompose(ProtoContext& ctx,
                                             const Ciphertext& ez,
                                             const SbdOptions& opts);

/// \brief Batched decomposition of many values; one round trip per bit
/// position, independent of batch size.
Result<std::vector<std::vector<Ciphertext>>> BitDecomposeBatch(
    ProtoContext& ctx, const std::vector<Ciphertext>& ezs,
    const SbdOptions& opts);

/// \brief Homomorphically recomposes Epk(z) = prod Epk(z_i)^{2^{l-i}} from
/// MSB-first encrypted bits (used by SkNN_m step 3(b)).
Ciphertext ComposeFromBits(const PaillierPublicKey& pk,
                           const std::vector<Ciphertext>& bits);

}  // namespace sknn

#endif  // SKNN_PROTO_SBD_H_
