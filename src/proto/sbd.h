// Secure Bit-Decomposition (SBD) — the Samanthula-Jiang probabilistic
// protocol the paper adopts (reference [21], ASIACCS 2013).
//
// C1 holds Epk(z) with 0 <= z < 2^l; the output is [z] =
// <Epk(z_1), ..., Epk(z_l)> (MSB first, matching the paper's notation),
// known only to C1. The protocol extracts one encrypted LSB per round. At
// round t, C1 holds Epk(2^t * y) with y = z >> t (the bits found so far
// subtracted, not shifted out):
//
//   1. C1 blinds:  Y = Epk(2^t * y) * Epk(2^t * r mod N),  r uniform in Z_N.
//   2. C2 (kLsbShiftVec, t in aux) decrypts, multiplies by 2^{-t} mod N —
//      a plaintext mulmod — and returns a fresh Epk(parity(y + r mod N)).
//   3. C1 un-flips the parity if r is odd:  Epk(lsb) or Epk(1 - lsb).
//   4. C1 subtracts:  Epk(2^t * y) <- Epk(2^t * y) * Epk(lsb)^{-2^t}, a
//      t-bit power, which leaves Epk(2^{t+1} * (y >> 1)).
//
// Reference [21] halves Epk(z) in step 4 with the |N|-bit power
// ^{2^{-1} mod N}; C2 sees the same uniform y + r mod N either way
// (docs/CRYPTO.md, "Halving-free SBD").
//
// Step 2 is wrong exactly when y + r wraps around N (probability < 2^l / N,
// N is odd so the wrap flips parity) — hence the verification round (SVR):
// C1 re-composes the bits, blinds the difference to the original with a
// random non-zero factor and asks C2 whether it decrypts to zero; failed
// instances are re-run with fresh randomness, at most 16 times.
#ifndef SKNN_PROTO_SBD_H_
#define SKNN_PROTO_SBD_H_

#include <vector>

#include "proto/context.h"

namespace sknn {

struct SbdOptions {
  /// Bit width of the decomposition; caller guarantees z < 2^l.
  unsigned l = 0;
  /// Run the verification round and retry failures. Every query path
  /// verifies; tests turn it off to show what SVR catches.
  bool verify = true;
  /// TEST HOOK: blind with r = N - 1 instead of a uniform r, which forces
  /// the mod-N wraparound for every z > 0 and so exercises the SVR/retry
  /// path deterministically. Never set outside tests.
  bool adversarial_masks_for_test = false;
};

/// \brief [z] (MSB-first, length opts.l) from Epk(z).
Result<std::vector<Ciphertext>> BitDecompose(ProtoContext& ctx,
                                             const Ciphertext& ez,
                                             const SbdOptions& opts);

/// \brief Batched decomposition of many values; one round trip per bit
/// position plus one verification round trip (independent of batch size).
Result<std::vector<std::vector<Ciphertext>>> BitDecomposeBatch(
    ProtoContext& ctx, const std::vector<Ciphertext>& ezs,
    const SbdOptions& opts);

/// \brief Homomorphically recomposes Epk(z) = prod Epk(z_i)^{2^{l-i}} from
/// MSB-first encrypted bits (used by SkNN_m step 3(b) and by SVR).
Ciphertext ComposeFromBits(const PaillierPublicKey& pk,
                           const std::vector<Ciphertext>& bits);

}  // namespace sknn

#endif  // SKNN_PROTO_SBD_H_
