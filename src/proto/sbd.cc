#include "proto/sbd.h"

#include <string>

#include "net/message.h"
#include "proto/sm.h"

namespace sknn {

Ciphertext ComposeFromBits(const PaillierPublicKey& pk,
                           const std::vector<Ciphertext>& bits) {
  // bits are MSB first: z = sum_i bits[i] * 2^{l-1-i}.
  const std::size_t l = bits.size();
  Ciphertext acc = pk.MulScalar(bits[0], BigInt::PowerOfTwo(l - 1));
  for (std::size_t i = 1; i < l; ++i) {
    acc = pk.Add(acc, pk.MulScalar(bits[i], BigInt::PowerOfTwo(l - 1 - i)));
  }
  return acc;
}

Result<std::vector<std::vector<Ciphertext>>> BitDecomposeBatch(
    ProtoContext& ctx, const std::vector<Ciphertext>& ezs,
    const SbdOptions& opts) {
  const PaillierPublicKey& pk = ctx.pk();
  const BigInt& n = pk.n();
  const unsigned l = opts.l;
  if (!ShortBlindsFit(n, l)) {
    return Status::InvalidArgument(
        "SBD: bit width l = " + std::to_string(l) +
        " is outside [1, bitlen(N) - 130] for a " +
        std::to_string(n.BitLength()) + "-bit N");
  }
  const std::size_t count = ezs.size();
  if (count == 0) return std::vector<std::vector<Ciphertext>>{};

  // current[i] = Epk(2^t * y_t), y_t = z >> t: the bits found so far are
  // subtracted, never shifted out, so no |N|-bit halving power is needed.
  std::vector<Ciphertext> current(ezs.begin(), ezs.end());
  std::vector<std::vector<Ciphertext>> bits(count,
                                            std::vector<Ciphertext>(l));

  for (unsigned t = 0; t < l; ++t) {
    const BigInt shift = BigInt::PowerOfTwo(t);
    // Step 1: blind every instance with Epk(2^t * r mod N). y_t < 2^l and
    // r < 2^l + 2^(l + kappa), so y_t + r < 2^(l + kappa + 1) <= N never
    // wraps (docs/CRYPTO.md, "Short SBD masks").
    const std::vector<BigInt> masks = DrawBlinds(count, n, l);
    std::vector<BigInt> shifted_masks(count);
    for (std::size_t i = 0; i < count; ++i) {
      shifted_masks[i] = masks[i].MulMod(shift, n);
    }
    std::vector<Ciphertext> enc_masks =
        pk.EncryptMany(shifted_masks, ctx.pool());
    std::vector<BigInt> request(count);
    ctx.ForEach(count, [&](std::size_t i) {
      request[i] = pk.Add(current[i], enc_masks[i]).value();
    });

    // Step 2: C2 strips the 2^t and returns Epk(parity(y_t + r)).
    std::vector<uint8_t> aux;
    FrameWriter(aux).U32(t);
    SKNN_ASSIGN_OR_RETURN(
        std::vector<BigInt> parities,
        ctx.CallBatch(Op::kLsbShiftVec, std::move(request),
                      /*in_arity=*/1, /*out_arity=*/1, std::move(aux)));

    // Steps 3-4: recover the encrypted LSB and subtract its 2^t. With b =
    // the mask's parity (known to C1): lsb = b + (-1)^b * parity, i.e.
    // parity itself for even masks and its complement for odd ones. Both
    // branches compute Epk(-parity) and then select (1 enc + 1 inv + 1
    // mul), so the operation count is independent of the secret coin — no
    // cost side channel, and deterministic complexity accounting.
    std::vector<BigInt> parity_bits(count);
    for (std::size_t i = 0; i < count; ++i) {
      parity_bits[i] = BigInt(masks[i].IsOdd() ? 1 : 0);
    }
    std::vector<Ciphertext> enc_bits =
        pk.EncryptMany(parity_bits, ctx.pool());
    ctx.ForEach(count, [&](std::size_t i) {
      Ciphertext parity(parities[i]);
      Ciphertext neg_parity = pk.Negate(parity);
      Ciphertext lsb =
          pk.Add(enc_bits[i], masks[i].IsOdd() ? neg_parity : parity);
      // MSB first, the paper's [z] convention: bit t is entry l - 1 - t.
      bits[i][l - 1 - t] = lsb;
      // A t-bit power: Epk(2^t * y_t - 2^t * b_t) = Epk(2^(t+1) * y_(t+1)).
      current[i] = pk.Sub(current[i], pk.MulScalar(lsb, shift));
    });
  }
  return bits;
}

Result<std::vector<Ciphertext>> BitDecompose(ProtoContext& ctx,
                                             const Ciphertext& ez,
                                             const SbdOptions& opts) {
  SKNN_ASSIGN_OR_RETURN(std::vector<std::vector<Ciphertext>> out,
                        BitDecomposeBatch(ctx, {ez}, opts));
  return std::move(out[0]);
}

}  // namespace sknn
