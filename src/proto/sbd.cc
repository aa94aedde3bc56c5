#include "proto/sbd.h"

#include <algorithm>
#include <numeric>

#include "net/message.h"

namespace sknn {
namespace {

// Re-runs of a failing instance before SBD gives up: a wrap has probability
// < 2^l / N per instance, so failing this often means z >= 2^l.
constexpr int kSbdMaxRetries = 16;

// One full (unverified) decomposition pass over the given instances.
// Returns LSB-first bits per instance.
Result<std::vector<std::vector<Ciphertext>>> DecomposePass(
    ProtoContext& ctx, const std::vector<Ciphertext>& ezs,
    const SbdOptions& opts) {
  const std::size_t count = ezs.size();
  const PaillierPublicKey& pk = ctx.pk();
  const BigInt& n = pk.n();

  // current[i] = Epk(2^t * y_t), y_t = z >> t: the bits found so far are
  // subtracted, never shifted out, so no |N|-bit halving power is needed.
  std::vector<Ciphertext> current(ezs.begin(), ezs.end());
  std::vector<std::vector<Ciphertext>> bits_lsb_first(
      count, std::vector<Ciphertext>(opts.l));

  for (unsigned t = 0; t < opts.l; ++t) {
    const BigInt shift = BigInt::PowerOfTwo(t);
    // Step 1: blind every instance with Epk(2^t * r mod N) (mask
    // encryptions via the batch API — this runs once per bit round over
    // every in-flight instance).
    std::vector<BigInt> masks(count), shifted_masks(count);
    for (std::size_t i = 0; i < count; ++i) {
      masks[i] = opts.adversarial_masks_for_test
                     ? n - BigInt(1)
                     : Random::ThreadLocal().Below(n);
      shifted_masks[i] = masks[i].MulMod(shift, n);
    }
    std::vector<Ciphertext> enc_masks =
        pk.EncryptMany(shifted_masks, ctx.pool());
    std::vector<BigInt> request(count);
    ctx.ForEach(count, [&](std::size_t i) {
      request[i] = pk.Add(current[i], enc_masks[i]).value();
    });

    // Step 2: C2 strips the 2^t and returns Epk(parity(y_t + r mod N)).
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
      bits_lsb_first[i][t] = lsb;
      // A t-bit power: Epk(2^t * y_t - 2^t * b_t) = Epk(2^(t+1) * y_(t+1)).
      current[i] = pk.Sub(current[i], pk.MulScalar(lsb, shift));
    });
  }
  return bits_lsb_first;
}

}  // namespace

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
  if (opts.l == 0) {
    return Status::InvalidArgument("SBD: bit width l must be positive");
  }
  const std::size_t count = ezs.size();
  if (count == 0) return std::vector<std::vector<Ciphertext>>{};
  const PaillierPublicKey& pk = ctx.pk();
  const BigInt& n = pk.n();
  if (BigInt::PowerOfTwo(opts.l) >= n) {
    return Status::InvalidArgument(
        "SBD: 2^l must be smaller than the Paillier modulus");
  }

  std::vector<std::vector<Ciphertext>> result(count);
  std::vector<std::size_t> todo(count);
  std::iota(todo.begin(), todo.end(), 0);

  SbdOptions pass_opts = opts;
  for (int attempt = 0; !todo.empty(); ++attempt) {
    if (attempt > kSbdMaxRetries) {
      return Status::ProtocolError(
          "SBD: exceeded retry budget (is z really < 2^l?)");
    }
    std::vector<Ciphertext> pending;
    pending.reserve(todo.size());
    for (std::size_t i : todo) pending.push_back(ezs[i]);

    SKNN_ASSIGN_OR_RETURN(std::vector<std::vector<Ciphertext>> passed,
                          DecomposePass(ctx, pending, pass_opts));
    // The adversarial hook only poisons the first pass, so retry converges.
    pass_opts.adversarial_masks_for_test = false;

    // Reverse to MSB-first, the paper's [z] convention.
    for (auto& bits : passed) {
      std::reverse(bits.begin(), bits.end());
    }

    if (!opts.verify) {
      for (std::size_t j = 0; j < todo.size(); ++j) {
        result[todo[j]] = std::move(passed[j]);
      }
      break;
    }

    // SVR: v = (recomposed - z) * gamma with gamma nonzero; C2 reports
    // whether each v decrypts to zero. gamma hides the error magnitude.
    std::vector<BigInt> check(todo.size());
    ctx.ForEach(todo.size(), [&](std::size_t j) {
      Random& rng = Random::ThreadLocal();
      Ciphertext recomposed = ComposeFromBits(pk, passed[j]);
      Ciphertext diff = pk.Sub(recomposed, ezs[todo[j]]);
      check[j] = pk.MulScalar(diff, rng.NonZeroBelow(n)).value();
    });
    SKNN_ASSIGN_OR_RETURN(Message resp,
                          ctx.Call(Op::kSvrCheckBatch, std::move(check)));
    // One flag byte per instance: 1 = the decomposition checked out.
    FrameReader r(resp.aux);
    std::vector<uint8_t> verified(todo.size());
    for (uint8_t& flag : verified) flag = r.U8();
    SKNN_RETURN_NOT_OK(r.Done("SBD: bad SVR response size"));

    std::vector<std::size_t> failed;
    for (std::size_t j = 0; j < todo.size(); ++j) {
      if (verified[j] == 1) {
        result[todo[j]] = std::move(passed[j]);
      } else {
        failed.push_back(todo[j]);
      }
    }
    todo = std::move(failed);
  }
  return result;
}

Result<std::vector<Ciphertext>> BitDecompose(ProtoContext& ctx,
                                             const Ciphertext& ez,
                                             const SbdOptions& opts) {
  SKNN_ASSIGN_OR_RETURN(std::vector<std::vector<Ciphertext>> out,
                        BitDecomposeBatch(ctx, {ez}, opts));
  return std::move(out[0]);
}

}  // namespace sknn
