#include "proto/sm.h"

namespace sknn {
namespace {

// `count` additive blinds for operands below 2^operand_bits in magnitude:
// uniform on [2^w, 2^w + 2^(w + kappa)) when that window fits below N with
// room to spare, else uniform on Z_N (sm.h; docs/CRYPTO.md section 9).
std::vector<BigInt> DrawBlinds(std::size_t count, const BigInt& n,
                               unsigned operand_bits) {
  const bool short_window =
      operand_bits > 0 &&
      operand_bits + kBlindStatisticalBits + 2 <= n.BitLength();
  const BigInt offset =
      short_window ? BigInt::PowerOfTwo(operand_bits) : BigInt(0);
  const BigInt width =
      short_window
          ? BigInt::PowerOfTwo(operand_bits + kBlindStatisticalBits)
          : n;
  Random& rng = Random::ThreadLocal();
  std::vector<BigInt> r(count);
  for (BigInt& ri : r) ri = offset + rng.Below(width);
  return r;
}

}  // namespace

Result<std::vector<Ciphertext>> SecureMultiplyBatch(
    ProtoContext& ctx, const std::vector<Ciphertext>& eas,
    const std::vector<Ciphertext>& ebs, unsigned operand_bits) {
  if (eas.size() != ebs.size()) {
    return Status::InvalidArgument("SM: operand vectors differ in length");
  }
  const std::size_t count = eas.size();
  if (count == 0) return std::vector<Ciphertext>{};
  const PaillierPublicKey& pk = ctx.pk();
  const BigInt& n = pk.n();

  // Step 1: blind both operands, Epk(a - ra) = Epk(a) * Epk(N - ra). ra, rb
  // stay local to C1. The 2n blinding encryptions — the hottest C1 loop of
  // the whole protocol — go through the batched API so they share the
  // randomizer pool and fan out together.
  const std::vector<BigInt> ra = DrawBlinds(count, n, operand_bits);
  const std::vector<BigInt> rb = DrawBlinds(count, n, operand_bits);
  std::vector<BigInt> neg_blinds(2 * count);
  for (std::size_t i = 0; i < count; ++i) {
    neg_blinds[2 * i] = n - ra[i];
    neg_blinds[2 * i + 1] = n - rb[i];
  }
  std::vector<Ciphertext> enc_blinds = pk.EncryptMany(neg_blinds, ctx.pool());
  std::vector<BigInt> request(2 * count);
  ctx.ForEach(count, [&](std::size_t i) {
    request[2 * i] = pk.Add(eas[i], enc_blinds[2 * i]).value();
    request[2 * i + 1] = pk.Add(ebs[i], enc_blinds[2 * i + 1]).value();
  });

  // Step 2: C2 decrypts, multiplies, re-encrypts h = (a-ra)(b-rb) mod N.
  SKNN_ASSIGN_OR_RETURN(
      std::vector<BigInt> h,
      ctx.CallBatch(Op::kSmVec, std::move(request), /*in_arity=*/2,
                    /*out_arity=*/1));

  // Step 3: strip the cross terms:
  //   Epk(ab) = h' * Epk(a)^{rb} * Epk(b)^{ra} * Epk(-ra*rb).
  // C1 knows ra*rb, so it encrypts -ra*rb mod N directly rather than
  // raising Epk(ra*rb) to N-1 as Algorithm 1 does: same encryption count,
  // one exponentiation fewer, and the randomizer is fresh. The two cross
  // terms are one double exponentiation (MulScalarPair), counted as the
  // two exponentiations and one multiplication of Algorithm 1.
  std::vector<BigInt> neg_cross_plain(count);
  for (std::size_t i = 0; i < count; ++i) {
    neg_cross_plain[i] = n - ra[i].MulMod(rb[i], n);
  }
  std::vector<Ciphertext> neg_cross =
      pk.EncryptMany(neg_cross_plain, ctx.pool());
  std::vector<Ciphertext> out(count);
  ctx.ForEach(count, [&](std::size_t i) {
    Ciphertext cross = pk.MulScalarPair(eas[i], rb[i], ebs[i], ra[i]);
    out[i] = pk.Add(pk.Add(Ciphertext(h[i]), cross), neg_cross[i]);
  });
  return out;
}

Result<std::vector<Ciphertext>> SecureSquareBatch(
    ProtoContext& ctx, const std::vector<Ciphertext>& eas,
    unsigned operand_bits) {
  const std::size_t count = eas.size();
  if (count == 0) return std::vector<Ciphertext>{};
  const PaillierPublicKey& pk = ctx.pk();
  const BigInt& n = pk.n();

  // Step 1: blind each operand once, Epk(a - r); r stays local to C1.
  const std::vector<BigInt> r = DrawBlinds(count, n, operand_bits);
  std::vector<BigInt> neg_r(count);
  for (std::size_t i = 0; i < count; ++i) neg_r[i] = n - r[i];
  std::vector<Ciphertext> enc_r = pk.EncryptMany(neg_r, ctx.pool());
  std::vector<BigInt> request(count);
  ctx.ForEach(count, [&](std::size_t i) {
    request[i] = pk.Add(eas[i], enc_r[i]).value();
  });

  // Step 2: C2 decrypts, squares, re-encrypts h = (a-r)^2 mod N.
  SKNN_ASSIGN_OR_RETURN(
      std::vector<BigInt> h,
      ctx.CallBatch(Op::kSqVec, std::move(request), /*in_arity=*/1,
                    /*out_arity=*/1));

  // Step 3: strip the cross terms:
  //   Epk(a^2) = h' * Epk(a)^{2r} * Epk(-r^2).
  std::vector<BigInt> neg_r2_plain(count);
  for (std::size_t i = 0; i < count; ++i) {
    neg_r2_plain[i] = n - r[i].MulMod(r[i], n);
  }
  std::vector<Ciphertext> neg_r2 = pk.EncryptMany(neg_r2_plain, ctx.pool());
  std::vector<Ciphertext> out(count);
  ctx.ForEach(count, [&](std::size_t i) {
    Ciphertext cross = pk.MulScalar(eas[i], r[i] + r[i]);
    out[i] = pk.Add(pk.Add(Ciphertext(h[i]), cross), neg_r2[i]);
  });
  return out;
}

Result<Ciphertext> SecureMultiply(ProtoContext& ctx, const Ciphertext& ea,
                                  const Ciphertext& eb) {
  SKNN_ASSIGN_OR_RETURN(std::vector<Ciphertext> out,
                        SecureMultiplyBatch(ctx, {ea}, {eb}));
  return out[0];
}

}  // namespace sknn
