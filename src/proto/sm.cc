#include "proto/sm.h"

#include <algorithm>

#include "net/message.h"

namespace sknn {

bool ShortBlindsFit(const BigInt& n, unsigned operand_bits) {
  return operand_bits > 0 &&
         operand_bits + kBlindStatisticalBits + 2 <= n.BitLength();
}

std::vector<BigInt> DrawBlinds(std::size_t count, const BigInt& n,
                               unsigned operand_bits) {
  const bool short_window = ShortBlindsFit(n, operand_bits);
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
  return SecureSquareSumBatch(ctx, eas, /*m=*/1, SlotLayout{}, {},
                              operand_bits);
}

Result<std::vector<Ciphertext>> SecureSquareSumBatch(
    ProtoContext& ctx, const std::vector<Ciphertext>& eas, std::size_t m,
    const SlotLayout& layout, const std::vector<Ciphertext>& packs,
    unsigned operand_bits) {
  if (eas.empty()) return std::vector<Ciphertext>{};
  if (m == 0 || eas.size() % m != 0 || layout.slots == 0) {
    return Status::InvalidArgument("square sums: operands do not form rows");
  }
  const std::size_t rows = eas.size() / m;
  const std::size_t groups = layout.Groups(m);
  const bool packed = layout.slots > 1;
  if (packed && packs.size() != rows * groups) {
    return Status::InvalidArgument("square sums: packs do not match the rows");
  }
  const std::vector<Ciphertext>& operands = packed ? packs : eas;
  const PaillierPublicKey& pk = ctx.pk();
  const BigInt& n = pk.n();

  // Step 1: blind every slot, Epk(P - R) = Epk(P) * Epk(N - R), with
  // R = sum_j r_j * 2^(j * slot_bits) over a group; r stays local to C1.
  const std::vector<BigInt> r = DrawBlinds(eas.size(), n, operand_bits);
  std::vector<BigInt> neg_blinds(rows * groups);
  std::vector<BigInt> neg_r2_plain(rows * groups);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t begin = g * layout.slots;
      const std::size_t end = std::min(m, begin + layout.slots);
      BigInt blind(0), r2(0);
      for (std::size_t j = begin; j < end; ++j) {
        const BigInt& rj = r[i * m + j];
        blind += rj.ShiftLeft(static_cast<unsigned>(
            (j - begin) * layout.slot_bits));
        r2 = r2.AddMod(rj.MulMod(rj, n), n);
      }
      neg_blinds[i * groups + g] = n - blind;
      neg_r2_plain[i * groups + g] = n - r2;
    }
  }
  std::vector<Ciphertext> enc_blinds = pk.EncryptMany(neg_blinds, ctx.pool());
  std::vector<BigInt> request(rows * groups);
  ctx.ForEach(rows * groups, [&](std::size_t at) {
    request[at] = pk.Add(operands[at], enc_blinds[at]).value();
  });

  // Step 2: C2 decrypts each group and re-encrypts the sum of its slots'
  // squares: (a - r)^2 mod N for a one-slot group.
  Op op = Op::kSqVec;
  std::vector<uint8_t> aux;
  if (packed) {
    op = Op::kSqSumVec;
    FrameWriter(aux)
        .U32(layout.slot_bits)
        .U32(static_cast<uint32_t>(layout.slots));
  }
  SKNN_ASSIGN_OR_RETURN(
      std::vector<BigInt> h,
      ctx.CallBatch(op, std::move(request), /*in_arity=*/1,
                    /*out_arity=*/1, std::move(aux)));

  // Step 3: strip the blinds per group, then sum a row's groups:
  //   Epk(sum a^2) = h' * prod_j Epk(a_j)^{2 r_j} * Epk(-sum_j r_j^2).
  std::vector<Ciphertext> neg_r2 = pk.EncryptMany(neg_r2_plain, ctx.pool());
  std::vector<Ciphertext> out(rows);
  ctx.ForEach(rows, [&](std::size_t i) {
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t begin = g * layout.slots;
      const std::size_t end = std::min(m, begin + layout.slots);
      Ciphertext acc(h[i * groups + g]);
      for (std::size_t j = begin; j < end; ++j) {
        const BigInt& rj = r[i * m + j];
        acc = pk.Add(acc, pk.MulScalar(eas[i * m + j], rj + rj));
      }
      acc = pk.Add(acc, neg_r2[i * groups + g]);
      out[i] = g == 0 ? std::move(acc) : pk.Add(out[i], acc);
    }
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
