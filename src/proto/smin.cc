#include "proto/smin.h"

#include <cstdint>
#include <string>

#include "net/message.h"
#include "proto/permutation.h"
#include "proto/sm.h"

namespace sknn {
namespace {

// Per-pair state C1 must remember between phase 1 and phase 3.
struct PairState {
  bool f_u_greater_v;        // the private functionality F
  std::vector<BigInt> r_hat; // Gamma blinding, length l
  Permutation pi1{0};        // applied to Gamma
};

}  // namespace

Result<std::vector<EncryptedBits>> SecureMinBatch(
    ProtoContext& ctx, const std::vector<EncryptedBits>& us,
    const std::vector<EncryptedBits>& vs) {
  if (us.size() != vs.size()) {
    return Status::InvalidArgument("SMIN: batch sizes differ");
  }
  const std::size_t count = us.size();
  if (count == 0) return std::vector<EncryptedBits>{};
  const std::size_t l = us[0].size();
  if (l == 0) {
    return Status::InvalidArgument("SMIN: empty bit vectors");
  }
  for (std::size_t b = 0; b < count; ++b) {
    if (us[b].size() != l || vs[b].size() != l) {
      return Status::InvalidArgument("SMIN: ragged bit vectors");
    }
  }
  const PaillierPublicKey& pk = ctx.pk();
  // The H chain below needs 2^l < min(p, q); both primes are at least
  // 2^(key_bits/2 - 1).
  if (l + 2 > pk.key_bits() / 2) {
    return Status::InvalidArgument("SMIN: bit width " + std::to_string(l) +
                                   " exceeds key_bits/2 - 2 = " +
                                   std::to_string(pk.key_bits() / 2 - 2));
  }
  const BigInt& n = pk.n();
  const BigInt n_minus_1 = n - BigInt(1);

  // -- Round trip 1: G_i = Epk(u_i XOR v_i) = Epk((u_i - v_i)^2) for every
  // pair and bit via one batched squaring. The difference is taken in F's
  // direction, because Gamma blinds that same difference below; the square
  // does not see the sign. The difference is in {-1, 0, 1}, so its blind is
  // short (operand_bits = 1).
  std::vector<PairState> state(count);
  std::vector<Ciphertext> diffs(count * l);
  ctx.ForEach(count, [&](std::size_t b) {
    PairState& st = state[b];
    st.f_u_greater_v = Random::ThreadLocal().UniformUint64(2) == 0;
    for (std::size_t i = 0; i < l; ++i) {
      diffs[b * l + i] = st.f_u_greater_v ? pk.Sub(vs[b][i], us[b][i])
                                          : pk.Sub(us[b][i], vs[b][i]);
    }
  });
  SKNN_ASSIGN_OR_RETURN(std::vector<Ciphertext> g,
                        SecureSquareBatch(ctx, diffs, /*operand_bits=*/1));

  // -- Phase 1 (local): Gamma, H, Phi, L per Algorithm 3 step 1.
  // Request layout per block: Gamma'_1..Gamma'_l, L'_1..L'_l.
  std::vector<BigInt> request(count * 2 * l);
  ctx.ForEach(count, [&](std::size_t b) {
    Random& rng = Random::ThreadLocal();
    PairState& st = state[b];
    st.r_hat.resize(l);

    std::vector<Ciphertext> gamma(l), big_l(l);
    // batch-exempt: H_0 seed — one encryption per block
    Ciphertext h_prev = pk.Encrypt(BigInt(0), rng);  // H_0 = Epk(0)
    for (std::size_t i = 0; i < l; ++i) {
      // Epk(v_i - u_i) when F: u > v, else Epk(u_i - v_i).
      const Ciphertext& diff = diffs[b * l + i];
      // The paper's W_i = u_i(1 - v_i) (or v_i(1 - u_i) by F) reaches C2
      // only where Phi_i = 0, at the first differing bit. There u_i != v_i,
      // so W_i is the bare bit u_i (or v_i).
      const Ciphertext& w = st.f_u_greater_v ? us[b][i] : vs[b][i];
      st.r_hat[i] = rng.NonZeroBelow(n);
      // The H_i chain below is sequentially dependent, so this loop cannot
      // fan out; the pooled randomizers already cover its encryptions.
      // batch-exempt: sequential H-chain, cannot batch
      gamma[i] = pk.Add(diff, pk.Encrypt(st.r_hat[i], rng));

      // H_i = 2 H_{i-1} + G_i: 0 before the first differing bit, 1 at it,
      // in [2, 2^l) after it. The paper multiplies by a random r_i instead;
      // that buys nothing, since r'_i below already makes every L_i with
      // Phi_i != 0 uniform, and 2^l below both primes keeps Phi_i a unit.
      Ciphertext h = pk.Add(pk.Add(h_prev, h_prev), g[b * l + i]);
      h_prev = h;
      // Phi_i = Epk(-1) * H_i: zero exactly at the first differing bit.
      // batch-exempt: depends on H_i from the sequential chain above
      Ciphertext phi = pk.Add(pk.Encrypt(n_minus_1, rng), h);
      // L_i = W_i * Phi_i^{r'_i}: the deciding W leaks only where Phi = 0.
      big_l[i] = pk.Add(w, pk.MulScalar(phi, rng.NonZeroBelow(n)));
    }

    st.pi1 = Permutation::Sample(l, rng);
    Permutation pi2 = Permutation::Sample(l, rng);
    std::vector<Ciphertext> gamma_perm = st.pi1.Apply(gamma);
    std::vector<Ciphertext> l_perm = pi2.Apply(big_l);
    for (std::size_t i = 0; i < l; ++i) {
      request[b * 2 * l + i] = gamma_perm[i].value();
      request[b * 2 * l + l + i] = l_perm[i].value();
    }
  });

  // -- Round trip 2: C2 derives alpha per block, returns M' and Epk(alpha).
  std::vector<uint8_t> aux;
  FrameWriter(aux).U32(static_cast<uint32_t>(l)).U32(
      static_cast<uint32_t>(count));
  SKNN_ASSIGN_OR_RETURN(
      std::vector<BigInt> response,
      ctx.CallBatch(Op::kSminPhase2Vec, std::move(request),
                    /*in_arity=*/2 * l, /*out_arity=*/l + 1, std::move(aux)));

  // -- Phase 3 (local): strip blinding, recombine min bits.
  std::vector<EncryptedBits> out(count, EncryptedBits(l));
  ctx.ForEach(count, [&](std::size_t b) {
    const PairState& st = state[b];
    std::vector<Ciphertext> m_perm(l);
    for (std::size_t i = 0; i < l; ++i) {
      m_perm[i] = Ciphertext(response[b * (l + 1) + i]);
    }
    Ciphertext e_alpha(response[b * (l + 1) + l]);
    std::vector<Ciphertext> m = st.pi1.ApplyInverse(m_perm);
    // lambda_i = M~_i * Epk(alpha)^{N - r^_i} = Epk(alpha*(diff_i)). All l
    // powers share the base Epk(alpha), so one squaring chain serves them.
    std::vector<BigInt> unblind(l);
    for (std::size_t i = 0; i < l; ++i) unblind[i] = n - st.r_hat[i];
    std::vector<Ciphertext> alpha_powers =
        pk.MulScalarSameBase(e_alpha, unblind);
    for (std::size_t i = 0; i < l; ++i) {
      Ciphertext lambda = pk.Add(m[i], alpha_powers[i]);
      // min_i = u_i + alpha*(v_i - u_i)  (or v/u swapped when F: v > u).
      const Ciphertext& base = st.f_u_greater_v ? us[b][i] : vs[b][i];
      out[b][i] = pk.Add(base, lambda);
    }
  });
  return out;
}

Result<EncryptedBits> SecureMin(ProtoContext& ctx, const EncryptedBits& u,
                                const EncryptedBits& v) {
  SKNN_ASSIGN_OR_RETURN(std::vector<EncryptedBits> out,
                        SecureMinBatch(ctx, {u}, {v}));
  return std::move(out[0]);
}

EncryptedBits ComplementBits(const PaillierPublicKey& pk,
                             const EncryptedBits& bits) {
  Random& rng = Random::ThreadLocal();
  EncryptedBits out;
  out.reserve(bits.size());
  for (const auto& b : bits) {
    // batch-exempt: l encryptions per call (l = bit length, not records)
    out.push_back(pk.Sub(pk.Encrypt(BigInt(1), rng), b));
  }
  return out;
}

Result<EncryptedBits> SecureMinN(ProtoContext& ctx,
                                 const std::vector<EncryptedBits>& ds) {
  if (ds.empty()) {
    return Status::InvalidArgument("SMIN_n: empty input");
  }
  // Algorithm 4: bottom-up binary tournament. Each round pairs up the
  // surviving vectors; odd survivor advances unchanged. All SMINs of a
  // round share two batched round trips.
  std::vector<EncryptedBits> alive = ds;
  while (alive.size() > 1) {
    std::vector<EncryptedBits> us, vs;
    us.reserve(alive.size() / 2);
    vs.reserve(alive.size() / 2);
    for (std::size_t j = 0; j + 1 < alive.size(); j += 2) {
      us.push_back(std::move(alive[j]));
      vs.push_back(std::move(alive[j + 1]));
    }
    bool carry = (alive.size() % 2) == 1;
    EncryptedBits carried;
    if (carry) carried = std::move(alive.back());

    SKNN_ASSIGN_OR_RETURN(std::vector<EncryptedBits> winners,
                          SecureMinBatch(ctx, us, vs));
    alive = std::move(winners);
    if (carry) alive.push_back(std::move(carried));
  }
  return std::move(alive[0]);
}

}  // namespace sknn
