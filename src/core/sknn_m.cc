#include "core/sknn_m.h"

#include <bit>

#include "common/stopwatch.h"
#include "core/data_owner.h"
#include "proto/permutation.h"
#include "proto/sm.h"
#include "proto/smin.h"
#include "proto/ssed.h"

namespace sknn {

unsigned TieBreakIndexBits(std::size_t total_records) {
  if (total_records <= 1) return 0;
  return static_cast<unsigned>(std::bit_width(total_records - 1));
}

Result<std::vector<EncryptedBits>> PrepareDistanceBits(
    ProtoContext& ctx, const std::vector<std::vector<Ciphertext>>& records,
    const std::vector<Ciphertext>& enc_query, unsigned l,
    const std::vector<std::size_t>* global_indices, std::size_t total_records,
    bool farthest, SkNNmBreakdown* breakdown,
    const std::vector<std::vector<Ciphertext>>* packs) {
  const std::size_t n = records.size();
  if (n == 0) {
    return Status::InvalidArgument("PrepareDistanceBits: no records");
  }
  if (l == 0) {
    return Status::InvalidArgument("PrepareDistanceBits: l must be positive");
  }
  if (global_indices != nullptr && global_indices->size() != n) {
    return Status::InvalidArgument(
        "PrepareDistanceBits: global_indices size mismatch");
  }
  if (total_records < n) {
    return Status::InvalidArgument(
        "PrepareDistanceBits: total_records smaller than the record set");
  }
  const PaillierPublicKey& pk = ctx.pk();
  SkNNmBreakdown local_breakdown;
  SkNNmBreakdown& bd = breakdown != nullptr ? *breakdown : local_breakdown;
  Stopwatch phase;

  // Step 2: Epk(d_i) by SSED, then [d_i] by SBD.
  SKNN_ASSIGN_OR_RETURN(
      std::vector<Ciphertext> dist,
      SecureSquaredDistanceBatch(
          ctx, records, enc_query,
          DataOwner::ImpliedAttrBits(enc_query.size(), l), packs));
  bd.ssed_seconds += phase.ElapsedSeconds();
  phase.Reset();

  SbdOptions sbd_opts;
  sbd_opts.l = l;
  SKNN_ASSIGN_OR_RETURN(std::vector<EncryptedBits> bits,
                        BitDecomposeBatch(ctx, dist, sbd_opts));

  // Tie-break augmentation: [flag = 0 | d_i (complemented for farthest) |
  // global index], MSB first. The compared values are now pairwise
  // distinct, so every SMIN_n has a unique winner and C2's min pointer sees
  // exactly one zero. The flag bit, set when a record is extracted, keeps
  // it strictly above every live one even when a live record's distance and
  // index bits are all ones.
  const unsigned idx_bits = TieBreakIndexBits(total_records);
  ctx.ForEach(n, [&](std::size_t i) {
    Random& rng = Random::ThreadLocal();
    EncryptedBits aug;
    aug.reserve(1 + l + idx_bits);
    aug.push_back(pk.Encrypt(BigInt(0), rng));
    EncryptedBits d_bits =
        farthest ? ComplementBits(pk, bits[i]) : std::move(bits[i]);
    for (auto& b : d_bits) aug.push_back(std::move(b));
    const std::size_t gidx =
        global_indices != nullptr ? (*global_indices)[i] : i;
    for (unsigned g = idx_bits; g-- > 0;) {
      const int64_t bit = static_cast<int64_t>((gidx >> g) & 1);
      aug.push_back(pk.Encrypt(BigInt(bit), rng));
    }
    bits[i] = std::move(aug);
  });
  bd.sbd_seconds += phase.ElapsedSeconds();
  return bits;
}

Result<TopKExtraction> ExtractTopK(
    ProtoContext& ctx, const std::vector<std::vector<Ciphertext>>& records,
    std::vector<EncryptedBits>& bits, unsigned k, unsigned attr_bits,
    bool keep_winner_bits, SkNNmBreakdown* breakdown) {
  const std::size_t n = records.size();
  if (k == 0 || k > n) {
    return Status::InvalidArgument("ExtractTopK: k must be in [1, n]");
  }
  if (bits.size() != n) {
    return Status::InvalidArgument(
        "ExtractTopK: records / bit vectors size mismatch");
  }
  const std::size_t m = records[0].size();
  const std::size_t l_aug = bits[0].size();
  for (std::size_t i = 0; i < n; ++i) {
    if (records[i].size() != m || bits[i].size() != l_aug) {
      return Status::InvalidArgument("ExtractTopK: ragged inputs");
    }
  }
  const PaillierPublicKey& pk = ctx.pk();
  const BigInt& big_n = pk.n();
  SkNNmBreakdown local_breakdown;
  SkNNmBreakdown& bd = breakdown != nullptr ? *breakdown : local_breakdown;
  Stopwatch phase;

  TopKExtraction out;
  out.records.reserve(k);
  if (keep_winner_bits) out.winner_bits.reserve(k);

  for (unsigned s = 1; s <= k; ++s) {
    // Step 3(a): [d_min] over the current bit vectors.
    phase.Reset();
    SKNN_ASSIGN_OR_RETURN(EncryptedBits dmin_bits, SecureMinN(ctx, bits));
    bd.sminn_seconds += phase.ElapsedSeconds();

    // Step 3(b): tau_i = Epk(r_i * (d_min - d_i)), permuted. Epk(d_i) is
    // recomposed from the current bits (they carry the augmentation and,
    // from the second iteration on, the set flags).
    phase.Reset();
    Ciphertext e_dmin = ComposeFromBits(pk, dmin_bits);
    std::vector<Ciphertext> tau(n);
    ctx.ForEach(n, [&](std::size_t i) {
      Random& rng = Random::ThreadLocal();
      Ciphertext e_di = ComposeFromBits(pk, bits[i]);
      Ciphertext diff = pk.Sub(e_dmin, e_di);
      tau[i] = pk.MulScalar(diff, rng.NonZeroBelow(big_n));
    });
    Permutation pi = Permutation::Sample(n, Random::ThreadLocal());
    std::vector<Ciphertext> tau_perm = pi.Apply(tau);
    std::vector<BigInt> beta;
    beta.reserve(n);
    for (auto& c : tau_perm) beta.push_back(c.value());

    // Step 3(c): C2 locates the zero and answers with the encrypted
    // one-hot U. The augmentation guarantees a unique minimum, so C2 sees
    // exactly one zero — tie multiplicity is no longer in its view.
    SKNN_ASSIGN_OR_RETURN(Message u_resp,
                          ctx.Call(Op::kMinPointerBatch, std::move(beta)));
    if (u_resp.ints.size() != n) {
      return Status::ProtocolError("ExtractTopK: bad min-pointer response");
    }
    std::vector<Ciphertext> u(n);
    for (std::size_t i = 0; i < n; ++i) u[i] = Ciphertext(u_resp.ints[i]);

    // Step 3(d): V = pi^{-1}(U); record extraction via one batched SM of
    // V_i against every attribute, then column-wise homomorphic sums. Both
    // operands are below 2^attr_bits (V_i is a bit), so the blinds are
    // short.
    std::vector<Ciphertext> v = pi.ApplyInverse(u);
    std::vector<Ciphertext> sm_left(n * m), sm_right(n * m);
    ctx.ForEach(n, [&](std::size_t i) {
      for (std::size_t j = 0; j < m; ++j) {
        sm_left[i * m + j] = v[i];
        sm_right[i * m + j] = records[i][j];
      }
    });
    SKNN_ASSIGN_OR_RETURN(std::vector<Ciphertext> v_prime,
                          SecureMultiplyBatch(ctx, sm_left, sm_right,
                                              attr_bits));
    std::vector<Ciphertext> record(m);
    ctx.ForEach(m, [&](std::size_t j) {
      Ciphertext acc = v_prime[j];
      for (std::size_t i = 1; i < n; ++i) {
        acc = pk.Add(acc, v_prime[i * m + j]);
      }
      record[j] = std::move(acc);
    });
    out.records.push_back(std::move(record));
    if (keep_winner_bits) out.winner_bits.push_back(std::move(dmin_bits));
    bd.extract_seconds += phase.ElapsedSeconds();

    // Step 3(e): retire the winner so it can never win again. The paper
    // clamps every bit to 1 with n*l SBORs; setting the flag bit alone
    // already puts the winner above every live record. The winner is live
    // (flag 0) and V is one-hot, so flag + V_i = flag OR V_i exactly, one
    // local Add per record and no round trip. Unlike the all-ones clamp it
    // keeps retired records pairwise distinct (their index bits survive),
    // so no later SMIN compares two equal vectors. Skipped after the last
    // iteration: it only matters for a further SMIN_n.
    if (s == k) break;
    phase.Reset();
    for (std::size_t i = 0; i < n; ++i) bits[i][0] = pk.Add(bits[i][0], v[i]);
    bd.update_seconds += phase.ElapsedSeconds();
  }
  return out;
}

}  // namespace sknn
