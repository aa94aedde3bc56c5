#include "proto/ssed.h"

#include <algorithm>

#include "proto/sm.h"

namespace sknn {
namespace {

// One row's groups by Horner: (group size - 1) powers of 2^slot_bits each.
std::vector<Ciphertext> PackRow(const PaillierPublicKey& pk,
                                const std::vector<Ciphertext>& row,
                                const SlotLayout& layout) {
  const BigInt shift = BigInt::PowerOfTwo(layout.slot_bits);
  std::vector<Ciphertext> out(layout.Groups(row.size()));
  for (std::size_t g = 0; g < out.size(); ++g) {
    const std::size_t begin = g * layout.slots;
    std::size_t j = std::min(row.size(), begin + layout.slots) - 1;
    Ciphertext acc = row[j];
    while (j-- > begin) acc = pk.Add(pk.MulScalar(acc, shift), row[j]);
    out[g] = std::move(acc);
  }
  return out;
}

}  // namespace

SlotLayout SsedLayoutFor(const BigInt& n, unsigned attr_bits,
                         std::size_t m) {
  SlotLayout layout;
  if (!ShortBlindsFit(n, attr_bits) || m < 2) return layout;
  const unsigned slot_bits = attr_bits + kBlindStatisticalBits + 1;
  const std::size_t fit = (n.BitLength() - 1) / slot_bits;
  if (fit < 2) return layout;
  const std::size_t groups = (m + fit - 1) / fit;
  layout.slot_bits = slot_bits;
  layout.slots = (m + groups - 1) / groups;
  return layout;
}

std::vector<std::vector<Ciphertext>> PackSsedRecords(
    const PaillierPublicKey& pk,
    const std::vector<std::vector<Ciphertext>>& records, unsigned attr_bits,
    ThreadPool* pool) {
  if (records.empty()) return {};
  const SlotLayout layout =
      SsedLayoutFor(pk.n(), attr_bits, records[0].size());
  if (layout.slots == 1) return {};
  std::vector<std::vector<Ciphertext>> packs(records.size());
  auto pack = [&](std::size_t i) {
    packs[i] = PackRow(pk, records[i], layout);
  };
  if (pool != nullptr) {
    pool->ParallelFor(records.size(), pack);
  } else {
    for (std::size_t i = 0; i < records.size(); ++i) pack(i);
  }
  return packs;
}

Result<std::vector<Ciphertext>> SecureSquaredDistanceBatch(
    ProtoContext& ctx, const std::vector<std::vector<Ciphertext>>& records,
    const std::vector<Ciphertext>& query, unsigned attr_bits,
    const std::vector<std::vector<Ciphertext>>* packs) {
  const std::size_t n = records.size();
  const std::size_t m = query.size();
  if (n == 0) return std::vector<Ciphertext>{};
  if (m == 0) return Status::InvalidArgument("SSED: no attributes");
  for (const auto& rec : records) {
    if (rec.size() != m) {
      return Status::InvalidArgument("SSED: record/query dimension mismatch");
    }
  }
  const PaillierPublicKey& pk = ctx.pk();
  const SlotLayout layout = SsedLayoutFor(pk.n(), attr_bits, m);
  const std::size_t groups = layout.Groups(m);
  const bool packed = layout.slots > 1;
  std::vector<std::vector<Ciphertext>> own_packs;
  if (packed && (packs == nullptr || packs->empty())) {
    own_packs.resize(n);
    ctx.ForEach(n, [&](std::size_t i) {
      own_packs[i] = PackRow(pk, records[i], layout);
    });
    packs = &own_packs;
  }
  if (packed) {
    if (packs->size() != n) {
      return Status::InvalidArgument("SSED: packs do not match the records");
    }
    for (const auto& row : *packs) {
      if (row.size() != groups) {
        return Status::InvalidArgument("SSED: packs do not match the layout");
      }
    }
  }

  // Step 1: the negated query, per attribute and packed, once per call.
  std::vector<Ciphertext> neg_query(m);
  for (std::size_t j = 0; j < m; ++j) neg_query[j] = pk.Negate(query[j]);
  const std::vector<Ciphertext> neg_query_packs =
      packed ? PackRow(pk, neg_query, layout) : std::vector<Ciphertext>{};

  // Step 2: Epk(d_ij), and per group the packed difference.
  std::vector<Ciphertext> diffs(n * m);
  std::vector<Ciphertext> packed_diffs(packed ? n * groups : 0);
  ctx.ForEach(n, [&](std::size_t i) {
    for (std::size_t j = 0; j < m; ++j) {
      diffs[i * m + j] = pk.Add(records[i][j], neg_query[j]);
    }
    if (!packed) return;
    for (std::size_t g = 0; g < groups; ++g) {
      packed_diffs[i * groups + g] =
          pk.Add((*packs)[i][g], neg_query_packs[g]);
    }
  });

  // Step 3: one blinded round trip squares and sums each record's
  // differences (sm.h).
  return SecureSquareSumBatch(ctx, diffs, m, layout, packed_diffs, attr_bits);
}

Result<Ciphertext> SecureSquaredDistance(ProtoContext& ctx,
                                         const std::vector<Ciphertext>& ex,
                                         const std::vector<Ciphertext>& ey) {
  SKNN_ASSIGN_OR_RETURN(std::vector<Ciphertext> out,
                        SecureSquaredDistanceBatch(ctx, {ex}, ey));
  return out[0];
}

}  // namespace sknn
