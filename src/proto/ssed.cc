#include "proto/ssed.h"

#include "proto/sm.h"

namespace sknn {

Result<std::vector<Ciphertext>> SecureSquaredDistanceBatch(
    ProtoContext& ctx, const std::vector<std::vector<Ciphertext>>& records,
    const std::vector<Ciphertext>& query, unsigned attr_bits) {
  const std::size_t n = records.size();
  const std::size_t m = query.size();
  if (n == 0) return std::vector<Ciphertext>{};
  for (const auto& rec : records) {
    if (rec.size() != m) {
      return Status::InvalidArgument("SSED: record/query dimension mismatch");
    }
  }
  const PaillierPublicKey& pk = ctx.pk();

  // Step 1: Epk(x_i - y_i) for every record and attribute, locally. The
  // query is negated once, not once per record.
  std::vector<Ciphertext> neg_query(m);
  for (std::size_t j = 0; j < m; ++j) neg_query[j] = pk.Negate(query[j]);
  std::vector<Ciphertext> diffs(n * m);
  ctx.ForEach(n, [&](std::size_t i) {
    for (std::size_t j = 0; j < m; ++j) {
      diffs[i * m + j] = pk.Add(records[i][j], neg_query[j]);
    }
  });

  // Step 2: Epk((x_i - y_i)^2) via one batched secure squaring.
  SKNN_ASSIGN_OR_RETURN(std::vector<Ciphertext> squares,
                        SecureSquareBatch(ctx, diffs, attr_bits));

  // Step 3: homomorphic sum per record.
  std::vector<Ciphertext> out(n);
  ctx.ForEach(n, [&](std::size_t i) {
    Ciphertext acc = squares[i * m];
    for (std::size_t j = 1; j < m; ++j) {
      acc = pk.Add(acc, squares[i * m + j]);
    }
    out[i] = std::move(acc);
  });
  return out;
}

Result<Ciphertext> SecureSquaredDistance(ProtoContext& ctx,
                                         const std::vector<Ciphertext>& ex,
                                         const std::vector<Ciphertext>& ey) {
  SKNN_ASSIGN_OR_RETURN(std::vector<Ciphertext> out,
                        SecureSquaredDistanceBatch(ctx, {ex}, ey));
  return out[0];
}

}  // namespace sknn
