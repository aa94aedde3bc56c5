#include "core/sknn_b.h"

#include "net/message.h"

namespace sknn {

Result<CloudQueryOutput> MaskAndShipToBob(
    ProtoContext& ctx, const std::vector<std::vector<Ciphertext>>& chosen) {
  const PaillierPublicKey& pk = ctx.pk();
  const std::size_t m = chosen.empty() ? 0 : chosen[0].size();
  const std::size_t total = chosen.size() * m;
  CloudQueryOutput out;
  out.masks_for_bob.resize(total);
  for (std::size_t idx = 0; idx < total; ++idx) {
    out.masks_for_bob[idx] = Random::ThreadLocal().Below(pk.n());
  }
  // Mask encryptions ride the batched API (randomizer pool + fan-out).
  std::vector<Ciphertext> enc_masks =
      pk.EncryptMany(out.masks_for_bob, ctx.pool());
  std::vector<BigInt> gamma(total);
  ctx.ForEach(total, [&](std::size_t idx) {
    const Ciphertext& attr = chosen[idx / m][idx % m];
    gamma[idx] = pk.Add(attr, enc_masks[idx]).value();
  });
  SKNN_ASSIGN_OR_RETURN(Message resp,
                        ctx.Call(Op::kMaskedDecryptToBob, std::move(gamma)));
  (void)resp;  // empty ack
  return out;
}

Result<std::vector<uint32_t>> SecureTopKIndices(
    ProtoContext& ctx, const std::vector<Ciphertext>& dists, unsigned k) {
  const std::size_t n = dists.size();
  if (k == 0 || k > n) {
    return Status::InvalidArgument("SecureTopKIndices: k must be in [1, n]");
  }
  std::vector<BigInt> dist_values;
  dist_values.reserve(n);
  for (const auto& c : dists) dist_values.push_back(c.value());
  std::vector<uint8_t> aux;
  FrameWriter(aux).U32(k);
  SKNN_ASSIGN_OR_RETURN(
      Message resp,
      ctx.Call(Op::kTopKIndices, std::move(dist_values), std::move(aux)));
  FrameReader r(resp.aux);
  std::vector<uint32_t> indices(k);
  for (uint32_t& idx : indices) idx = r.U32();
  SKNN_RETURN_NOT_OK(r.Done("SecureTopKIndices: bad top-k response"));
  for (uint32_t idx : indices) {
    if (idx >= n) {
      return Status::ProtocolError("SecureTopKIndices: index out of range");
    }
  }
  return indices;
}

}  // namespace sknn
