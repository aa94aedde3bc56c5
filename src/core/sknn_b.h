// SkNN_b — the basic protocol (Algorithm 5).
//
// C1 computes encrypted distances with SSED and hands them (with record
// indices) to C2, which decrypts them and returns the top-k index list.
// Efficient, but deliberately weaker: C2 learns all distances and both
// clouds learn which records answer the query (the data access pattern).
// The paper uses it as the efficiency baseline for SkNN_m (Figure 2(f)).
//
// Steps 2-3 run in RunShardStage (core/sharding.h) over the whole table, a
// shard or a clustered query's candidates; this file holds the C2 rounds
// both protocols share.
#ifndef SKNN_CORE_SKNN_B_H_
#define SKNN_CORE_SKNN_B_H_

#include <vector>

#include "core/types.h"
#include "proto/context.h"

namespace sknn {

/// \brief What C1 produces for Bob: the random masks (the masked records
/// themselves travel C2 -> Bob via C2's outbox, never through C1).
struct CloudQueryOutput {
  std::vector<BigInt> masks_for_bob;  // k*m row-major r_{j,h}
};

/// \brief Masks the chosen encrypted records attribute-wise and ships them
/// to C2 for decryption into Bob's outbox (steps 4-5 of Algorithm 5, shared
/// by both protocols). Returns the masks C1 sends Bob.
Result<CloudQueryOutput> MaskAndShipToBob(
    ProtoContext& ctx, const std::vector<std::vector<Ciphertext>>& chosen);

/// \brief Step 3 of Algorithm 5 on its own: C2 decrypts `dists` and returns
/// the indices of the k smallest, ties broken by the lower position — the
/// round the shard stage runs to pick its local candidates and the
/// coordinator reruns to merge them (core/shard_coordinator).
Result<std::vector<uint32_t>> SecureTopKIndices(
    ProtoContext& ctx, const std::vector<Ciphertext>& dists, unsigned k);

}  // namespace sknn

#endif  // SKNN_CORE_SKNN_B_H_
