// Secure Bit-OR (SBOR), Section 3: Epk(o1 OR o2) from encrypted bits, via
// o1 OR o2 = o1 + o2 - o1*o2 with the product from one SM call. The paper's
// Algorithm 6 step 3(e) uses n*l SBORs per iteration to clamp the chosen
// record's distance to all-ones; SkNN_m here needs none (its flag bit makes
// the clamp one local Add, docs/CRYPTO.md section 6).
#ifndef SKNN_PROTO_SBOR_H_
#define SKNN_PROTO_SBOR_H_

#include <vector>

#include "proto/context.h"

namespace sknn {

/// \brief Epk(o1 OR o2); operands must encrypt bits.
Result<Ciphertext> SecureBitOr(ProtoContext& ctx, const Ciphertext& o1,
                               const Ciphertext& o2);

/// \brief Element-wise OR over two bit vectors in one batched round trip.
Result<std::vector<Ciphertext>> SecureBitOrBatch(
    ProtoContext& ctx, const std::vector<Ciphertext>& o1s,
    const std::vector<Ciphertext>& o2s);

}  // namespace sknn

#endif  // SKNN_PROTO_SBOR_H_
