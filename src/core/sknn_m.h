// SkNN_m — the fully secure protocol (Algorithm 6).
//
// After SSED + SBD give C1 the encrypted bit vectors [d_i] of all squared
// distances, the k winners are extracted one per iteration:
//
//   (a) SMIN_n yields [d_min] (known only to C1, value known to nobody);
//   (b) C1 recomposes Epk(d_min - d_i), blinds each difference with a fresh
//       non-zero factor and permutes the vector (pi) before sending it;
//   (c) C2 sees a zero only at the minimum position (random residues
//       elsewhere) and returns the encrypted one-hot vector U;
//   (d) C1 un-permutes U into V and extracts the winning record
//       obliviously: Epk(t'_s,j) = prod_i SM(V_i, Epk(t_{i,j}));
//   (e) the winner is retired so it can never win again — without C1
//       learning which record it was: C1 adds V_i to each record's flag bit
//       (below). The paper clamps every bit to 1 with SBORs instead; see
//       docs/CRYPTO.md section 6.
//
// Deterministic tie-break (the departure from the paper's literal Section
// 4.2, which lets C2 pick among tied minima at random): every comparison
// runs on an AUGMENTED bit vector
//
//     [extracted-flag | d_i (l bits) | global record index]
//
// so the compared values are pairwise distinct — ties in d are broken by
// the lower global index, and already-extracted records (flag set to 1 by
// step (e)) sort above everything still alive while staying distinct from
// each other. The protocol's answer becomes a pure function of (table,
// query, k), which is what lets a sharded execution
// (core/shard_coordinator.h) merge per-shard candidates into
// bitwise-identical results, and C2 now sees EXACTLY one zero in every
// min-pointer round instead of leaking the multiplicity of the tie. The
// index bits are data-independent public values; everything C2 decrypts is
// blinded exactly as before, so the Section 4.3 security argument is
// unchanged.
//
// Neither cloud learns distances, the query, the records, or which records
// form the answer: access patterns are hidden (Section 4.3).
#ifndef SKNN_CORE_SKNN_M_H_
#define SKNN_CORE_SKNN_M_H_

#include <vector>

#include "core/sknn_b.h"
#include "core/types.h"
#include "proto/context.h"
#include "proto/sbd.h"
#include "proto/smin.h"

namespace sknn {

/// \brief Width of the global-index field of the augmented bit vectors for
/// a database of `total_records` records (0 when a single record needs no
/// tie-break).
unsigned TieBreakIndexBits(std::size_t total_records);

/// \brief Total augmented vector width: flag + l distance bits + index.
inline unsigned AugmentedBitWidth(unsigned l, std::size_t total_records) {
  return 1 + l + TieBreakIndexBits(total_records);
}

/// \brief Steps 2-3(b-prep) of Algorithm 6 for `records` (all of Epk(T), or
/// one shard of it): SSED distances, SBD bit decomposition (one round per
/// bit, with short masks and no verification round; docs/CRYPTO.md §11),
/// then the tie-break augmentation described above. `farthest` complements the distance bits after SBD
/// (max(d) = NOT min(NOT d)) for the secure k-FARTHEST query, and the rest
/// of Algorithm 6 runs unchanged: a winner's set flag bit still sorts it
/// above every live record, and ties still go to the lower global index.
/// `global_indices` names each record's index in the FULL database (null =
/// identity, the unsharded case); `total_records` sizes the index field so
/// every shard of one database augments identically. SSED's blinds are
/// short for the attribute domain l implies,
/// DataOwner::ImpliedAttrBits(m, l), which bounds both Alice's records and
/// every query ValidateRequest admits, and `packs` are the records' SSED
/// packs (proto/ssed.h; null or empty: packed per call). `breakdown`, if
/// non-null, accumulates the ssed/sbd phase timings.
Result<std::vector<EncryptedBits>> PrepareDistanceBits(
    ProtoContext& ctx, const std::vector<std::vector<Ciphertext>>& records,
    const std::vector<Ciphertext>& enc_query, unsigned l,
    const std::vector<std::size_t>* global_indices, std::size_t total_records,
    bool farthest, SkNNmBreakdown* breakdown = nullptr,
    const std::vector<std::vector<Ciphertext>>* packs = nullptr);

/// \brief What k rounds of step 3 produce: per iteration the winner's
/// (still encrypted) record, and optionally its augmented bit vector — the
/// handle a shard hands the coordinator so the merge can re-compare
/// candidates without re-deriving distances.
struct TopKExtraction {
  /// winner s's record, attribute-wise encrypted (m ciphertexts each).
  std::vector<std::vector<Ciphertext>> records;
  /// winner s's augmented bits (only when keep_winner_bits).
  std::vector<EncryptedBits> winner_bits;
};

/// \brief Runs k iterations of Algorithm 6 step 3 — SMIN_n, min pointer,
/// oblivious record extraction, winner retirement — over any (records,
/// bits) pool: the full database, one shard, or a set of merge candidates.
/// `bits` are augmented vectors (PrepareDistanceBits or a shard's
/// winner_bits) and are mutated in place: each winner's flag bit is set to
/// 1 (skipped after the final iteration — it only matters for a further
/// SMIN_n). `attr_bits` bounds every record attribute to
/// [0, 2^attr_bits); the extraction SM multiplies a bit by an attribute
/// and blinds both for that bound (proto/sm.h; 0 = full-width blinds).
/// `breakdown`, if non-null, accumulates the sminn/extract/update timings.
Result<TopKExtraction> ExtractTopK(
    ProtoContext& ctx, const std::vector<std::vector<Ciphertext>>& records,
    std::vector<EncryptedBits>& bits, unsigned k, unsigned attr_bits,
    bool keep_winner_bits, SkNNmBreakdown* breakdown = nullptr);

}  // namespace sknn

#endif  // SKNN_CORE_SKNN_M_H_
