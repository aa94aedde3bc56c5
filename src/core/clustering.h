// Learned k-means partitioning for the clustered (approximate, sublinear)
// index mode.
//
// The data owner (Alice) clusters her PLAINTEXT table before encryption and
// ships the result — a record→cluster assignment plus the per-cluster
// centroids encrypted attribute-wise under her Paillier key — to C1 as a
// cluster manifest (see core/db_io for the SKNNCL01 container). At query
// time C1 scores the encrypted centroids with the same SSED + secure top-k
// round used for records, prunes to the closest p clusters, and runs the
// paper-exact SkNN_m machinery over the surviving candidates only. This is
// the SANNS-style recipe: per-query work becomes proportional to the
// candidate set instead of n, at the cost of an explicit recall knob
// (probe_clusters) and of revealing the CLUSTER ranking (never record
// distances) to C2 during the probe round.
//
// Everything here is deterministic for a fixed (table, num_clusters, seed):
// the assignment is reproducible across runs so that manifests written by
// sknn_encrypt agree with manifests rebuilt in tests.
#ifndef SKNN_CORE_CLUSTERING_H_
#define SKNN_CORE_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/types.h"
#include "crypto/paillier.h"

namespace sknn {

/// \brief The plaintext outcome of k-means: who lives where, and the rounded
/// integer centroids (kept in the attribute domain so they encrypt exactly
/// like records do).
struct KMeansResult {
  /// assignment[i] = cluster of record i, in [0, num_clusters).
  std::vector<uint32_t> assignment;
  /// centroids[c][j] = rounded mean of attribute j over cluster c. Every
  /// cluster is non-empty (empty clusters are reseeded during Lloyd's), so
  /// centroids.size() is the effective cluster count, which may be SMALLER
  /// than requested when the table has fewer records than clusters.
  std::vector<PlainRecord> centroids;
};

/// \brief Deterministic seeded Lloyd's k-means over the plaintext table.
///
/// Init is k-means++-style (D^2-weighted) driven by a splitmix64 stream, so
/// identical inputs give identical partitions on every platform. Empty
/// clusters are reseeded with the point farthest from its centroid.
/// Requires num_clusters >= 1 and a non-empty, rectangular table.
Result<KMeansResult> KMeansPartition(const PlainTable& table,
                                     uint32_t num_clusters, uint64_t seed,
                                     int max_iters = 25);

/// \brief The cluster-index sidecar C1 loads next to an encrypted database.
///
/// Centroids are encrypted attribute-wise under Alice's public key, exactly
/// like records, so SecureSquaredDistanceBatch scores them unchanged.
struct ClusterManifest {
  uint32_t num_clusters = 0;
  std::size_t num_attributes = 0;
  std::size_t total_records = 0;
  /// assignment[i] = cluster of record i; size total_records.
  std::vector<uint32_t> assignment;
  /// centroids[c][j] = Epk(centroid c, attribute j); num_clusters rows.
  std::vector<std::vector<Ciphertext>> centroids;
};

/// \brief Runs KMeansPartition and encrypts the centroids under `pk`.
///
/// Values must fit the same attribute domain as the table itself (they do by
/// construction: a rounded mean of in-domain values is in-domain).
Result<ClusterManifest> BuildClusterManifest(const PlainTable& table,
                                             uint32_t num_clusters,
                                             uint64_t seed,
                                             const PaillierPublicKey& pk);

/// \brief Global record indices of one cluster, ascending.
///
/// Ascending order matters: the global index is the SkNN_m tie-break key,
/// so candidate sets assembled from clusters must present records in the
/// same relative order as the full table does.
std::vector<std::size_t> ClusterRecordIndices(const ClusterManifest& manifest,
                                              uint32_t cluster);

/// \brief Per-cluster record counts; size manifest.num_clusters.
std::vector<uint32_t> ClusterSizes(const ClusterManifest& manifest);

/// \brief Internal consistency: non-zero geometry, an assignment of
/// total_records clusters each below num_clusters, and num_clusters
/// centroid rows of num_attributes ciphertexts.
Status ValidateClusterManifestShape(const ClusterManifest& manifest);

/// \brief ValidateClusterManifestShape, then: does this manifest describe
/// this database (record and attribute counts)?
Status ValidateClusterManifestForDatabase(const ClusterManifest& manifest,
                                          const EncryptedDatabase& db);

}  // namespace sknn

#endif  // SKNN_CORE_CLUSTERING_H_
