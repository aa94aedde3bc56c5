#include "core/clustering.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "bigint/random.h"

namespace sknn {

namespace {

// Self-contained splitmix64 stream. std::mt19937 would also be
// deterministic, but its distribution adapters are NOT specified
// bit-for-bit across standard libraries; this is, and clustering must
// reproduce exactly on every platform (the manifest written by
// sknn_encrypt is compared against manifests rebuilt in tests).
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  // Uniform in [0, bound) by rejection; bound must be nonzero.
  uint64_t Below(uint64_t bound) {
    const uint64_t limit = bound * (std::numeric_limits<uint64_t>::max() /
                                    bound);
    uint64_t draw;
    do {
      draw = Next();
    } while (draw >= limit);
    return draw % bound;
  }

 private:
  uint64_t state_;
};

double SquaredDistance(const PlainRecord& a, const PlainRecord& b) {
  double total = 0;
  for (std::size_t j = 0; j < a.size(); ++j) {
    const double d = static_cast<double>(a[j]) - static_cast<double>(b[j]);
    total += d * d;
  }
  return total;
}

}  // namespace

Result<KMeansResult> KMeansPartition(const PlainTable& table,
                                     uint32_t num_clusters, uint64_t seed,
                                     int max_iters) {
  if (num_clusters == 0) {
    return Status::InvalidArgument("KMeansPartition: num_clusters must be >= 1");
  }
  if (table.empty()) {
    return Status::InvalidArgument("KMeansPartition: empty table");
  }
  const std::size_t n = table.size();
  const std::size_t m = table[0].size();
  if (m == 0) {
    return Status::InvalidArgument("KMeansPartition: records have no attributes");
  }
  for (const PlainRecord& record : table) {
    if (record.size() != m) {
      return Status::InvalidArgument("KMeansPartition: ragged table");
    }
  }
  // More clusters than records would force empties forever; cap silently so
  // tiny tables still work with a generous --clusters setting.
  const uint32_t k =
      static_cast<uint32_t>(std::min<std::size_t>(num_clusters, n));

  SplitMix64 rng(seed != 0 ? seed : 0x736b6e6e636c01ull);
  // k-means++ init: first centroid uniform, then D^2-weighted.
  std::vector<PlainRecord> centroids;
  centroids.reserve(k);
  centroids.push_back(table[rng.Below(n)]);
  std::vector<double> dist2(n, 0);
  for (uint32_t c = 1; c < k; ++c) {
    double total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (const PlainRecord& centroid : centroids) {
        best = std::min(best, SquaredDistance(table[i], centroid));
      }
      dist2[i] = best;
      total += best;
    }
    if (total <= 0) {
      // All remaining mass sits on existing centroids (duplicate-heavy
      // table): any record works, pick one deterministically.
      centroids.push_back(table[rng.Below(n)]);
      continue;
    }
    // Draw a point with probability proportional to its D^2. The draw uses
    // integer arithmetic over Next() so it is platform-exact.
    double target = total * (static_cast<double>(rng.Next() >> 11) *
                             (1.0 / 9007199254740992.0));  // [0, 1) at 2^-53
    std::size_t chosen = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      target -= dist2[i];
      if (target <= 0) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(table[chosen]);
  }

  std::vector<uint32_t> assignment(n, 0);
  for (int iter = 0; iter < max_iters; ++iter) {
    // Assign step.
    bool moved = iter == 0;
    for (std::size_t i = 0; i < n; ++i) {
      uint32_t best_c = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (uint32_t c = 0; c < k; ++c) {
        const double d = SquaredDistance(table[i], centroids[c]);
        if (d < best_d) {
          best_d = d;
          best_c = c;
        }
      }
      if (assignment[i] != best_c) moved = true;
      assignment[i] = best_c;
    }
    if (!moved) break;
    // Update step: rounded integer means, so centroids stay in the
    // attribute domain and encrypt exactly like records.
    std::vector<std::vector<double>> sums(k, std::vector<double>(m, 0));
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      ++counts[assignment[i]];
      for (std::size_t j = 0; j < m; ++j) {
        sums[assignment[i]][j] += static_cast<double>(table[i][j]);
      }
    }
    for (uint32_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Reseed an empty cluster with the record farthest from its own
        // centroid — the classic fix, and deterministic.
        std::size_t worst = 0;
        double worst_d = -1;
        for (std::size_t i = 0; i < n; ++i) {
          const double d = SquaredDistance(table[i], centroids[assignment[i]]);
          if (d > worst_d) {
            worst_d = d;
            worst = i;
          }
        }
        centroids[c] = table[worst];
        continue;
      }
      for (std::size_t j = 0; j < m; ++j) {
        centroids[c][j] = static_cast<int64_t>(
            std::llround(sums[c][j] / static_cast<double>(counts[c])));
      }
    }
  }

  // One final assign pass so the returned assignment matches the returned
  // centroids (the loop may have updated centroids after its last assign).
  for (std::size_t i = 0; i < n; ++i) {
    uint32_t best_c = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (uint32_t c = 0; c < k; ++c) {
      const double d = SquaredDistance(table[i], centroids[c]);
      if (d < best_d) {
        best_d = d;
        best_c = c;
      }
    }
    assignment[i] = best_c;
  }
  // Every cluster must end non-empty (a by-cluster ShardWorker rejects
  // empties): give any orphaned centroid the record farthest from its own
  // centroid among clusters that can spare one.
  std::vector<std::size_t> counts(k, 0);
  for (uint32_t c : assignment) ++counts[c];
  for (uint32_t c = 0; c < k; ++c) {
    if (counts[c] != 0) continue;
    std::size_t worst = n;
    double worst_d = -1;
    for (std::size_t i = 0; i < n; ++i) {
      if (counts[assignment[i]] <= 1) continue;
      const double d = SquaredDistance(table[i], centroids[assignment[i]]);
      if (d > worst_d) {
        worst_d = d;
        worst = i;
      }
    }
    if (worst == n) break;  // k > distinct donors; cannot happen with k <= n
    --counts[assignment[worst]];
    assignment[worst] = c;
    counts[c] = 1;
    centroids[c] = table[worst];
  }

  KMeansResult result;
  result.assignment = std::move(assignment);
  result.centroids = std::move(centroids);
  return result;
}

Result<ClusterManifest> BuildClusterManifest(const PlainTable& table,
                                             uint32_t num_clusters,
                                             uint64_t seed,
                                             const PaillierPublicKey& pk) {
  SKNN_ASSIGN_OR_RETURN(KMeansResult kmeans,
                        KMeansPartition(table, num_clusters, seed));
  ClusterManifest manifest;
  manifest.num_clusters = static_cast<uint32_t>(kmeans.centroids.size());
  manifest.num_attributes = table[0].size();
  manifest.total_records = table.size();
  manifest.assignment = std::move(kmeans.assignment);
  Random& rng = Random::ThreadLocal();
  manifest.centroids.reserve(kmeans.centroids.size());
  for (const PlainRecord& centroid : kmeans.centroids) {
    std::vector<Ciphertext> row;
    row.reserve(centroid.size());
    for (int64_t value : centroid) {
      if (value < 0) {
        return Status::InvalidArgument(
            "BuildClusterManifest: negative centroid value " +
            std::to_string(value) + " (attributes must be non-negative)");
      }
      row.push_back(pk.Encrypt(BigInt(static_cast<uint64_t>(value)), rng));
    }
    manifest.centroids.push_back(std::move(row));
  }
  return manifest;
}

std::vector<std::size_t> ClusterRecordIndices(const ClusterManifest& manifest,
                                              uint32_t cluster) {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < manifest.assignment.size(); ++i) {
    if (manifest.assignment[i] == cluster) indices.push_back(i);
  }
  return indices;
}

std::vector<uint32_t> ClusterSizes(const ClusterManifest& manifest) {
  std::vector<uint32_t> sizes(manifest.num_clusters, 0);
  for (uint32_t c : manifest.assignment) {
    if (c < manifest.num_clusters) ++sizes[c];
  }
  return sizes;
}

Status ValidateClusterManifestShape(const ClusterManifest& manifest) {
  if (manifest.num_clusters == 0) {
    return Status::InvalidArgument("cluster manifest: zero clusters");
  }
  if (manifest.total_records == 0 || manifest.num_attributes == 0) {
    return Status::InvalidArgument("cluster manifest: empty geometry");
  }
  if (manifest.assignment.size() != manifest.total_records) {
    return Status::InvalidArgument(
        "cluster manifest: assignment covers " +
        std::to_string(manifest.assignment.size()) + " of " +
        std::to_string(manifest.total_records) + " records");
  }
  for (uint32_t c : manifest.assignment) {
    if (c >= manifest.num_clusters) {
      return Status::InvalidArgument(
          "cluster manifest: assignment names cluster " + std::to_string(c) +
          " of " + std::to_string(manifest.num_clusters));
    }
  }
  if (manifest.centroids.size() != manifest.num_clusters) {
    return Status::InvalidArgument(
        "cluster manifest: " + std::to_string(manifest.centroids.size()) +
        " centroid rows for " + std::to_string(manifest.num_clusters) +
        " clusters");
  }
  for (const std::vector<Ciphertext>& row : manifest.centroids) {
    if (row.size() != manifest.num_attributes) {
      return Status::InvalidArgument(
          "cluster manifest: centroid row has " + std::to_string(row.size()) +
          " attributes, expected " +
          std::to_string(manifest.num_attributes));
    }
  }
  return Status::OK();
}

Status ValidateClusterManifestForDatabase(const ClusterManifest& manifest,
                                          const EncryptedDatabase& db) {
  SKNN_RETURN_NOT_OK(ValidateClusterManifestShape(manifest));
  if (manifest.total_records != db.num_records()) {
    return Status::InvalidArgument(
        "cluster manifest: built for " +
        std::to_string(manifest.total_records) + " records but the database "
        "has " + std::to_string(db.num_records()));
  }
  if (manifest.num_attributes != db.num_attributes()) {
    return Status::InvalidArgument(
        "cluster manifest: built for " +
        std::to_string(manifest.num_attributes) + " attributes but the "
        "database has " + std::to_string(db.num_attributes()));
  }
  return Status::OK();
}

}  // namespace sknn
