// Secure outlier detection — another downstream task from Section 2.1.1,
// built on the k-FARTHEST extension (SMIN_n over complemented distance
// bits; see ComplementBits in proto/smin.h).
//
// Scenario: a clinic's readings cluster tightly; a few corrupted/anomalous
// records don't. For a probe record near the clusters, the k farthest
// records are the anomalies — retrieved fully securely: the clouds learn
// neither the data nor which records were flagged.
//
// Run:  ./examples/outlier_detection
#include <algorithm>
#include <cstdio>
#include <set>

#include "baseline/plaintext_knn.h"
#include "core/engine.h"
#include "data/synthetic.h"

int main() {
  using namespace sknn;

  const std::size_t m = 4;
  const int64_t max_value = 30;

  // Tight cluster of normal records around (8, 10, 12, 9)...
  ClusterSpec spec;
  spec.num_clusters = 1;
  spec.spread = 2;
  PlainTable table = GenerateClusteredTable(14, m, 15, spec, /*seed=*/99);
  // ...plus injected anomalies far outside it.
  PlainTable anomalies = {{29, 1, 28, 2}, {0, 29, 1, 27}, {28, 28, 29, 30}};
  std::set<std::size_t> anomaly_rows;
  for (const auto& a : anomalies) {
    anomaly_rows.insert(table.size());
    table.push_back(a);
  }
  const unsigned k = static_cast<unsigned>(anomalies.size());

  std::printf("Secure outlier detection via k-farthest neighbors\n");
  std::printf("=================================================\n");
  std::printf("%zu records (%u injected anomalies), m=%zu, k=%u\n\n",
              table.size(), k, m, k);

  SknnEngine::Options options;
  options.key_bits = 512;
  options.attr_bits = BitsForMaxValue(max_value);
  options.c1_threads = 2;
  options.c2_threads = 2;
  auto engine = SknnEngine::Create(table, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }

  // Probe from the middle of the normal cluster.
  QueryRequest request;
  request.record = table[0];
  request.k = k;
  request.protocol = QueryProtocol::kFarthest;
  auto result = (*engine)->Query(request);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  const PlainRecord& probe = request.record;
  std::printf("k farthest records from the cluster probe:\n");
  int found = 0;
  for (const auto& row : result->records) {
    bool is_anomaly =
        std::find(anomalies.begin(), anomalies.end(), row) != anomalies.end();
    found += is_anomaly ? 1 : 0;
    std::printf("  <");
    for (std::size_t j = 0; j < row.size(); ++j) {
      std::printf("%s%lld", j ? ", " : "", static_cast<long long>(row[j]));
    }
    std::printf(">  distance^2=%lld  %s\n",
                static_cast<long long>(SquaredDistance(row, probe)),
                is_anomaly ? "<- injected anomaly" : "");
  }
  std::printf("\nflagged %d / %u injected anomalies ", found, k);
  std::printf("(cloud time %.2f s, clouds learned nothing)\n",
              result->cloud_seconds);
  return found == static_cast<int>(k) ? 0 : 1;
}
