// sknn_plain_knn — the plaintext kNN oracle as a CLI, for diffing the
// secure deployment's answers in scripted smoke runs (scripts/
// smoke_deploy.sh): same CSV, same query, no cryptography.
//
//   sknn_plain_knn --csv table.csv --query "1,2,3" --k 2
//                  [--skip-header] [--farthest]
//
// Output: k rows of comma-separated attributes, nearest first (farthest
// first with --farthest) — the same row format sknn_query prints after its
// header line. Ties are broken by lower record index, the same
// deterministic order the protocols implement (core/sknn_m.h tie-break
// augmentation), so the diff is exact even on tied-distance data.
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "baseline/plaintext_knn.h"
#include "data/csv.h"
#include "tools/tool_util.h"

int main(int argc, char** argv) {
  using namespace sknn;
  using namespace sknn::tools;
  const char* usage =
      "sknn_plain_knn --csv <table.csv> --query \"v1,v2,...\" --k <k> "
      "[--skip-header] [--farthest]";
  auto flags = ParseFlags(
      argc, argv, {"csv", "query", "k", "skip-header", "farthest"}, usage);
  std::string csv_path = RequireFlag(flags, "csv", usage);
  PlainRecord query = ParseRecord(RequireFlag(flags, "query", usage), usage);
  std::size_t k = static_cast<std::size_t>(ParseUint64OrDie(
      RequireFlag(flags, "k", usage), "k", usage, 1, 1u << 30));
  bool skip_header = flags.count("skip-header") > 0;
  bool farthest = flags.count("farthest") > 0;

  auto table = ReadCsv(csv_path, skip_header);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  if (table->empty() || (*table)[0].size() != query.size()) {
    std::fprintf(stderr, "query has %zu attributes, table has %zu\n",
                 query.size(),
                 table->empty() ? std::size_t{0} : (*table)[0].size());
    return 1;
  }
  if (k > table->size()) {
    std::fprintf(stderr, "k = %zu exceeds the %zu table records\n", k,
                 table->size());
    return 1;
  }

  std::vector<std::size_t> order;
  if (farthest) {
    order.resize(table->size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return SquaredDistance((*table)[a], query) >
                              SquaredDistance((*table)[b], query);
                     });
    order.resize(k);
  } else {
    order = PlainKnnIndices(*table, query, static_cast<unsigned>(k));
  }
  for (std::size_t i : order) {
    const PlainRecord& row = (*table)[i];
    for (std::size_t j = 0; j < row.size(); ++j) {
      std::printf("%s%lld", j ? "," : "", static_cast<long long>(row[j]));
    }
    std::printf("\n");
  }
  return 0;
}
