// sknn_encrypt — Alice's outsourcing step: attribute-wise encryption of a
// CSV table into the binary database C1 hosts.
//
//   sknn_encrypt --public pk.txt --csv patients.csv --attr-bits 9
//                --out db.bin [--skip-header]
//                [--shards s [--shard-scheme contiguous|roundrobin]
//                 --manifest-out manifest.bin]
//                [--clusters c [--cluster-seed s] --clusters-out cl.bin]
//
// With --shards, Alice also emits the shard manifest (core/sharding.h) —
// the small artifact every sknn_c1_shard worker and the coordinator load
// (--manifest) so the partitioning provably agrees across the deployment.
//
// With --clusters, Alice learns a k-means partitioning over her PLAINTEXT
// records (core/clustering.h — the one party who may see them) and emits
// the cluster manifest: assignments plus Paillier-encrypted centroids, the
// artifact behind the clustered (approximate) index mode. Deterministic for
// a fixed --cluster-seed, so re-exports agree across the deployment.
#include <cstdio>

#include "bigint/random.h"
#include "core/clustering.h"
#include "core/data_owner.h"
#include "core/db_io.h"
#include "crypto/serialization.h"
#include "data/csv.h"
#include "tools/tool_util.h"

int main(int argc, char** argv) {
  using namespace sknn;
  using namespace sknn::tools;
  const char* usage =
      "sknn_encrypt --public <pk> --csv <table.csv> --attr-bits <a> --out "
      "<db.bin> [--skip-header] [--shards s [--shard-scheme x] "
      "--manifest-out <file>] [--clusters c [--cluster-seed s] "
      "--clusters-out <file>]";
  auto flags = ParseFlags(argc, argv,
                          {"public", "csv", "attr-bits", "out", "skip-header",
                           "shards", "shard-scheme", "manifest-out",
                           "clusters", "cluster-seed", "clusters-out"},
                          usage);
  std::string pk_path = RequireFlag(flags, "public", usage);
  std::string csv_path = RequireFlag(flags, "csv", usage);
  std::string out_path = RequireFlag(flags, "out", usage);
  unsigned attr_bits = static_cast<unsigned>(ParseUint64OrDie(
      RequireFlag(flags, "attr-bits", usage), "attr-bits", usage, 1, 62));
  bool skip_header = flags.count("skip-header") > 0;

  auto pk = ReadPublicKeyFile(pk_path);
  if (!pk.ok()) {
    std::fprintf(stderr, "%s\n", pk.status().ToString().c_str());
    return 1;
  }
  auto table = ReadCsv(csv_path, skip_header);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }

  const std::size_t n = table->size(), m = (*table)[0].size();
  const int64_t bound = int64_t{1} << attr_bits;
  EncryptedDatabase db;
  db.records.reserve(n);
  Random& rng = Random::ThreadLocal();
  for (const auto& row : *table) {
    std::vector<Ciphertext> enc_row;
    enc_row.reserve(m);
    for (int64_t v : row) {
      if (v < 0 || v >= bound) {
        std::fprintf(stderr,
                     "value %lld outside [0, 2^%u) — re-encode the table "
                     "(see data/encoding.h)\n",
                     static_cast<long long>(v), attr_bits);
        return 1;
      }
      enc_row.push_back(pk->Encrypt(BigInt(v), rng));
    }
    db.records.push_back(std::move(enc_row));
  }
  db.distance_bits = DataOwner::RequiredDistanceBits(m, attr_bits);

  Status s = WriteEncryptedDatabase(out_path, db);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("encrypted %zu records x %zu attributes -> %s (l = %u bits)\n",
              n, m, out_path.c_str(), db.distance_bits);

  if (flags.count("shards")) {
    std::string manifest_path = RequireFlag(flags, "manifest-out", usage);
    std::size_t shards = static_cast<std::size_t>(ParseUint64OrDie(
        flags.at("shards"), "shards", usage, 1, 65535));
    auto scheme =
        ParseShardScheme(FlagOr(flags, "shard-scheme", "contiguous"));
    if (!scheme.ok()) {
      std::fprintf(stderr, "%s\nusage: %s\n",
                   scheme.status().ToString().c_str(), usage);
      return 2;
    }
    auto manifest = MakeShardManifest(n, shards, *scheme);
    if (!manifest.ok()) {
      std::fprintf(stderr, "%s\n", manifest.status().ToString().c_str());
      return 1;
    }
    if (Status ms = WriteShardManifest(manifest_path, *manifest); !ms.ok()) {
      std::fprintf(stderr, "%s\n", ms.ToString().c_str());
      return 1;
    }
    std::printf("shard manifest (%zu %s shards) -> %s\n", shards,
                ShardSchemeName(*scheme), manifest_path.c_str());
  }

  if (flags.count("clusters")) {
    std::string clusters_path = RequireFlag(flags, "clusters-out", usage);
    uint32_t num_clusters = static_cast<uint32_t>(ParseUint64OrDie(
        flags.at("clusters"), "clusters", usage, 1, 65535));
    uint64_t seed = ParseUint64OrDie(FlagOr(flags, "cluster-seed", "1"),
                                     "cluster-seed", usage, 0,
                                     UINT64_MAX);
    auto clusters = BuildClusterManifest(*table, num_clusters, seed, *pk);
    if (!clusters.ok()) {
      std::fprintf(stderr, "%s\n", clusters.status().ToString().c_str());
      return 1;
    }
    if (Status cs = WriteClusterManifest(clusters_path, *clusters);
        !cs.ok()) {
      std::fprintf(stderr, "%s\n", cs.ToString().c_str());
      return 1;
    }
    std::printf("cluster manifest (%u clusters, seed %llu) -> %s\n",
                clusters->num_clusters,
                static_cast<unsigned long long>(seed), clusters_path.c_str());
  }
  return 0;
}
