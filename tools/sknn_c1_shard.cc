// sknn_c1_shard — one C1 shard worker of the sharded serving deployment
// (docs/DEPLOY.md).
//
//   sknn_c1_shard --public pk.txt --db db.bin --port 9200
//                 --c2-host 127.0.0.1 --c2-port 9000 --shard-index 1
//                 ( --shards 4 [--scheme contiguous]
//                 | --manifest manifest.bin | --clusters clusters.bin )
//                 [--threads N] [--connections N] [--no-short-randomizers]
//
// Loads the public key and the FULL encrypted database once, keeps only its
// shard of the records (the manifest — derived from --shards / --scheme,
// loaded from --manifest, or one shard per cluster of --clusters — says
// which; --clusters wins over --manifest, which wins over --shards),
// connects to the C2 key holder, and serves the coordinator's kShardPing /
// kShardQuery frames (net/shard_wire.h) on --port. Every worker of one
// deployment must be launched with the SAME manifest parameters against the
// SAME database; the coordinator cross-checks this at connect time and
// refuses a mismatched set.
//
// --clusters (instead of --shards/--scheme/--manifest) makes this worker
// shard `--shard-index` of a CLUSTER-partitioned deployment: it hosts the
// records of cluster i of the sknn_encrypt --clusters manifest, so a
// clustered front end can prune this whole worker out of a query.
//
// The worker's encryptions draw from a randomizer pool refilled on the
// short-exponent fixed-base path (docs/CRYPTO.md); --no-short-randomizers
// selects the assumption-free full-width generation instead, as the same
// flag does on sknn_c1_server and sknn_c2_server. The startup line names
// the refill mode.
//
// Coordinator links are served through net/rpc_listener.h, so a closed
// link's session is freed on the next accept. --connections N exits once N
// coordinator links were accepted and all have closed (scripted smoke
// runs); the default serves until SIGINT/SIGTERM, either of which stops
// accepting, drains in-flight shard stages and exits 0.
#include <cstdio>
#include <optional>

#include "core/db_io.h"
#include "core/shard_worker.h"
#include "crypto/serialization.h"
#include "net/rpc_listener.h"
#include "net/socket.h"
#include "tools/tool_util.h"

int main(int argc, char** argv) {
  using namespace sknn;
  using namespace sknn::tools;
  const char* usage =
      "sknn_c1_shard --public <pk> --db <db.bin> --port <p> "
      "[--c2-host <ip>] --c2-port <p> --shard-index <i> "
      "(--shards <s> [--scheme contiguous|roundrobin] | --manifest <file> "
      "| --clusters <file>) [--threads N] [--connections N] "
      "[--no-short-randomizers]";
  auto flags = ParseFlags(argc, argv,
                          {"public", "db", "port", "c2-host", "c2-port",
                           "shards", "shard-index", "scheme", "manifest",
                           "clusters", "threads", "connections",
                           "no-short-randomizers"},
                          usage);
  std::string pk_path = RequireFlag(flags, "public", usage);
  std::string db_path = RequireFlag(flags, "db", usage);
  uint16_t port = ParsePortOrDie(RequireFlag(flags, "port", usage), "port",
                                 usage);
  std::string c2_host = FlagOr(flags, "c2-host", "127.0.0.1");
  uint16_t c2_port = ParsePortOrDie(RequireFlag(flags, "c2-port", usage),
                                    "c2-port", usage);
  std::size_t shard_index = static_cast<std::size_t>(ParseUint64OrDie(
      RequireFlag(flags, "shard-index", usage), "shard-index", usage, 0,
      65535));
  std::size_t threads = static_cast<std::size_t>(ParseUint64OrDie(
      FlagOr(flags, "threads", "1"), "threads", usage, 1, 4096));
  long connections = static_cast<long>(ParseInt64OrDie(
      FlagOr(flags, "connections", "-1"), "connections", usage, -1));

  auto pk = ReadPublicKeyFile(pk_path);
  if (!pk.ok()) {
    std::fprintf(stderr, "%s\n", pk.status().ToString().c_str());
    return 1;
  }
  auto db = ReadEncryptedDatabase(db_path);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  if (Status s = ValidateCiphertexts(*db, *pk); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  ShardManifest manifest;
  std::optional<ClusterManifest> clusters;
  if (flags.count("clusters")) {
    auto loaded = ReadClusterManifest(flags.at("clusters"));
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    clusters = std::move(loaded).value();
    if (Status s = ValidateClusterManifestForDatabase(*clusters, *db);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    auto made = MakeShardManifest(db->num_records(), clusters->num_clusters,
                                  ShardScheme::kByCluster);
    if (!made.ok()) {
      std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
      return 1;
    }
    manifest = std::move(made).value();
  } else if (flags.count("manifest")) {
    auto loaded = ReadShardManifest(flags.at("manifest"));
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    manifest = std::move(loaded).value();
    // A manifest from a different export would misassign every record;
    // refuse to serve rather than answer wrong.
    if (Status s = ValidateManifestForDatabase(manifest, *db); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  } else {
    std::size_t shards = static_cast<std::size_t>(ParseUint64OrDie(
        RequireFlag(flags, "shards", usage), "shards", usage, 1, 65535));
    auto scheme = ParseShardScheme(FlagOr(flags, "scheme", "contiguous"));
    if (!scheme.ok()) {
      std::fprintf(stderr, "%s\n", scheme.status().ToString().c_str());
      return 1;
    }
    auto made = MakeShardManifest(db->num_records(), shards, *scheme);
    if (!made.ok()) {
      std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
      return 1;
    }
    manifest = std::move(made).value();
  }

  auto c2_link = ConnectTcp(c2_host, c2_port);
  if (!c2_link.ok()) {
    std::fprintf(stderr, "cannot reach C2 at %s:%u: %s\n", c2_host.c_str(),
                 c2_port, c2_link.status().ToString().c_str());
    return 1;
  }

  // What the worker runs on, built the way SknnEngine::InitCommon builds
  // its own: the C2 client, a C1 pool for the local fan-out, and a
  // randomizer pool behind the key, refilled by RefillWorkersFor(threads)
  // threads in the chosen mode.
  RpcClient c2(std::move(c2_link).value());
  Message ping;
  ping.type = OpCode(Op::kPing);
  auto pong = c2.Call(std::move(ping));
  if (!pong.ok() || pong->type != OpCode(Op::kPing)) {
    std::fprintf(stderr, "C2 at %s:%u did not answer ping (not a C2 "
                 "server?)\n", c2_host.c_str(), c2_port);
    return 1;
  }
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  RandomizerPoolOptions pool_options;
  pool_options.workers = RefillWorkersFor(threads);
  pool_options.short_exponents = !flags.count("no-short-randomizers");
  RandomizerPool rand_pool(pk->n(), /*capacity=*/4096, pool_options);
  pk->set_randomizer_pool(&rand_pool);

  auto worker =
      clusters.has_value()
          ? ShardWorker::Create(*pk, *db, *clusters, shard_index, &c2,
                                pool ? &*pool : nullptr)
          : ShardWorker::Create(*pk, *db, manifest, shard_index, &c2,
                                pool ? &*pool : nullptr);
  if (!worker.ok()) {
    std::fprintf(stderr, "shard worker setup failed: %s\n",
                 worker.status().ToString().c_str());
    return 1;
  }
  db->records.clear();  // only the slice is needed from here on

  ShardWorker* worker_raw = worker->get();
  auto listener = RpcListener::Start(
      port,
      [worker_raw]() -> RpcServer::Handler {
        return [worker_raw](const Message& req) {
          return worker_raw->Handle(req);
        };
      },
      threads);
  if (!listener.ok()) {
    std::fprintf(stderr, "%s\n", listener.status().ToString().c_str());
    return 1;
  }
  InstallShutdownHandler();
  std::printf(
      "C1 shard %zu/%zu (%s, %zu records, %s randomizers) serving on "
      "127.0.0.1:%u\n",
      shard_index, manifest.num_shards, ShardSchemeName(manifest.scheme),
      (*worker)->shard_records(),
      pool_options.short_exponents ? "short-exponent" : "full-width",
      (*listener)->port());
  std::fflush(stdout);

  ServeUntilDone(**listener, connections, "coordinator connection");
  return 0;
}
