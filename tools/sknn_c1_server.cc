// sknn_c1_server — the standing C1 query front end of the serving
// deployment (docs/DEPLOY.md), serving one or MANY encrypted tables behind
// the versioned wire contract of docs/API.md.
//
// Single table (the PR 3/4 shape):
//
//   sknn_c1_server --public pk.txt --db db.bin --port 9100
//                  --c2-host 127.0.0.1 --c2-port 9000
//                  [--threads N] [--max-in-flight M] [--queries N]
//                  [--shard-workers host:port,host:port,...]
//
// Multi-table: repeat --table once per table. Each spec is
//   --table <name>=<db.bin>[,public=<pk>][,c2-host=<ip>][,c2-port=<p>]
//                          [,workers=<host:port>|...][,clusters=<file>]
//                          [,weight=<w>][,rate=<qps>][,burst=<b>]
//                          [,cache=<bytes>]
// (grammar: tools/table_spec.h) where public/c2-host/c2-port default to
// the global flags — so tables MAY have entirely different Paillier keys,
// each pointing at the C2 server holding its own secret key, or share one
// key and one C2. A table is sharded by running sknn_c1_shard workers and
// listing them (--shard-workers, or workers= with db "-"): the front end
// then hosts no records. A clusters file (sknn_encrypt --clusters-out)
// arms the clustered (approximate) index mode: queries with
// index_mode=clustered prune to the probe_clusters nearest clusters; with
// workers started by sknn_c1_shard --clusters, pruned workers never see the
// query.
//
//   sknn_c1_server --port 9100 --c2-host 127.0.0.1 --c2-port 9000
//                  --public pk_a.txt
//                  --table users=users.bin
//                  --table genes=genes.bin,public=pk_b.txt,c2-port=9001
//
// Every engine is registered in one TableRegistry behind one QueryService:
// clients hello, then name the table per query; sknn_admin lists tables,
// geometry and per-table admission counters over the same port.
//
// QoS (protocol revision 6, docs/DEPLOY.md "multi-tenant operations"):
// weight= sets the table's share of the --max-in-flight budget under
// contention (weighted fair admission; default 1), rate=/burst= arm a
// token-bucket QPS limit (default off), and cache= bounds the table's
// result cache in bytes — the tool defaults it ON at
// ResultCache::kDefaultMaxBytes; cache=0 disables it. --api-keys <file>
// enables per-user authentication and quotas: each line of the file is
// id:sha256(key):quota:weight, sessions must kAuthenticate before kQuery.
//
// --queries N exits after N queries have been answered (scripted smoke
// runs); the default serves until SIGINT/SIGTERM, either of which unbinds,
// drains in-flight queries and exits 0 (clean teardown for supervisors and
// scripts alike).
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/clustering.h"
#include "core/db_io.h"
#include "core/engine.h"
#include "crypto/serialization.h"
#include "net/socket.h"
#include "serve/qos/api_key_auth.h"
#include "serve/qos/result_cache.h"
#include "serve/query_service.h"
#include "serve/table_registry.h"
#include "tools/table_spec.h"
#include "tools/tool_util.h"

namespace {

using namespace sknn;
using namespace sknn::tools;

// The --table flag's parse: dies with usage on malformed specs so a typo'd
// deployment refuses to start instead of serving the wrong table.
TableSpec ParseTableSpec(const std::string& text, const char* usage) {
  auto spec = TryParseTableSpec(text);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    DieBadFlag("table", text, usage);
  }
  return *spec;
}

// Loads one spec's artifacts and assembles its engine — own key, own
// database (or remote shard workers), own C2 connection — and logs its
// SSED packing. Runs at startup AND at every kReloadTable, where it
// rebuilds beside the live engine.
Result<std::unique_ptr<SknnEngine>> BuildTableEngine(
    const TableSpec& spec, const SknnEngine::Options& base_options) {
  SKNN_ASSIGN_OR_RETURN(PaillierPublicKey pk,
                        ReadPublicKeyFile(spec.pk_path));
  SknnEngine::Options options = base_options;
  if (!spec.clusters_path.empty()) {
    SKNN_ASSIGN_OR_RETURN(ClusterManifest clusters,
                          ReadClusterManifest(spec.clusters_path));
    options.clusters =
        std::make_shared<const ClusterManifest>(std::move(clusters));
  }
  EncryptedDatabase db;
  if (spec.worker_addrs.empty()) {
    SKNN_ASSIGN_OR_RETURN(db, ReadEncryptedDatabase(spec.db_path));
    SKNN_RETURN_NOT_OK(ValidateCiphertexts(db, pk));
  }
  auto c2_link = ConnectTcp(spec.c2_host, spec.c2_port);
  if (!c2_link.ok()) {
    return Status::Unavailable("table '" + spec.name +
                               "': cannot reach C2 at " + spec.c2_host + ":" +
                               std::to_string(spec.c2_port) + ": " +
                               c2_link.status().message());
  }
  SKNN_ASSIGN_OR_RETURN(
      std::unique_ptr<SknnEngine> engine,
      spec.worker_addrs.empty()
          ? SknnEngine::CreateWithRemoteC2(pk, std::move(db),
                                           std::move(c2_link).value(), options)
          : QueryService::CreateShardedEngine(pk, std::move(c2_link).value(),
                                              options, spec.worker_addrs));
  // The load-time SSED packing, one line per load and reload.
  const SknnEngine::PackStats& packed = engine->pack_stats();
  std::printf("table '%s': SSED packed %zu records, groups/record %zu, "
              "%.1f ms\n",
              spec.name.c_str(), packed.records, packed.groups_per_record,
              packed.seconds * 1e3);
  std::fflush(stdout);
  return engine;
}

}  // namespace

int main(int argc, char** argv) {
  const char* usage =
      "sknn_c1_server --port <p> [--public <pk>] [--db <db.bin>] "
      "[--c2-host <ip>] [--c2-port <p>] [--threads N] [--max-in-flight M] "
      "[--queries N] [--shard-workers host:port,...] [--clusters <file>] "
      "[--no-short-randomizers] [--api-keys <file>] "
      "[--table name=db.bin[,clusters=f][,public=pk][,c2-host=ip]"
      "[,c2-port=p][,workers=host:port|...]"
      "[,weight=w][,rate=qps][,burst=b][,cache=bytes]]...";
  auto flag_list = ParseFlagList(
      argc, argv,
      {"port", "public", "db", "c2-host", "c2-port", "threads",
       "max-in-flight", "queries", "shard-workers", "clusters",
       "no-short-randomizers", "api-keys", "table"},
      usage);
  std::map<std::string, std::string> flags;
  for (auto& [key, value] : flag_list) flags[key] = value;
  uint16_t port = ParsePortOrDie(RequireFlag(flags, "port", usage), "port",
                                 usage);
  std::string c2_host = FlagOr(flags, "c2-host", "127.0.0.1");
  std::size_t threads = static_cast<std::size_t>(ParseUint64OrDie(
      FlagOr(flags, "threads", "1"), "threads", usage, 1, 4096));
  std::size_t max_in_flight = static_cast<std::size_t>(ParseUint64OrDie(
      FlagOr(flags, "max-in-flight", "8"), "max-in-flight", usage, 1, 65536));
  int64_t target_queries = ParseInt64OrDie(FlagOr(flags, "queries", "-1"),
                                           "queries", usage, -1);
  std::vector<std::string> worker_addrs;
  if (flags.count("shard-workers")) {
    std::stringstream ss(flags.at("shard-workers"));
    std::string addr;
    while (std::getline(ss, addr, ',')) {
      if (!addr.empty()) worker_addrs.push_back(addr);
    }
    if (worker_addrs.empty()) {
      DieBadFlag("shard-workers", flags.at("shard-workers"), usage);
    }
  }

  SknnEngine::Options base_options;
  base_options.c1_threads = threads;
  // Front-end (C1-side) randomizer pool refill strategy; the remote C2
  // server picks its own via sknn_c2_server --no-short-randomizers.
  base_options.short_randomizers = !flags.count("no-short-randomizers");

  TableRegistry registry;
  const std::vector<std::string> table_flags = FlagValues(flag_list, "table");
  if (!table_flags.empty()) {
    // The single-table-only globals must not be silently ignored: an
    // operator who writes `--shard-workers ... --table ...` expects
    // sharding, and getting an unsharded server instead would only surface
    // under load.
    for (const char* single_only : {"shard-workers", "db", "clusters"}) {
      if (flags.count(single_only)) {
        std::fprintf(stderr,
                     "--%s applies to the single-table form only; with "
                     "--table, put db/workers/clusters inside each table "
                     "spec\nusage: %s\n",
                     single_only, usage);
        return 2;
      }
    }
  }

  // Every table is registered with its resolved spec string, so
  // kReloadTable can rebuild it from scratch (same artifacts, fresh
  // engine) without the admin repeating the command line.
  std::vector<TableSpec> specs;
  if (table_flags.empty()) {
    // The single-table form: global flags describe the sole table, served
    // under the name "default" (clients with an empty table name reach it).
    TableSpec spec;
    spec.name = "default";
    spec.pk_path = RequireFlag(flags, "public", usage);
    spec.c2_host = c2_host;
    spec.c2_port = ParsePortOrDie(RequireFlag(flags, "c2-port", usage),
                                  "c2-port", usage);
    spec.clusters_path = FlagOr(flags, "clusters", "");
    spec.worker_addrs = worker_addrs;
    // With remote shard workers the front end hosts no records; the
    // database is only required (and only loaded) when this process runs
    // the protocol over Epk(T) itself.
    if (worker_addrs.empty()) {
      spec.db_path = RequireFlag(flags, "db", usage);
    }
    specs.push_back(std::move(spec));
  } else {
    for (const std::string& text : table_flags) {
      TableSpec spec = ParseTableSpec(text, usage);
      if (spec.pk_path.empty()) {
        spec.pk_path = RequireFlag(flags, "public", usage);
      }
      if (spec.c2_host.empty()) spec.c2_host = c2_host;
      if (spec.c2_port == 0) {
        spec.c2_port = ParsePortOrDie(RequireFlag(flags, "c2-port", usage),
                                      "c2-port", usage);
      }
      specs.push_back(std::move(spec));
    }
  }
  for (const TableSpec& spec : specs) {
    auto engine = BuildTableEngine(spec, base_options);
    if (!engine.ok()) {
      std::fprintf(stderr, "table '%s' setup failed: %s\n", spec.name.c_str(),
                   engine.status().ToString().c_str());
      return 1;
    }
    if (Status s = registry.Register(spec.name, std::move(engine).value(),
                                     FormatTableSpec(spec));
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    // QoS knobs land on the registry entry, where QueryService::Start reads
    // them when building the fair-admission table and where the per-table
    // cache lives.
    TableRegistry::Entry* entry = registry.Find(spec.name);
    entry->qos_weight = spec.weight;
    entry->qos_rate = spec.rate;
    entry->qos_burst = spec.burst;
    entry->cache.set_budget(spec.cache_bytes, ResultCache::kDefaultMaxEntries);
  }

  QueryService::Options service_options;
  service_options.max_in_flight = max_in_flight;
  QueryService service(&registry, service_options);
  if (flags.count("api-keys")) {
    auto auth = ApiKeyAuth::LoadFromFile(flags.at("api-keys"));
    if (!auth.ok()) {
      std::fprintf(stderr, "--api-keys: %s\n",
                   auth.status().ToString().c_str());
      return 1;
    }
    service.set_api_key_auth(std::move(auth).value());
  }
  // Hot reload: kReloadTable hands this loader the recorded (or an
  // admin-supplied) spec string; the fresh engine is built beside the live
  // one and swapped in by the registry.
  service.set_table_loader(
      [base_options](const std::string& name, const std::string& spec)
          -> Result<std::unique_ptr<SknnEngine>> {
        if (spec.empty()) {
          return Status::FailedPrecondition(
              "table '" + name +
              "' has no recorded build spec; pass one with the reload");
        }
        SKNN_ASSIGN_OR_RETURN(TableSpec parsed, TryParseTableSpec(spec));
        parsed.name = name;  // the frame's table name wins over the spec's
        return BuildTableEngine(parsed, base_options);
      });
  if (Status s = service.Start(port); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  // The main loop below polls the flag the handler sets.
  InstallShutdownHandler();

  std::printf("C1 query front end serving on 127.0.0.1:%u "
              "(protocol rev %u, %zu table%s, threads=%zu, "
              "max-in-flight=%zu)\n",
              service.port(), kProtocolRevision, registry.size(),
              registry.size() == 1 ? "" : "s", threads, max_in_flight);
  for (const sknn::TableRegistry::Entry* entry : registry.snapshot()) {
    const SknnEngine::Info info = entry->engine()->info();
    std::printf("  table %-16s n=%zu m=%zu attr_bits=%u shards=%zu%s",
                entry->name.c_str(), info.num_records, info.num_attributes,
                info.attr_bits, info.num_shards,
                info.remote_shard_workers ? " (remote workers)" : "");
    if (info.num_clusters > 0) {
      std::printf(" clusters=%u", info.num_clusters);
    }
    std::printf(" weight=%u cache=%zu\n",
                entry->qos_weight, entry->cache.max_bytes());
  }
  std::fflush(stdout);

  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (ShutdownRequested()) break;
    if (target_queries < 0) continue;
    QueryService::Stats stats = service.stats();
    if (stats.queries_completed + stats.queries_failed >=
        static_cast<uint64_t>(target_queries)) {
      break;
    }
  }
  // Drain before Shutdown: the Nth completion is counted a hair before the
  // response frame is written, so wait (bounded) for the clients to read
  // their answers and hang up rather than cutting the last send off.
  for (int grace = 0; grace < 100 && service.active_sessions() > 0; ++grace) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  QueryService::Stats stats = service.stats();
  service.Shutdown();
  std::printf("served %llu queries (%llu failed, %llu rejected)%s; "
              "shutting down\n",
              static_cast<unsigned long long>(stats.queries_completed),
              static_cast<unsigned long long>(stats.queries_failed),
              static_cast<unsigned long long>(stats.queries_rejected),
              ShutdownRequested() ? " on signal" : "");
  return 0;
}
