// sknn_c1_server — the standing C1 query front end of the serving
// deployment (docs/DEPLOY.md), serving one or MANY encrypted tables behind
// the versioned wire contract of docs/API.md.
//
// Single table (the PR 3/4 shape):
//
//   sknn_c1_server --public pk.txt --db db.bin --port 9100
//                  --c2-host 127.0.0.1 --c2-port 9000
//                  [--threads N] [--max-in-flight M] [--queries N]
//                  [--shards S] [--shard-scheme contiguous|roundrobin]
//                  [--shard-workers host:port,host:port,...]
//
// Multi-table: repeat --table once per table. Each spec is
//   --table <name>=<db.bin>[,manifest=<file>][,public=<pk>]
//                          [,c2-host=<ip>][,c2-port=<p>]
//                          [,shards=<s>][,scheme=contiguous|roundrobin]
//                          [,clusters=<file>]
//                          [,weight=<w>][,rate=<qps>][,burst=<b>]
//                          [,cache=<bytes>]
// where public/c2-host/c2-port default to the global flags — so tables MAY
// have entirely different Paillier keys, each pointing at the C2 server
// holding its own secret key, or share one key and one C2. A manifest
// (sknn_encrypt --manifest-out) shards that table in-process with the
// partitioning Alice persisted. A clusters file (sknn_encrypt
// --clusters-out) arms the clustered (approximate) index mode: queries with
// index_mode=clustered prune to the probe_clusters nearest clusters; with
// shards > 1 the table is partitioned by cluster so pruned shards never see
// the query.
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
// rerandomized result cache in bytes — the tool defaults it ON at
// ResultCache::kDefaultMaxBytes; cache=0 disables it. --api-keys <file>
// enables per-user authentication and quotas: each line of the file is
// id:sha256(key):quota:weight, sessions must kAuthenticate before kQuery.
//
// --queries N exits after N queries have been answered (scripted smoke
// runs); the default serves until SIGINT/SIGTERM, either of which unbinds,
// drains in-flight queries and exits 0 (clean teardown for supervisors and
// scripts alike).
#include <charconv>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/clustering.h"
#include "core/db_io.h"
#include "core/engine.h"
#include "core/sharding.h"
#include "crypto/serialization.h"
#include "net/socket.h"
#include "serve/qos/api_key_auth.h"
#include "serve/qos/result_cache.h"
#include "serve/query_service.h"
#include "serve/table_registry.h"
#include "tools/tool_util.h"

namespace {

using namespace sknn;
using namespace sknn::tools;

// One --table spec, defaults already resolved against the global flags.
struct TableSpec {
  std::string name;
  std::string db_path;        // empty allowed when worker_addrs is set
  std::string manifest_path;  // empty = unsharded (or shards/scheme below)
  std::string clusters_path;  // empty = exact-only table
  std::string pk_path;
  std::string c2_host;
  uint16_t c2_port = 0;
  std::size_t shards = 1;
  ShardScheme scheme = ShardScheme::kContiguous;
  // Standing sknn_c1_shard workers ("host:port"); duplicates of a shard
  // index are replicas. '|'-separated in the spec string (the item
  // separator is ',').
  std::vector<std::string> worker_addrs;
  // QoS knobs (serve/qos/): fair-admission weight, token-bucket rate/burst
  // (0 = unlimited), and the result-cache byte budget — the TOOL's default
  // is cache ON, so operators opt OUT with cache=0 (the library default is
  // off so unconfigured embedders keep the pre-revision-6 behavior).
  uint32_t weight = 1;
  double rate = 0;
  double burst = 0;
  std::size_t cache_bytes = ResultCache::kDefaultMaxBytes;
};

// Strict whole-string non-negative double parse (rate=/burst= values);
// std::from_chars so a malformed spec is a Status, never an exception.
bool ParseSpecDouble(const std::string& value, double* out) {
  const char* begin = value.data();
  const char* end = begin + value.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end && *out >= 0;
}

// "<name>=<db>[,key=value...]" -> TableSpec. The same grammar serves both
// the --table flag and the recorded rebuild spec behind kReloadTable, so
// malformed text is a Status here: at startup the caller dies with usage,
// at reload time the admin gets the error and the server keeps serving.
Result<TableSpec> TryParseTableSpec(const std::string& text) {
  auto malformed = [&text](const std::string& why) {
    return Status::InvalidArgument("table spec '" + text + "': " + why);
  };
  TableSpec spec;
  std::stringstream ss(text);
  std::string item;
  bool first = true;
  while (std::getline(ss, item, ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
      return malformed("item '" + item + "' is not key=value");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (first) {
      spec.name = key;
      // "-" = no database file (the remote-worker form hosts no records).
      if (value != "-") spec.db_path = value;
      first = false;
      continue;
    }
    if (key == "manifest") {
      spec.manifest_path = value;
    } else if (key == "clusters") {
      spec.clusters_path = value;
    } else if (key == "public") {
      spec.pk_path = value;
    } else if (key == "c2-host") {
      spec.c2_host = value;
    } else if (key == "c2-port" || key == "shards") {
      unsigned parsed = 0;
      const char* begin = value.data();
      const char* end = begin + value.size();
      auto [ptr, ec] = std::from_chars(begin, end, parsed);
      if (ec != std::errc() || ptr != end || parsed > 65535 ||
          (key == "c2-port" && parsed == 0)) {
        return malformed("bad " + key + " '" + value + "'");
      }
      if (key == "c2-port") {
        spec.c2_port = static_cast<uint16_t>(parsed);
      } else {
        spec.shards = parsed;
      }
    } else if (key == "scheme") {
      auto scheme = ParseShardScheme(value);
      if (!scheme.ok()) return malformed("bad scheme '" + value + "'");
      spec.scheme = *scheme;
    } else if (key == "weight") {
      uint32_t parsed = 0;
      const char* begin = value.data();
      const char* end = begin + value.size();
      auto [ptr, ec] = std::from_chars(begin, end, parsed);
      if (ec != std::errc() || ptr != end || parsed == 0) {
        return malformed("bad weight '" + value + "' (want >= 1)");
      }
      spec.weight = parsed;
    } else if (key == "rate" || key == "burst") {
      double parsed = 0;
      if (!ParseSpecDouble(value, &parsed)) {
        return malformed("bad " + key + " '" + value + "'");
      }
      (key == "rate" ? spec.rate : spec.burst) = parsed;
    } else if (key == "cache") {
      std::size_t parsed = 0;
      const char* begin = value.data();
      const char* end = begin + value.size();
      auto [ptr, ec] = std::from_chars(begin, end, parsed);
      if (ec != std::errc() || ptr != end) {
        return malformed("bad cache '" + value + "' (bytes; 0 disables)");
      }
      spec.cache_bytes = parsed;
    } else if (key == "workers") {
      std::stringstream ws(value);
      std::string addr;
      while (std::getline(ws, addr, '|')) {
        if (!addr.empty()) spec.worker_addrs.push_back(addr);
      }
      if (spec.worker_addrs.empty()) {
        return malformed("empty workers list");
      }
    } else {
      return malformed("unknown key '" + key + "'");
    }
  }
  if (spec.name.empty()) return malformed("missing table name");
  if (spec.db_path.empty() && spec.worker_addrs.empty()) {
    return malformed("a database file (or workers=...) is required");
  }
  return spec;
}

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

// The inverse of TryParseTableSpec: the canonical rebuild spec recorded at
// registration, which a spec-less kReloadTable parses back.
std::string FormatTableSpec(const TableSpec& spec) {
  std::string out =
      spec.name + "=" + (spec.db_path.empty() ? "-" : spec.db_path);
  if (!spec.manifest_path.empty()) out += ",manifest=" + spec.manifest_path;
  if (!spec.clusters_path.empty()) out += ",clusters=" + spec.clusters_path;
  out += ",public=" + spec.pk_path;
  out += ",c2-host=" + spec.c2_host;
  out += ",c2-port=" + std::to_string(spec.c2_port);
  out += ",shards=" + std::to_string(spec.shards);
  out += ",scheme=" + std::string(ShardSchemeName(spec.scheme));
  // QoS keys only when off-default, so pre-revision-6 recorded specs and
  // new default ones stay byte-identical.
  if (spec.weight != 1) out += ",weight=" + std::to_string(spec.weight);
  if (spec.rate > 0) out += ",rate=" + std::to_string(spec.rate);
  if (spec.burst > 0) out += ",burst=" + std::to_string(spec.burst);
  if (spec.cache_bytes != ResultCache::kDefaultMaxBytes) {
    out += ",cache=" + std::to_string(spec.cache_bytes);
  }
  if (!spec.worker_addrs.empty()) {
    out += ",workers=";
    for (std::size_t i = 0; i < spec.worker_addrs.size(); ++i) {
      if (i) out += "|";
      out += spec.worker_addrs[i];
    }
  }
  return out;
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
  std::size_t shards = spec.shards;
  ShardScheme scheme = spec.scheme;
  if (spec.worker_addrs.empty()) {
    SKNN_ASSIGN_OR_RETURN(db, ReadEncryptedDatabase(spec.db_path));
    SKNN_RETURN_NOT_OK(ValidateCiphertexts(db, pk));
    if (!spec.manifest_path.empty()) {
      SKNN_ASSIGN_OR_RETURN(ShardManifest manifest,
                            ReadShardManifest(spec.manifest_path));
      SKNN_RETURN_NOT_OK(ValidateManifestForDatabase(manifest, db));
      shards = manifest.num_shards;
      scheme = manifest.scheme;
    }
    if (shards == 0) shards = 1;
  }
  if (scheme == ShardScheme::kByCluster && options.clusters == nullptr) {
    return Status::InvalidArgument(
        "table '" + spec.name +
        "': a bycluster shard manifest needs the cluster manifest too "
        "(clusters=<file>)");
  }
  // With a cluster manifest and shards > 1 the engine partitions BY CLUSTER
  // (one shard per cluster); the scheme/shard count here are then only the
  // operator's intent marker.
  if (options.clusters != nullptr && shards > 1) {
    shards = options.clusters->num_clusters;
    scheme = ShardScheme::kByCluster;
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
      QueryService::CreateShardedEngine(pk, std::move(db),
                                        std::move(c2_link).value(), options,
                                        shards, scheme, spec.worker_addrs));
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
      "[--queries N] [--shards S] [--shard-scheme contiguous|roundrobin] "
      "[--shard-workers host:port,...] [--clusters <file>] "
      "[--no-short-randomizers] [--api-keys <file>] "
      "[--table name=db.bin[,manifest=f][,clusters=f][,public=pk]"
      "[,c2-host=ip][,c2-port=p][,shards=s][,scheme=sch]"
      "[,weight=w][,rate=qps][,burst=b][,cache=bytes]]...";
  auto flag_list = ParseFlagList(
      argc, argv,
      {"port", "public", "db", "c2-host", "c2-port", "threads",
       "max-in-flight", "queries", "shards", "shard-scheme", "shard-workers",
       "clusters", "no-short-randomizers", "api-keys", "table"},
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
  // 0 = "not set": with --shard-workers the worker count (and the workers'
  // manifest) decides; without it the default is the unsharded engine.
  std::size_t shards = static_cast<std::size_t>(ParseUint64OrDie(
      FlagOr(flags, "shards", "0"), "shards", usage, 0, 65535));
  auto scheme = ParseShardScheme(FlagOr(flags, "shard-scheme", "contiguous"));
  if (!scheme.ok()) {
    std::fprintf(stderr, "%s\nusage: %s\n", scheme.status().ToString().c_str(),
                 usage);
    return 2;
  }
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
    // operator who writes `--shards 4 --table ...` expects sharding, and
    // getting an unsharded server instead would only surface under load.
    for (const char* single_only : {"shard-workers", "shards",
                                    "shard-scheme", "db", "clusters"}) {
      if (flags.count(single_only)) {
        std::fprintf(stderr,
                     "--%s applies to the single-table form only; with "
                     "--table, put db/manifest/shards/scheme inside each "
                     "table spec\nusage: %s\n",
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
    spec.shards = shards;
    spec.scheme = *scheme;
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
