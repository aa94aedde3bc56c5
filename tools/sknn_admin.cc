// sknn_admin — operator's window into a serving front end.
//
//   sknn_admin --host 127.0.0.1 --port 9100 [--json] <command>
//     --hello              negotiation check: protocol revision + table count
//     --list-tables        the served table names, one per line
//     --table-info [name]  one table's geometry + shard topology
//                          (no name = every table)
//     --stats              uptime, in-flight, per-table admission counters
//                          (weight + fair share since revision 6),
//                          per-cloud randomizer-pool hit/miss/stock rows,
//                          per-table result-cache counters, and — when the
//                          front end authenticates — per-API-key quotas
//     --health             per-table, per-shard replica liveness: health,
//                          consecutive failures, failover count, last-ok age
//     --reload-table name [--spec spec]
//                          hot reload: rebuild the table (from --spec, or
//                          the spec recorded at startup) and swap it in
//                          under live traffic
//     --detach-table name  tombstone the table: queries answer kNotFound
//                          until a reload revives it
//
// --json switches --hello/--list-tables/--table-info/--stats/--health to a
// single JSON document on stdout — the machine-readable form scripted
// deployments (scripts/smoke_deploy.sh) assert against, stable across the
// human-format tweaks the text output is free to make.
//
// Control plane over the data port: every command is one hello handshake
// plus one frame of net/query_wire.h through the same port the data path
// uses, so what this prints is exactly what any RemoteQueryClient can
// learn (and the mutations exactly what any client could send). Exit 0 on
// success, 1 on any error (including a front end from the wrong protocol
// era, which answers the hello with a typed status instead of garbage).
#include <cstdio>
#include <string>
#include <vector>

#include "core/sharding.h"
#include "serve/remote_query_client.h"
#include "tools/tool_util.h"

namespace {

using namespace sknn;

// Minimal JSON string escaping: the names that reach this tool (table
// names, key ids, scheme names) are benign, but a quote or backslash in a
// key id must not break the document.
std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonU64(uint64_t v) { return std::to_string(v); }

std::string JsonDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string TableInfoJson(const TableInfoReply& info) {
  std::string out = "{";
  out += "\"name\":\"" + JsonEscape(info.name) + "\"";
  out += ",\"records\":" + JsonU64(info.num_records);
  out += ",\"attributes\":" + JsonU64(info.num_attributes);
  out += ",\"attr_bits\":" + JsonU64(info.attr_bits);
  out += ",\"k_max\":" + JsonU64(info.k_max);
  out += ",\"distance_bits\":" + JsonU64(info.distance_bits);
  out += ",\"shards\":" + JsonU64(info.num_shards);
  out += ",\"shard_scheme\":\"" +
         JsonEscape(ShardSchemeName(
             static_cast<ShardScheme>(info.shard_scheme))) +
         "\"";
  out += std::string(",\"remote_workers\":") +
         (info.remote_workers ? "true" : "false");
  out += ",\"clusters\":" + JsonU64(info.num_clusters);
  out += "}";
  return out;
}

int PrintTableInfo(RemoteQueryClient& client, const std::string& name) {
  auto info = client.TableInfo(name);
  if (!info.ok()) {
    std::fprintf(stderr, "table-info failed: %s\n",
                 info.status().ToString().c_str());
    return 1;
  }
  std::printf("table %s\n", info->name.c_str());
  std::printf("  records        %llu\n",
              static_cast<unsigned long long>(info->num_records));
  std::printf("  attributes     %u\n", info->num_attributes);
  std::printf("  attr_bits      %u   (values in [0, 2^%u))\n",
              info->attr_bits, info->attr_bits);
  std::printf("  k_max          %u\n", info->k_max);
  std::printf("  distance_bits  %u\n", info->distance_bits);
  if (info->num_shards > 1) {
    std::printf("  shards         %u (%s, %s)\n", info->num_shards,
                ShardSchemeName(static_cast<ShardScheme>(info->shard_scheme)),
                info->remote_workers ? "remote workers" : "in-process");
  } else {
    std::printf("  shards         1 (unsharded)\n");
  }
  if (info->num_clusters > 0) {
    std::printf("  clusters       %u   (clustered index: probe_clusters in "
                "[1, %u])\n",
                info->num_clusters, info->num_clusters);
  }
  return 0;
}

// --table-info resolution: an explicit name means that table; the bare
// flag means every served table. Returns the reply list or an exit code.
int CollectTableInfos(RemoteQueryClient& client, const std::string& flag_value,
                      std::vector<TableInfoReply>* out) {
  auto fetch = [&client, out](const std::string& name) -> int {
    auto info = client.TableInfo(name);
    if (!info.ok()) {
      std::fprintf(stderr, "table-info failed: %s\n",
                   info.status().ToString().c_str());
      return 1;
    }
    out->push_back(std::move(info).value());
    return 0;
  };
  if (flag_value != "true") return fetch(flag_value);
  // "true" is the flag parser's bare-flag sentinel, but it is also a
  // legal table name — resolve the collision in favor of a real table
  // with that name; only fall back to every-table when none exists.
  auto tables = client.ListTables();
  if (!tables.ok()) {
    std::fprintf(stderr, "list-tables failed: %s\n",
                 tables.status().ToString().c_str());
    return 1;
  }
  for (const std::string& table : *tables) {
    if (table == "true") return fetch(table);
  }
  for (const std::string& table : *tables) {
    if (int rc = fetch(table); rc != 0) return rc;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sknn::tools;
  const char* usage =
      "sknn_admin --host <ip> --port <p> [--json] "
      "(--hello | --list-tables | --table-info [name] | --stats | --health | "
      "--reload-table <name> [--spec <spec>] | --detach-table <name>)";
  auto flags = ParseFlags(argc, argv,
                          {"host", "port", "json", "hello", "list-tables",
                           "table-info", "stats", "health", "reload-table",
                           "spec", "detach-table"},
                          usage);
  std::string host = FlagOr(flags, "host", "127.0.0.1");
  uint16_t port = ParsePortOrDie(RequireFlag(flags, "port", usage), "port",
                                 usage);
  const bool json = flags.count("json") > 0;

  auto client = RemoteQueryClient::Connect(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "cannot reach front end at %s:%u: %s\n",
                 host.c_str(), port, client.status().ToString().c_str());
    return 1;
  }

  if (flags.count("hello")) {
    auto ack = (*client)->Hello();
    if (!ack.ok()) {
      std::fprintf(stderr, "hello failed: %s\n",
                   ack.status().ToString().c_str());
      return 1;
    }
    if (json) {
      std::printf("{\"revision\":%u,\"num_tables\":%u}\n", ack->revision,
                  ack->num_tables);
      return 0;
    }
    std::printf("protocol revision %u, %u table%s\n", ack->revision,
                ack->num_tables, ack->num_tables == 1 ? "" : "s");
    return 0;
  }
  if (flags.count("list-tables")) {
    auto tables = (*client)->ListTables();
    if (!tables.ok()) {
      std::fprintf(stderr, "list-tables failed: %s\n",
                   tables.status().ToString().c_str());
      return 1;
    }
    if (json) {
      std::string out = "[";
      for (std::size_t i = 0; i < tables->size(); ++i) {
        if (i) out += ",";
        out += "\"" + JsonEscape((*tables)[i]) + "\"";
      }
      out += "]";
      std::printf("%s\n", out.c_str());
      return 0;
    }
    for (const std::string& name : *tables) std::printf("%s\n", name.c_str());
    return 0;
  }
  if (flags.count("table-info")) {
    const std::string name = flags.at("table-info");
    if (json) {
      std::vector<TableInfoReply> infos;
      if (int rc = CollectTableInfos(**client, name, &infos); rc != 0) {
        return rc;
      }
      std::string out = "[";
      for (std::size_t i = 0; i < infos.size(); ++i) {
        if (i) out += ",";
        out += TableInfoJson(infos[i]);
      }
      out += "]";
      std::printf("%s\n", out.c_str());
      return 0;
    }
    if (name != "true") return PrintTableInfo(**client, name);
    auto tables = (*client)->ListTables();
    if (!tables.ok()) {
      std::fprintf(stderr, "list-tables failed: %s\n",
                   tables.status().ToString().c_str());
      return 1;
    }
    for (const std::string& table : *tables) {
      if (table == "true") return PrintTableInfo(**client, table);
    }
    for (const std::string& table : *tables) {
      if (int rc = PrintTableInfo(**client, table); rc != 0) return rc;
    }
    return 0;
  }
  if (flags.count("stats")) {
    auto stats = (*client)->ServiceStats();
    if (!stats.ok()) {
      std::fprintf(stderr, "stats failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    if (json) {
      std::string out = "{";
      out += "\"uptime_seconds\":" + JsonDouble(stats->uptime_seconds);
      out += ",\"connections\":" + JsonU64(stats->connections_accepted);
      out += ",\"in_flight\":" + JsonU64(stats->in_flight);
      out += std::string(",\"auth_enabled\":") +
             (stats->auth_enabled ? "true" : "false");
      out += ",\"tables\":[";
      for (std::size_t i = 0; i < stats->tables.size(); ++i) {
        const TableStatsEntry& t = stats->tables[i];
        if (i) out += ",";
        out += "{\"name\":\"" + JsonEscape(t.name) + "\"";
        out += ",\"completed\":" + JsonU64(t.completed);
        out += ",\"failed\":" + JsonU64(t.failed);
        out += ",\"rejected\":" + JsonU64(t.rejected);
        out += ",\"in_flight\":" + JsonU64(t.in_flight);
        out += ",\"weight\":" + JsonU64(t.weight);
        out += ",\"share_limit\":" + JsonU64(t.share_limit);
        out += ",\"cache_hits\":" + JsonU64(t.cache_hits);
        out += ",\"cache_misses\":" + JsonU64(t.cache_misses);
        out += ",\"cache_evictions\":" + JsonU64(t.cache_evictions);
        out += ",\"cache_entries\":" + JsonU64(t.cache_entries);
        out += ",\"cache_bytes\":" + JsonU64(t.cache_bytes);
        out += ",\"c1_pool_hits\":" + JsonU64(t.c1_pool_hits);
        out += ",\"c1_pool_misses\":" + JsonU64(t.c1_pool_misses);
        out += ",\"c1_pool_stock\":" + JsonU64(t.c1_pool_stock);
        out += ",\"c1_pool_capacity\":" + JsonU64(t.c1_pool_capacity);
        out += ",\"c2_pool_hits\":" + JsonU64(t.c2_pool_hits);
        out += ",\"c2_pool_misses\":" + JsonU64(t.c2_pool_misses);
        out += ",\"c2_pool_stock\":" + JsonU64(t.c2_pool_stock);
        out += ",\"c2_pool_capacity\":" + JsonU64(t.c2_pool_capacity);
        out += "}";
      }
      out += "],\"keys\":[";
      for (std::size_t i = 0; i < stats->keys.size(); ++i) {
        const ApiKeyStatsEntry& k = stats->keys[i];
        if (i) out += ",";
        out += "{\"id\":\"" + JsonEscape(k.id) + "\"";
        out += ",\"completed\":" + JsonU64(k.completed);
        out += ",\"denied\":" + JsonU64(k.denied);
        out += ",\"quota_rejected\":" + JsonU64(k.quota_rejected);
        out += ",\"quota\":" + JsonU64(k.quota);
        out += ",\"remaining\":" + JsonU64(k.remaining);
        out += ",\"weight\":" + JsonU64(k.weight);
        out += "}";
      }
      out += "]}";
      std::printf("%s\n", out.c_str());
      return 0;
    }
    std::printf("uptime %.1fs  connections %llu  in-flight %llu  auth %s\n",
                stats->uptime_seconds,
                static_cast<unsigned long long>(stats->connections_accepted),
                static_cast<unsigned long long>(stats->in_flight),
                stats->auth_enabled ? "on" : "off");
    std::printf("%-20s %10s %10s %10s %10s %7s %6s\n", "table", "completed",
                "failed", "rejected", "in-flight", "weight", "share");
    for (const TableStatsEntry& table : stats->tables) {
      std::printf("%-20s %10llu %10llu %10llu %10llu %7u %6u\n",
                  table.name.c_str(),
                  static_cast<unsigned long long>(table.completed),
                  static_cast<unsigned long long>(table.failed),
                  static_cast<unsigned long long>(table.rejected),
                  static_cast<unsigned long long>(table.in_flight),
                  table.weight, table.share_limit);
    }
    // Result-cache effectiveness per table (revision 6). A table serving
    // with the cache disabled shows an all-zero row.
    std::printf("%-20s %12s %12s %10s %10s %12s\n", "result cache", "hits",
                "misses", "evictions", "entries", "bytes");
    for (const TableStatsEntry& table : stats->tables) {
      std::printf("%-20s %12llu %12llu %10llu %10llu %12llu\n",
                  table.name.c_str(),
                  static_cast<unsigned long long>(table.cache_hits),
                  static_cast<unsigned long long>(table.cache_misses),
                  static_cast<unsigned long long>(table.cache_evictions),
                  static_cast<unsigned long long>(table.cache_entries),
                  static_cast<unsigned long long>(table.cache_bytes));
    }
    // Randomizer-pool effectiveness per table and cloud (revision 4).
    // hits/misses = encryptions served from precomputed stock vs inline
    // full modexps; stock/capacity = how warm the pool is right now.
    // capacity 0 = that cloud runs without a pool (row elided).
    std::printf("%-20s %-3s %12s %12s %10s %10s\n", "randomizer pool",
                "", "hits", "misses", "stock", "capacity");
    for (const TableStatsEntry& table : stats->tables) {
      if (table.c1_pool_capacity > 0) {
        std::printf("%-20s %-3s %12llu %12llu %10llu %10llu\n",
                    table.name.c_str(), "C1",
                    static_cast<unsigned long long>(table.c1_pool_hits),
                    static_cast<unsigned long long>(table.c1_pool_misses),
                    static_cast<unsigned long long>(table.c1_pool_stock),
                    static_cast<unsigned long long>(table.c1_pool_capacity));
      }
      if (table.c2_pool_capacity > 0) {
        std::printf("%-20s %-3s %12llu %12llu %10llu %10llu\n",
                    table.name.c_str(), "C2",
                    static_cast<unsigned long long>(table.c2_pool_hits),
                    static_cast<unsigned long long>(table.c2_pool_misses),
                    static_cast<unsigned long long>(table.c2_pool_stock),
                    static_cast<unsigned long long>(table.c2_pool_capacity));
      }
    }
    // Per-API-key quotas and counters, present when the front end runs
    // with --api-keys (revision 6).
    if (stats->auth_enabled) {
      std::printf("%-20s %10s %10s %10s %10s %10s %7s\n", "api key",
                  "completed", "denied", "quota-rej", "quota", "remaining",
                  "weight");
      for (const ApiKeyStatsEntry& key : stats->keys) {
        std::printf("%-20s %10llu %10llu %10llu %10llu %10llu %7u\n",
                    key.id.c_str(),
                    static_cast<unsigned long long>(key.completed),
                    static_cast<unsigned long long>(key.denied),
                    static_cast<unsigned long long>(key.quota_rejected),
                    static_cast<unsigned long long>(key.quota),
                    static_cast<unsigned long long>(key.remaining),
                    key.weight);
      }
    }
    return 0;
  }
  if (flags.count("health")) {
    auto health = (*client)->Health();
    if (!health.ok()) {
      std::fprintf(stderr, "health failed: %s\n",
                   health.status().ToString().c_str());
      return 1;
    }
    if (json) {
      std::string out = "{\"tables\":[";
      for (std::size_t i = 0; i < health->tables.size(); ++i) {
        const TableHealthEntry& table = health->tables[i];
        if (i) out += ",";
        out += "{\"name\":\"" + JsonEscape(table.name) + "\",\"replicas\":[";
        for (std::size_t j = 0; j < table.replicas.size(); ++j) {
          const ReplicaHealthEntry& r = table.replicas[j];
          if (j) out += ",";
          out += "{\"shard\":" + JsonU64(r.shard);
          out += ",\"replica\":" + JsonU64(r.replica);
          out += std::string(",\"healthy\":") + (r.healthy ? "true" : "false");
          out += ",\"consecutive_failures\":" +
                 JsonU64(r.consecutive_failures);
          out += ",\"failovers\":" + JsonU64(r.failovers);
          out += ",\"last_ok_age_seconds\":" +
                 JsonDouble(r.last_ok_age_seconds);
          out += "}";
        }
        out += "]}";
      }
      out += "]}";
      std::printf("%s\n", out.c_str());
      return 0;
    }
    for (const TableHealthEntry& table : health->tables) {
      if (table.replicas.empty()) {
        std::printf("table %-16s (no replicated shard workers)\n",
                    table.name.c_str());
        continue;
      }
      std::printf("table %s\n", table.name.c_str());
      for (const ReplicaHealthEntry& replica : table.replicas) {
        std::printf("  shard %-3u replica %-3u %-9s failures=%u "
                    "failovers=%llu last_ok=%s\n",
                    replica.shard, replica.replica,
                    replica.healthy ? "healthy" : "UNHEALTHY",
                    replica.consecutive_failures,
                    static_cast<unsigned long long>(replica.failovers),
                    replica.last_ok_age_seconds < 0
                        ? "never"
                        : (std::to_string(replica.last_ok_age_seconds) + "s")
                              .c_str());
      }
    }
    return 0;
  }
  if (flags.count("reload-table")) {
    const std::string name = flags.at("reload-table");
    const std::string spec = FlagOr(flags, "spec", "");
    auto acked = (*client)->ReloadTable(name, spec);
    if (!acked.ok()) {
      std::fprintf(stderr, "reload-table failed: %s\n",
                   acked.status().ToString().c_str());
      return 1;
    }
    std::printf("reloaded %s\n", acked->c_str());
    return 0;
  }
  if (flags.count("detach-table")) {
    auto acked = (*client)->DetachTable(flags.at("detach-table"));
    if (!acked.ok()) {
      std::fprintf(stderr, "detach-table failed: %s\n",
                   acked.status().ToString().c_str());
      return 1;
    }
    std::printf("detached %s\n", acked->c_str());
    return 0;
  }
  std::fprintf(stderr, "no command given\nusage: %s\n", usage);
  return 2;
}
