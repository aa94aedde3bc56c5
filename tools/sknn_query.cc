// sknn_query — Bob's thin client: one secure kNN query against a standing
// C1 query front end (sknn_c1_server).
//
//   sknn_query --host 127.0.0.1 --port 9100
//              --query "58,1,4,133,196,1,2,1,6" --k 2
//              [--table name] [--protocol secure] [--retries 5]
//              [--max-wait-ms 30000] [--deadline-ms D] [--stats]
//              [--index-mode exact|clustered] [--probe-clusters P]
//              [--server host:port,host:port,...]
//              [--api-key KEY] [--no-cache]
//
// --api-key authenticates the session (kAuthenticate, revision 6) against
// a front end started with --api-keys; without it such a front end rejects
// every query with PermissionDenied. --no-cache asks the front end to
// bypass its result cache for this query (a fresh protocol run, e.g. to
// cross-check a cached answer); --stats prints whether the answer was a
// cache hit, and marks op counts that lack C2's share.
//
// --index-mode clustered asks the front end for the table's approximate
// clustered index (sknn_encrypt --clusters): one secure centroid-scoring
// round prunes the search to the --probe-clusters nearest clusters — far
// fewer encryptions per query, at a recall cost sknn_admin --table-info
// helps you budget (it reports the table's cluster count).
//
// This process neither loads the encrypted database nor drives the
// protocol: it negotiates the versioned wire contract (hello), then sends
// one plaintext-record QueryRequest frame — naming the target table when
// the front end serves several (sknn_admin --list-tables enumerates them)
// — and receives the records plus per-query instrumentation. If the front
// end's admission budget is full (ResourceExhausted), the client backs off
// with exponential, jittered delays (RetryPolicy) up to --retries retries
// or --max-wait-ms total, then gives up with exit code 3.
//
// --deadline-ms arms the per-query deadline: the front end turns a hung
// shard worker into a typed kDeadlineExceeded (exit code 4) instead of
// letting the query stall. --server takes a comma-separated list of
// equivalent front ends; the client fails over between them when one dies
// (and retries worker-loss errors by default, as a replica list implies).
//
// protocols: basic (SkNN_b), secure (SkNN_m, default), farthest (k-FN).
#include <cstdio>

#include "serve/remote_query_client.h"
#include "tools/tool_util.h"

int main(int argc, char** argv) {
  using namespace sknn;
  using namespace sknn::tools;
  const char* usage =
      "sknn_query (--host <ip> --port <p> | --server host:port,...) "
      "--query \"v1,v2,...\" --k <k> "
      "[--table name] [--protocol basic|secure|farthest] [--retries N] "
      "[--max-wait-ms M] [--deadline-ms D] [--stats] "
      "[--index-mode exact|clustered] [--probe-clusters P] "
      "[--api-key KEY] [--no-cache]\n"
      "  basic:    SkNN_b — fast; C2 learns distances + access patterns\n"
      "  secure:   SkNN_m — fully secure k nearest neighbors (default)\n"
      "  farthest: SkNN_m on complemented distances — k farthest neighbors\n"
      "Thin client: talks to a sknn_c1_server front end, which hosts the\n"
      "encrypted table(s) and drives the clouds. Run as many instances\n"
      "concurrently as the front end's --max-in-flight admits.";
  auto flags = ParseFlags(argc, argv,
                          {"host", "port", "server", "query", "k", "table",
                           "protocol", "retries", "max-wait-ms", "deadline-ms",
                           "stats", "index-mode", "probe-clusters", "api-key",
                           "no-cache"},
                          usage);
  std::vector<std::string> endpoints;
  if (flags.count("server")) {
    std::stringstream ss(flags.at("server"));
    std::string addr;
    while (std::getline(ss, addr, ',')) {
      if (!addr.empty()) endpoints.push_back(addr);
    }
    if (endpoints.empty()) DieBadFlag("server", flags.at("server"), usage);
  } else {
    std::string host = FlagOr(flags, "host", "127.0.0.1");
    uint16_t port = ParsePortOrDie(RequireFlag(flags, "port", usage), "port",
                                   usage);
    endpoints.push_back(host + ":" + std::to_string(port));
  }
  QueryRequest request;
  request.table = FlagOr(flags, "table", "");
  // Ops/breakdown collection costs the front end an extra C1<->C2 round
  // trip per query; only pay it when --stats will print it.
  request.want_op_counts = flags.count("stats") > 0;
  request.want_breakdown = flags.count("stats") > 0;
  request.no_cache = flags.count("no-cache") > 0;
  request.record = ParseRecord(RequireFlag(flags, "query", usage), usage);
  request.k = static_cast<unsigned>(ParseUint64OrDie(
      RequireFlag(flags, "k", usage), "k", usage, 1, 1u << 30));
  request.deadline_ms = static_cast<uint32_t>(ParseUint64OrDie(
      FlagOr(flags, "deadline-ms", "0"), "deadline-ms", usage, 0, 86400000));
  std::string protocol = FlagOr(flags, "protocol", "secure");
  if (protocol == "basic") {
    request.protocol = QueryProtocol::kBasic;
  } else if (protocol == "secure") {
    request.protocol = QueryProtocol::kSecure;
  } else if (protocol == "farthest") {
    request.protocol = QueryProtocol::kFarthest;
  } else {
    DieBadFlag("protocol", protocol, usage);
  }
  std::string index_mode = FlagOr(flags, "index-mode", "exact");
  if (index_mode == "clustered") {
    request.index_mode = IndexMode::kClustered;
    request.probe_clusters = static_cast<uint32_t>(ParseUint64OrDie(
        FlagOr(flags, "probe-clusters", "1"), "probe-clusters", usage, 1,
        65535));
  } else if (index_mode != "exact") {
    DieBadFlag("index-mode", index_mode, usage);
  } else if (flags.count("probe-clusters")) {
    std::fprintf(stderr,
                 "--probe-clusters only applies with --index-mode "
                 "clustered\nusage: %s\n",
                 usage);
    return 2;
  }
  RetryPolicy policy;
  policy.max_attempts = 1 + static_cast<int>(ParseInt64OrDie(
      FlagOr(flags, "retries", "5"), "retries", usage, 0, 1000000));
  policy.max_elapsed =
      std::chrono::milliseconds(ParseInt64OrDie(
          FlagOr(flags, "max-wait-ms", "30000"), "max-wait-ms", usage, 0,
          86400000));

  auto client = RemoteQueryClient::Connect(endpoints);
  if (!client.ok()) {
    std::fprintf(stderr, "cannot reach front end at %s: %s\n",
                 endpoints.front().c_str(),
                 client.status().ToString().c_str());
    return 1;
  }
  if (flags.count("api-key")) {
    (*client)->set_api_key(flags.at("api-key"));
  }

  Result<QueryResponse> response = (*client)->QueryWithRetry(request, policy);
  if (!response.ok()) {
    if (response.status().code() == StatusCode::kResourceExhausted) {
      std::fprintf(stderr, "front end saturated, gave up: %s\n",
                   response.status().ToString().c_str());
      return 3;
    }
    if (response.status().code() == StatusCode::kDeadlineExceeded) {
      std::fprintf(stderr, "deadline exceeded: %s\n",
                   response.status().ToString().c_str());
      return 4;
    }
    if (response.status().code() == StatusCode::kPermissionDenied) {
      std::fprintf(stderr, "authentication rejected: %s\n",
                   response.status().ToString().c_str());
      return 5;
    }
    std::fprintf(stderr, "query failed: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }

  std::printf("%s %u-%s of <", protocol.c_str(), request.k,
              protocol == "farthest" ? "farthest" : "nearest");
  for (std::size_t j = 0; j < request.record.size(); ++j) {
    std::printf("%s%lld", j ? "," : "",
                static_cast<long long>(request.record[j]));
  }
  std::printf(">:\n");
  for (const auto& row : response->records) {
    for (std::size_t j = 0; j < row.size(); ++j) {
      std::printf("%s%lld", j ? "," : "", static_cast<long long>(row[j]));
    }
    std::printf("\n");
  }
  if (flags.count("stats")) {
    std::printf("# cache %s\n", response->cache_hit ? "hit" : "miss");
    std::printf("# bob %.6fs  cloud %.6fs  traffic %s  ops %s%s\n",
                response->bob_seconds, response->cloud_seconds,
                response->traffic.ToString().c_str(),
                response->ops.ToString().c_str(),
                response->c2_ops_missing ? " (C2's share missing)" : "");
    const SkNNmBreakdown& phases = response->breakdown;
    if (phases.total() > 0) {  // basic has no phases to split
      std::printf(
          "# phases: ssed %.3fs  sbd %.3fs  smin_n %.3fs  extract %.3fs  "
          "update %.3fs  finalize %.3fs\n",
          phases.ssed_seconds, phases.sbd_seconds, phases.sminn_seconds,
          phases.extract_seconds, phases.update_seconds,
          phases.finalize_seconds);
    }
    if (!response->shards.empty()) {
      uint32_t pruned = 0;
      for (const ShardQueryStats& shard : response->shards) {
        pruned += shard.pruned;
      }
      if (pruned > 0) {
        std::printf("# clustered: pruned %u of %zu shards\n", pruned,
                    response->shards.size());
      }
    }
  }
  return 0;
}
