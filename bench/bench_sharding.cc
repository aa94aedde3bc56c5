// bench_sharding — what replica failover costs one sharded query, and what
// the clustered index buys one.
//
// Series 1 (failover): a replicated remote topology — 2 shards, 2 TCP
// worker replicas for shard 0 — timed in four states: healthy steady
// state; the first query after the preferred replica is killed (pays one
// transport-failure detection + in-query retry); the query after that
// (preferred has rotated — steady state again); and a replica that HANGS
// instead of dying, where detection costs the per-attempt share of the
// query deadline rather than a fast connection reset. The failover column
// counts the in-query retries the response reported.
//
// Series 2 (clustered): what the k-means index buys one query — the
// exact scan versus IndexMode::kClustered at probe = 1 / 2 / 4 / all over a
// 16-cluster table, at n = 1000 and n = 10000. The figure of merit is the
// per-query Paillier encryption count (the op the candidate set size
// drives) and recall@k against the plaintext oracle; probe = all must match
// the exact scan's answer (the engine falls through to the exact path).
//
//   bench_sharding [--json [path]] [--only <series>]
//                                      # failover  -> BENCH_PR7.json
//                                      # clustered -> BENCH_PR9.json
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/plaintext_knn.h"
#include "bench/bench_util.h"
#include "core/clustering.h"
#include "core/data_owner.h"
#include "core/shard_worker.h"
#include "core/sharding.h"
#include "net/shard_wire.h"
#include "net/socket.h"
#include "proto/c2_service.h"

namespace sknn {
namespace bench {
namespace {

/// Consumes "--only <series>" / "--only=<series>" from the args; returns
/// the series name ("failover" / "clustered") or "" when the
/// flag is absent (run everything). CI runs one series at a time so the
/// smoke stays fast.
std::string ConsumeOnlyFlag(int* argc, char** argv) {
  for (int i = 1; i < *argc; ++i) {
    int remove = 0;
    std::string value;
    if (std::strncmp(argv[i], "--only=", 7) == 0) {
      value = argv[i] + 7;
      remove = 1;
    } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < *argc) {
      value = argv[i + 1];
      remove = 2;
    }
    if (remove == 0) continue;
    for (int j = i; j + remove < *argc; ++j) argv[j] = argv[j + remove];
    *argc -= remove;
    return value;
  }
  return "";
}

// ---------------------------------------------------------------------------
// Failover series machinery: a C2 key holder accepting any number of TCP
// connections, real ShardWorkers behind loopback RpcServers (killable), and
// one replica that hangs on the query leg instead of dying — the same rig
// the robustness tests use, sized for timing.

class FailoverC2 {
 public:
  explicit FailoverC2(const DataOwner& alice)
      : c2_(PaillierSecretKey(alice.secret_key_for_c2())) {
    c2_.EnableRandomizerPool(/*capacity=*/64);
    auto listener = TcpListener::Bind(0);
    if (!listener.ok()) Die("C2 listener", listener.status());
    listener_.emplace(std::move(listener).value());
    accept_thread_ = std::thread([this] {
      for (;;) {
        auto endpoint = listener_->Accept();
        if (!endpoint.ok()) return;  // closed
        MutexLock lock(&mutex_);
        sessions_.push_back(std::make_unique<RpcServer>(
            std::move(endpoint).value(),
            [this](const Message& req) { return c2_.Handle(req); },
            /*worker_threads=*/2));
      }
    });
  }

  ~FailoverC2() {
    listener_->Close();
    if (auto kick = ConnectTcp("127.0.0.1", listener_->port()); kick.ok()) {
      (*kick)->Close();
    }
    accept_thread_.join();
    MutexLock lock(&mutex_);
    for (auto& session : sessions_) session->Shutdown();
  }

  std::unique_ptr<Endpoint> Connect() {
    auto link = ConnectTcp("127.0.0.1", listener_->port());
    if (!link.ok()) Die("C2 connect", link.status());
    return std::move(link).value();
  }

 private:
  static void Die(const char* what, const Status& status) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }

  C2Service c2_;
  std::optional<TcpListener> listener_;
  std::thread accept_thread_;
  Mutex mutex_;
  std::vector<std::unique_ptr<RpcServer>> sessions_ GUARDED_BY(mutex_);
};

// One shard worker served over a loopback TCP link, killable mid-run.
class FailoverWorker {
 public:
  FailoverWorker(const DataOwner& alice, const EncryptedDatabase& db,
                 const ShardManifest& manifest, std::size_t shard,
                 FailoverC2* c2) {
    // What sknn_c1_shard builds around its worker: its own C2 link, C1
    // pool and randomizer pool.
    c2_client_ = std::make_unique<RpcClient>(c2->Connect());
    pool_ = std::make_unique<ThreadPool>(2);
    PaillierPublicKey pk = alice.public_key();
    rand_pool_ = std::make_unique<RandomizerPool>(pk.n(), /*capacity=*/64);
    pk.set_randomizer_pool(rand_pool_.get());
    auto worker = ShardWorker::Create(pk, db, manifest, shard,
                                      c2_client_.get(), pool_.get());
    if (!worker.ok()) {
      std::fprintf(stderr, "worker setup failed: %s\n",
                   worker.status().ToString().c_str());
      std::exit(1);
    }
    worker_ = std::move(worker).value();
    Serve([this](const Message& req) { return worker_->Handle(req); });
  }

  /// A replica that answers the construction-time ping with `geometry` but
  /// parks every query leg until destruction — alive on the socket, silent
  /// on the work; what a SIGSTOPped worker looks like to the coordinator.
  explicit FailoverWorker(const ShardGeometry& geometry) {
    Serve([this, geometry](const Message& req) -> Result<Message> {
      if (req.type == ShardOpCode(ShardOp::kShardPing)) {
        return EncodeShardGeometry(geometry);
      }
      hold_.get_future().wait();
      return Status::Unavailable("hung replica released");
    });
  }

  ~FailoverWorker() {
    server_->Shutdown();
    if (!released_.exchange(true)) hold_.set_value();
  }

  std::unique_ptr<Endpoint> TakeLink() { return std::move(link_).value(); }
  const ShardGeometry& geometry() const { return worker_->geometry(); }
  /// The "kill -9": slams the worker's link shut.
  void Kill() { server_->Shutdown(); }

 private:
  void Serve(RpcServer::Handler handler) {
    auto listener = TcpListener::Bind(0);
    if (!listener.ok()) {
      std::fprintf(stderr, "worker listener failed: %s\n",
                   listener.status().ToString().c_str());
      std::exit(1);
    }
    std::thread accepter([&] {
      auto accepted = listener->Accept();
      if (accepted.ok()) {
        server_ = std::make_unique<RpcServer>(std::move(accepted).value(),
                                              std::move(handler),
                                              /*worker_threads=*/2);
      }
    });
    link_ = ConnectTcp("127.0.0.1", listener->port());
    accepter.join();
    if (!link_.ok()) {
      std::fprintf(stderr, "worker connect failed: %s\n",
                   link_.status().ToString().c_str());
      std::exit(1);
    }
  }

  // All null for the hung replica; declared so the server goes first, then
  // the worker, then what it runs on.
  std::unique_ptr<RpcClient> c2_client_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<RandomizerPool> rand_pool_;
  std::unique_ptr<ShardWorker> worker_;
  std::unique_ptr<RpcServer> server_;
  Result<std::unique_ptr<SocketEndpoint>> link_ =
      Status::Internal("not connected");
  std::promise<void> hold_;
  std::atomic<bool> released_{false};
};

struct FailoverPoint {
  std::string scenario;
  double seconds = 0;
  uint64_t failovers = 0;
};

int Main(int argc, char** argv) {
  std::string json_path;
  bool want_json = ConsumeJsonFlag(&argc, argv, &json_path);
  const std::string only = ConsumeOnlyFlag(&argc, argv);
  const bool run_failover = only.empty() || only == "failover";
  const bool run_clustered = only.empty() || only == "clustered";

  const std::size_t n = PaperScale() ? 64 : 16;
  const std::size_t m = 2;
  const unsigned l = 8;
  const unsigned key_bits = PaperScale() ? 512 : 256;
  const unsigned k = 2;
  const std::size_t threads = BenchThreads();

  // -------------------------------------------------------------------------
  // Series 1: replica failover. 2 shards behind real TCP workers, shard 0
  // replicated twice; time the query through the failure modes.

  if (run_failover) {
  PrintHeader("failover", "per-query wall time across replica failure modes",
              "SkNN_m k=2; 2 shards, shard 0 twice-replicated over TCP");
  const uint32_t deadline_ms = PaperScale() ? 20000 : 4000;
  const int64_t max_value = MaxValueForDistanceBits(m, l);
  const PlainTable table = GenerateUniformTable(n, m, max_value, 4242);
  const PlainRecord fo_query = GenerateUniformQuery(m, max_value, 4243);
  auto alice = DataOwner::Create(key_bits);
  if (!alice.ok()) {
    std::fprintf(stderr, "keygen failed: %s\n",
                 alice.status().ToString().c_str());
    return 1;
  }
  auto db = alice->EncryptDatabase(table, BitsForMaxValue(max_value));
  if (!db.ok()) {
    std::fprintf(stderr, "encrypt failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  auto manifest = MakeShardManifest(n, 2, ShardScheme::kContiguous);
  if (!manifest.ok()) {
    std::fprintf(stderr, "manifest failed: %s\n",
                 manifest.status().ToString().c_str());
    return 1;
  }

  auto make_engine = [&](std::vector<std::unique_ptr<Endpoint>> links,
                         FailoverC2& c2) {
    SknnEngine::Options opts;
    opts.c1_threads = threads;
    opts.c2_threads = threads;
    auto engine = SknnEngine::CreateWithShardWorkers(
        alice->public_key(), std::move(links), c2.Connect(), opts);
    if (!engine.ok()) {
      std::fprintf(stderr, "remote engine failed: %s\n",
                   engine.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(engine).value();
  };
  auto timed = [&](SknnEngine& engine, uint32_t deadline,
                   const char* scenario) {
    QueryRequest request;
    request.record = fo_query;
    request.k = k;
    request.protocol = QueryProtocol::kSecure;
    request.deadline_ms = deadline;
    Stopwatch watch;
    auto response = engine.Query(request);
    if (!response.ok()) {
      std::fprintf(stderr, "%s query failed: %s\n", scenario,
                   response.status().ToString().c_str());
      std::exit(1);
    }
    FailoverPoint point;
    point.scenario = scenario;
    point.seconds = watch.ElapsedSeconds();
    for (const auto& shard : response->shards) {
      point.failovers += shard.failovers;
    }
    return point;
  };

  std::vector<FailoverPoint> fo_points;
  std::printf("%20s %12s %10s\n", "scenario", "seconds", "failovers");
  {
    // Healthy -> kill the preferred replica -> recovered, one rig: the
    // kill detection is a fast connection reset, the retry runs the stage
    // on the sibling, and the rotated preference makes the NEXT query free.
    FailoverC2 c2(*alice);
    FailoverWorker shard0_a(*alice, *db, *manifest, 0, &c2);
    FailoverWorker shard0_b(*alice, *db, *manifest, 0, &c2);
    FailoverWorker shard1(*alice, *db, *manifest, 1, &c2);
    std::vector<std::unique_ptr<Endpoint>> links;
    links.push_back(shard0_a.TakeLink());
    links.push_back(shard0_b.TakeLink());
    links.push_back(shard1.TakeLink());
    auto engine = make_engine(std::move(links), c2);
    (void)timed(*engine, 0, "warmup");
    fo_points.push_back(timed(*engine, 0, "healthy"));
    shard0_a.Kill();  // the preferred replica — every query so far used it
    fo_points.push_back(timed(*engine, 0, "kill_failover"));
    fo_points.push_back(timed(*engine, 0, "recovered"));
    for (auto i = fo_points.size() - 3; i < fo_points.size(); ++i) {
      std::printf("%20s %12.4f %10llu\n", fo_points[i].scenario.c_str(),
                  fo_points[i].seconds,
                  static_cast<unsigned long long>(fo_points[i].failovers));
    }
  }
  {
    // A replica that hangs instead of dying: detection costs the hung
    // attempt's share of the deadline (deadline/2 with two replicas), not
    // a connection reset. Unwarmed on purpose — the first query is the one
    // that meets the hang — so the number also carries pool cold-start,
    // which the deadline share dominates.
    FailoverC2 c2(*alice);
    FailoverWorker shard0_real(*alice, *db, *manifest, 0, &c2);
    FailoverWorker shard0_hung(shard0_real.geometry());
    FailoverWorker shard1(*alice, *db, *manifest, 1, &c2);
    std::vector<std::unique_ptr<Endpoint>> links;
    links.push_back(shard0_hung.TakeLink());  // replica 0: preferred, silent
    links.push_back(shard0_real.TakeLink());
    links.push_back(shard1.TakeLink());
    auto engine = make_engine(std::move(links), c2);
    fo_points.push_back(timed(*engine, deadline_ms, "hang_failover"));
    std::printf("%20s %12.4f %10llu\n", fo_points.back().scenario.c_str(),
                fo_points.back().seconds,
                static_cast<unsigned long long>(fo_points.back().failovers));
  }

  if (want_json) {
    std::ostringstream json;
    json << "{\"n\": " << n << ", \"k\": " << k << ", \"shards\": 2"
         << ", \"shard0_replicas\": 2, \"deadline_ms\": " << deadline_ms
         << ", \"points\": [";
    for (std::size_t i = 0; i < fo_points.size(); ++i) {
      if (i > 0) json << ", ";
      json << "{\"scenario\": \"" << fo_points[i].scenario
           << "\", \"seconds\": " << fo_points[i].seconds
           << ", \"failovers\": " << fo_points[i].failovers << "}";
    }
    json << "]}";
    MergeJsonSection(BenchJsonPath(json_path, "BENCH_PR7.json"), "failover",
                     json.str());
  }
  }  // run_failover

  // -------------------------------------------------------------------------
  // Series 2: the clustered index versus the exact scan. The exact
  // SkNN_b pass touches all n records; clustered mode pays one 16-centroid
  // scoring round and then only the probed clusters' records, so the
  // per-query encryption count — the op the candidate set drives — should
  // fall roughly n / candidates-fold. Recall@k is measured against the
  // plaintext oracle; probe = all must return the exact answer.

  if (run_clustered) {
  PrintHeader("clustered",
              "per-query encryption ops and recall vs probe_clusters",
              "SkNN_b k=4; 16-cluster k-means index, exact scan as baseline");
  const std::size_t cm = 2;
  const unsigned cl = 16;  // distance bits; domain [0, 181]
  const int64_t cmax = MaxValueForDistanceBits(cm, cl);
  const uint32_t num_clusters = 16;
  const unsigned ck = 4;
  const std::size_t num_queries = 4;

  auto calice = DataOwner::Create(key_bits);
  if (!calice.ok()) {
    std::fprintf(stderr, "keygen failed: %s\n",
                 calice.status().ToString().c_str());
    return 1;
  }
  auto die = [](const char* what, const Status& status) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  };

  struct ClusteredPoint {
    uint32_t probe = 0;
    double seconds = 0;       // avg per query
    double encryptions = 0;   // avg per query, both clouds
    double ops_reduction = 0; // exact encryptions / clustered encryptions
    double recall = 0;        // avg recall@k vs the plaintext oracle
  };
  struct ClusteredSeries {
    std::size_t n = 0;
    double exact_seconds = 0;
    double exact_encryptions = 0;
    std::vector<ClusteredPoint> points;
  };
  // recall@k with multiset semantics (clustered tables repeat rows).
  auto recall_at_k = [](const PlainTable& got, const PlainTable& want) {
    PlainTable pool = want;
    std::size_t hits = 0;
    for (const PlainRecord& r : got) {
      auto it = std::find(pool.begin(), pool.end(), r);
      if (it != pool.end()) {
        pool.erase(it);
        ++hits;
      }
    }
    return want.empty() ? 1.0 : static_cast<double>(hits) / want.size();
  };

  std::vector<ClusteredSeries> cluster_series;
  std::printf("%8s %8s %12s %14s %12s %8s\n", "n", "probe", "seconds",
              "encryptions", "ops_reduct", "recall");
  for (std::size_t cn : {std::size_t{1000}, std::size_t{10000}}) {
    PlainTable table = GenerateClusteredTable(
        cn, cm, cmax, {num_clusters, /*spread=*/6}, /*seed=*/9000 + cn);
    auto manifest_built = BuildClusterManifest(table, num_clusters,
                                               /*seed=*/9,
                                               calice->public_key());
    if (!manifest_built.ok()) die("cluster manifest", manifest_built.status());
    auto manifest = std::make_shared<const ClusterManifest>(
        std::move(manifest_built).value());

    SknnEngine::Options copts;
    copts.c1_threads = threads;
    copts.c2_threads = threads;
    copts.clusters = manifest;
    auto cdb = calice->EncryptDatabase(table, BitsForMaxValue(cmax));
    if (!cdb.ok()) die("encrypt", cdb.status());
    auto cengine = SknnEngine::CreateFromParts(
        calice->public_key(),
        PaillierSecretKey(calice->secret_key_for_c2()),
        std::move(cdb).value(), copts);
    if (!cengine.ok()) die("clustered engine", cengine.status());

    // Queries are table rows: their neighborhood concentrates in their own
    // cluster, which is the regime a clustered index is built for.
    std::vector<PlainRecord> queries;
    std::vector<PlainTable> oracle;
    for (std::size_t q = 0; q < num_queries; ++q) {
      const PlainRecord& record = table[(q * cn) / num_queries];
      queries.push_back(record);
      oracle.push_back(PlainKnn(table, record, ck));
    }

    ClusteredSeries series;
    series.n = cn;
    // Exact baseline: same engine, IndexMode::kExact (pool-warming query
    // first so the measurement is steady-state like the probes below).
    (void)MustQuery(**cengine, queries[0], ck, QueryProtocol::kBasic,
                    "clustered warmup");
    for (std::size_t q = 0; q < num_queries; ++q) {
      Stopwatch watch;
      QueryResponse response = MustQuery(**cengine, queries[q], ck,
                                         QueryProtocol::kBasic, "exact query");
      series.exact_seconds += watch.ElapsedSeconds() / num_queries;
      series.exact_encryptions +=
          static_cast<double>(response.ops.encryptions) / num_queries;
    }
    std::printf("%8zu %8s %12.4f %14.1f %12s %8s\n", cn, "exact",
                series.exact_seconds, series.exact_encryptions, "1.00x", "-");

    for (uint32_t probe : {1u, 2u, 4u, num_clusters}) {
      ClusteredPoint point;
      point.probe = probe;
      for (std::size_t q = 0; q < num_queries; ++q) {
        QueryRequest request;
        request.record = queries[q];
        request.k = ck;
        request.protocol = QueryProtocol::kBasic;
        request.index_mode = IndexMode::kClustered;
        request.probe_clusters = probe;
        Stopwatch watch;
        auto response = (*cengine)->Query(request);
        if (!response.ok()) die("clustered query", response.status());
        point.seconds += watch.ElapsedSeconds() / num_queries;
        point.encryptions +=
            static_cast<double>(response->ops.encryptions) / num_queries;
        point.recall += recall_at_k(response->records, oracle[q]) /
                        static_cast<double>(num_queries);
      }
      point.ops_reduction = series.exact_encryptions / point.encryptions;
      std::printf("%8zu %8u %12.4f %14.1f %11.2fx %8.3f\n", cn, probe,
                  point.seconds, point.encryptions, point.ops_reduction,
                  point.recall);
      series.points.push_back(point);
    }
    cluster_series.push_back(std::move(series));
  }

  if (want_json) {
    std::ostringstream json;
    json << "{\"clusters\": " << num_clusters << ", \"k\": " << ck
         << ", \"queries\": " << num_queries << ", \"m\": " << cm
         << ", \"key_bits\": " << key_bits << ", \"tables\": [";
    for (std::size_t t = 0; t < cluster_series.size(); ++t) {
      const ClusteredSeries& series = cluster_series[t];
      if (t > 0) json << ", ";
      json << "{\"n\": " << series.n
           << ", \"exact\": {\"seconds\": " << series.exact_seconds
           << ", \"encryptions\": " << series.exact_encryptions
           << "}, \"points\": [";
      for (std::size_t i = 0; i < series.points.size(); ++i) {
        const ClusteredPoint& point = series.points[i];
        if (i > 0) json << ", ";
        json << "{\"probe\": " << point.probe
             << ", \"seconds\": " << point.seconds
             << ", \"encryptions\": " << point.encryptions
             << ", \"ops_reduction\": " << point.ops_reduction
             << ", \"recall\": " << point.recall << "}";
      }
      json << "]}";
    }
    json << "]}";
    MergeJsonSection(BenchJsonPath(json_path, "BENCH_PR9.json"), "clustered",
                     json.str());
  }
  }  // run_clustered
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace sknn

int main(int argc, char** argv) { return sknn::bench::Main(argc, argv); }
