// sknn_bench — the repository benchmark: secure kNN served the way it is
// deployed, thin client -> sknn_c1_server -> sknn_c2_server, each in its own
// process, at the paper's 1024-bit key size.
//
//   sknn_bench --workload <name> --out <dir> [--seed S] [--seconds T]
//              [--trace 0|1] [--smoke] [--git-sha SHA]
//
// One invocation runs one workload (table below) and ends its standard
// output with one JSON line: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones, measured untraced:
// set-up time (median of three full set-ups), latency median and tail,
// throughput, and recall@k. With --trace 1 the run records spans around
// every layer call it makes (written to <dir>/trace.json) and reports the
// per-layer metrics instead: the served window's pool, cache, network, CPU
// and op counters, then each layer timed on its own (layers.h). --smoke
// shrinks everything (256-bit keys, tiny tables, two queries) so that the
// whole metric set can be checked for presence in seconds.
//
// Inputs come from --seed alone: the table, the query stream and the keys.
// Every exact answer is compared with the plaintext oracle (PlainKnn, ties
// to the lower index); a mismatch counts as a failed query and makes the
// run exit 1. The clustered workload is approximate and reports recall@k
// against the same oracle instead. See README.md for the workloads, the
// metric map and how to read the numbers.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baseline/plaintext_knn.h"
#include "bench/sknn_bench/layers.h"
#include "bench/sknn_bench/report.h"
#include "bench/sknn_bench/server_process.h"
#include "bench/sknn_bench/trace.h"
#include "common/mutex.h"
#include "common/stopwatch.h"
#include "core/clustering.h"
#include "core/data_owner.h"
#include "core/db_io.h"
#include "crypto/serialization.h"
#include "data/synthetic.h"
#include "serve/remote_query_client.h"

namespace sknn {
namespace bench {
namespace {

constexpr std::size_t kAttributes = 6;
/// The paper's l = 12 fixes the attribute domain [0, 26]; the table's
/// distance width then comes out at 13 bits (DataOwner::RequiredDistanceBits).
constexpr unsigned kPaperL = 12;
/// Every workload drives four connections, one closed loop each: enough to
/// keep the four cores of the reference host busy, so that a core slowed by
/// a neighbour delays other work instead of stalling a query's critical
/// path, which is what keeps run-to-run spreads within the bounds.
constexpr std::size_t kConnections = 4;
constexpr uint32_t kDeadlineMs = 30000;
constexpr auto kReadyTimeout = std::chrono::seconds(60);

struct WorkloadSpec {
  std::string name;
  QueryProtocol protocol = QueryProtocol::kBasic;
  std::size_t n = 0;
  unsigned k = 0;
  /// Clustered table and index (0 = uniform table, exact index).
  uint32_t clusters = 0;
  uint32_t probe = 0;
  /// Zipf traffic: independent draws over `zipf_universe` distinct queries,
  /// the universe replaced every `zipf_epoch` draws (0 = every query
  /// distinct).
  std::size_t zipf_universe = 0;
  std::size_t zipf_epoch = 0;
  double zipf_s = 0;
  /// The tail percentile latency_tail_s reports.
  double tail = 0.75;
};

/// Fewest samples a tail percentile needs beyond it to be read as a tail.
constexpr std::size_t kTailSamplesBeyond = 10;

/// The workloads. SkNN_b over an exact index has no workload of its own:
/// every `zipf-cached` miss is one such query, and the misses set that
/// workload's tail and throughput.
Result<WorkloadSpec> SpecFor(const std::string& name, bool smoke) {
  WorkloadSpec s;
  s.name = name;
  if (name == "secure-exact") {
    s.protocol = QueryProtocol::kSecure;
    s.n = smoke ? 6 : 8;
    s.k = 2;
  } else if (name == "zipf-cached") {
    s.n = 16;
    s.k = 5;
    s.zipf_universe = 32;
    s.zipf_epoch = 240;
    s.zipf_s = 1.1;
    s.tail = 0.95;
  } else if (name == "clustered") {
    s.n = smoke ? 64 : 256;
    s.k = 5;
    s.clusters = smoke ? 4 : 16;
    s.probe = 2;
  } else {
    return Status::InvalidArgument(
        "unknown workload '" + name +
        "' (secure-exact, zipf-cached, clustered)");
  }
  return s;
}

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

int64_t MaxValue() { return MaxValueForDistanceBits(kAttributes, kPaperL); }

unsigned DistanceBits() {
  return DataOwner::RequiredDistanceBits(kAttributes,
                                         BitsForMaxValue(MaxValue()));
}

/// \brief The seed's table: uniform, or one GenerateClusteredTable draw
/// (spread 2) served as it comes, however well k-means then splits it.
PlainTable MakeTable(const WorkloadSpec& spec, uint64_t seed) {
  if (spec.clusters == 0) {
    return GenerateUniformTable(spec.n, kAttributes, MaxValue(), seed);
  }
  ClusterSpec clusters;
  clusters.num_clusters = spec.clusters;
  clusters.spread = 2;
  return GenerateClusteredTable(spec.n, kAttributes, MaxValue(), clusters,
                                seed);
}

/// \brief The query stream of one window, shared by all connections:
/// a closed loop asks it for the next query until it says the window is
/// over. Every query is distinct, except on a Zipf workload. A connection's
/// window ends at the query boundary nearest to `seconds`, judged by its
/// mean query so far, so that a workload of slow queries does not overrun
/// by most of one.
///
/// A Zipf workload draws each query independently from Zipf(s) over a
/// universe of `zipf_universe` distinct queries. The universe is replaced
/// by fresh queries every `zipf_epoch` draws, a hot set that turns over,
/// so that misses keep coming for the whole window, and the window ends
/// only at an epoch's end, so it holds whole epochs: at the end nearest to
/// `seconds`, judged by the mean epoch so far, so that the window neither
/// overruns by most of an epoch nor varies with where one ends. The hit
/// rate, and how often two connections miss on the same query at once,
/// vary with the seed.
class QuerySource {
 public:
  QuerySource(const WorkloadSpec& spec, const PlainTable& table,
              uint64_t seed, double seconds, std::size_t limit)
      : spec_(spec), table_(table), seed_(seed), seconds_(seconds),
        limit_(limit), zipf_rng_(Mix(~seed)) {
    double total = 0;
    for (std::size_t r = 1; r <= spec.zipf_universe; ++r) {
      total += std::pow(static_cast<double>(r), -spec.zipf_s);
      zipf_cdf_.push_back(total);
    }
  }

  void Start() { clock_.Reset(); }

  /// \brief The next query to send, for a connection whose queries took
  /// `mean_query_s` each so far; false once its window is over.
  bool Next(PlainRecord* record, double mean_query_s) {
    MutexLock lock(&mutex_);
    const bool epoch_start =
        spec_.zipf_universe == 0 || issued_ % spec_.zipf_epoch == 0;
    if (limit_ > 0 ? issued_ >= limit_
                   : epoch_start && WindowOver(mean_query_s)) {
      return false;
    }
    if (spec_.zipf_universe == 0) {
      *record = Fresh(Mix(seed_ ^ Mix(issued_++)));
      return true;
    }
    if (epoch_start) {
      universe_.clear();
      for (std::size_t j = 0; j < spec_.zipf_universe; ++j) {
        universe_.push_back(Fresh(Mix(seed_ ^ Mix(issued_ * 1000003 + j))));
      }
    }
    ++issued_;
    // A uniform double in [0, total) from the top 53 bits, then its rank.
    const double u = static_cast<double>(zipf_rng_() >> 11) * 0x1p-53 *
                     zipf_cdf_.back();
    const std::size_t rank = static_cast<std::size_t>(
        std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    *record = universe_[std::min(rank, universe_.size() - 1)];
    return true;
  }

 private:
  /// At a query boundary, or on a Zipf workload an epoch boundary: whether
  /// the window ends here, which it does once the next boundary would lie
  /// more than half a query (an epoch) past `seconds`.
  bool WindowOver(double mean_query_s) REQUIRES(mutex_) {
    const double elapsed = clock_.ElapsedSeconds();
    if (spec_.zipf_universe == 0) {
      return elapsed + mean_query_s / 2 >= seconds_;
    }
    const std::size_t epochs = issued_ / spec_.zipf_epoch;
    return epochs > 0 &&
           elapsed * (1 + 0.5 / static_cast<double>(epochs)) >= seconds_;
  }

  /// A query never issued before: uniform over the domain, or — on a
  /// clustered table — a record of the table jittered like the data is.
  PlainRecord Fresh(uint64_t stream) REQUIRES(mutex_) {
    for (uint64_t attempt = 0;; ++attempt) {
      const uint64_t s = Mix(stream + attempt);
      PlainRecord q;
      if (spec_.clusters > 0) {
        std::mt19937_64 rng(s);
        q = table_[rng() % table_.size()];
        for (int64_t& v : q) {
          v = std::clamp<int64_t>(v + static_cast<int64_t>(rng() % 5) - 2, 0,
                                  MaxValue());
        }
      } else {
        q = GenerateUniformQuery(kAttributes, MaxValue(), s);
      }
      if (seen_.insert(q).second) return q;
    }
  }

  const WorkloadSpec& spec_;
  const PlainTable& table_;
  const uint64_t seed_;
  const double seconds_;
  const std::size_t limit_;
  /// Cumulative Zipf weights of ranks 1..zipf_universe.
  std::vector<double> zipf_cdf_;
  Stopwatch clock_;
  Mutex mutex_;
  std::mt19937_64 zipf_rng_ GUARDED_BY(mutex_);
  uint64_t issued_ GUARDED_BY(mutex_) = 0;
  std::set<PlainRecord> seen_ GUARDED_BY(mutex_);
  std::vector<PlainRecord> universe_ GUARDED_BY(mutex_);
};

/// \brief Both servers of one set-up, torn down by Teardown (or killed by
/// the destructors if the run aborts first).
struct Deployment {
  std::unique_ptr<ServerProcess> c2;
  std::unique_ptr<ServerProcess> c1;
  uint16_t port = 0;
  double setup_s = 0;
};

Status Teardown(Deployment& d) {
  Status first;
  for (ServerProcess* proc : {d.c1.get(), d.c2.get()}) {
    if (proc == nullptr) continue;
    Status s = proc->Stop(std::chrono::seconds(15));
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

Result<std::unique_ptr<RemoteQueryClient>> ConnectClient(uint16_t port) {
  SKNN_ASSIGN_OR_RETURN(std::unique_ptr<RemoteQueryClient> client,
                        RemoteQueryClient::Connect("127.0.0.1", port));
  SKNN_RETURN_NOT_OK(client->Hello().status());
  return client;
}

Result<TableStatsEntry> TableStats(RemoteQueryClient& client) {
  SKNN_ASSIGN_OR_RETURN(ServiceStatsReply stats, client.ServiceStats());
  if (stats.tables.size() != 1) {
    return Status::ProtocolError("expected exactly one served table");
  }
  return stats.tables[0];
}

/// \brief Alice's whole hand-off and both servers, timed from seeded keygen
/// to the moment both randomizer pools report full stock through the
/// front end's stats (which needs a successful hello first).
Result<Deployment> Setup(const WorkloadSpec& spec, const PlainTable& table,
                         unsigned key_bits, uint64_t seed,
                         const std::string& dir, Tracer* tracer) {
  ScopedSpan setup_span(tracer, "bench.setup");
  Stopwatch sw;
  Deployment d;
  PaillierKeyPair keys;
  {
    ScopedSpan span(tracer, "crypto.keygen");
    Random rng(seed);
    SKNN_ASSIGN_OR_RETURN(keys, GeneratePaillierKeyPair(key_bits, rng));
  }
  EncryptedDatabase db;
  {
    ScopedSpan span(tracer, "core.encrypt_table");
    db = EncryptTable(keys.pk, table, DistanceBits());
  }
  std::vector<std::string> c1_args = {
      "--port", "0", "--public", dir + "/pk.txt", "--db", dir + "/db.bin",
      "--threads", "4", "--max-in-flight", "8"};
  {
    ScopedSpan span(tracer, "core.write_artifacts");
    SKNN_RETURN_NOT_OK(WritePublicKeyFile(dir + "/pk.txt", keys.pk));
    SKNN_RETURN_NOT_OK(WriteSecretKeyFile(dir + "/sk.txt", keys.sk));
    SKNN_RETURN_NOT_OK(WriteEncryptedDatabase(dir + "/db.bin", db));
  }
  if (spec.clusters > 0) {
    ScopedSpan span(tracer, "core.build_clusters");
    SKNN_ASSIGN_OR_RETURN(
        ClusterManifest manifest,
        BuildClusterManifest(table, spec.clusters, seed, keys.pk));
    SKNN_RETURN_NOT_OK(WriteClusterManifest(dir + "/clusters.bin", manifest));
    c1_args.insert(c1_args.end(), {"--clusters", dir + "/clusters.bin"});
  }
  const std::string tools = SKNN_BENCH_TOOLS_DIR;
  {
    ScopedSpan span(tracer, "serve.start_c2");
    SKNN_ASSIGN_OR_RETURN(
        d.c2, ServerProcess::Spawn(tools + "/sknn_c2_server",
                                   {"--secret", dir + "/sk.txt", "--port",
                                    "0", "--workers", "4"},
                                   dir + "/c2.log"));
    SKNN_ASSIGN_OR_RETURN(uint16_t c2_port, d.c2->AwaitPort(kReadyTimeout));
    c1_args.insert(c1_args.end(), {"--c2-port", std::to_string(c2_port)});
  }
  {
    ScopedSpan span(tracer, "serve.start_c1");
    SKNN_ASSIGN_OR_RETURN(
        d.c1, ServerProcess::Spawn(tools + "/sknn_c1_server", c1_args,
                                   dir + "/c1.log"));
    SKNN_ASSIGN_OR_RETURN(d.port, d.c1->AwaitPort(kReadyTimeout));
  }
  {
    ScopedSpan span(tracer, "serve.await_pools");
    SKNN_ASSIGN_OR_RETURN(std::unique_ptr<RemoteQueryClient> client,
                          ConnectClient(d.port));
    const auto deadline = std::chrono::steady_clock::now() + kReadyTimeout;
    for (;;) {
      SKNN_ASSIGN_OR_RETURN(TableStatsEntry t, TableStats(*client));
      if (t.c1_pool_capacity > 0 && t.c1_pool_stock >= t.c1_pool_capacity &&
          t.c2_pool_capacity > 0 && t.c2_pool_stock >= t.c2_pool_capacity) {
        break;
      }
      if (g_interrupted.load()) return Status::Unavailable("interrupted");
      if (std::chrono::steady_clock::now() > deadline) {
        return Status::DeadlineExceeded("randomizer pools never filled");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  d.setup_s = sw.ElapsedSeconds();
  return d;
}

struct Sample {
  PlainRecord record;
  bool ok = false;
  bool cache_hit = false;
  bool exact = false;  // equals the oracle answer
  bool valid = false;  // k records of the table, nearest first
  double recall = 0;
  double end_s = 0;  // completion, seconds into the window
  double latency_s = 0;
  double cloud_s = 0;
  double bob_s = 0;
  TrafficStats traffic;
  OpSnapshot ops;
};

struct Window {
  std::vector<Sample> samples;
  double seconds = 0;  // first send to last completion
  /// The first connection's last completion: until then every connection
  /// was sending.
  double steady_s = 0;
  /// Closed-loop throughput: the sum over connections of answers over that
  /// connection's busy time, so it does not depend on where the window's
  /// end falls within the queries in flight.
  double qps = 0;
  double c1_cpu_s = 0;
  double c2_cpu_s = 0;
  TableStatsEntry before;
  TableStatsEntry after;
  std::vector<double> hit_probe_s;  // idle-server cache hits (traced runs)
};

double Recall(const PlainTable& got, const PlainTable& truth) {
  std::multiset<PlainRecord> want(truth.begin(), truth.end());
  std::size_t found = 0;
  for (const PlainRecord& r : got) {
    auto it = want.find(r);
    if (it != want.end()) {
      want.erase(it);
      ++found;
    }
  }
  return truth.empty() ? 1.0
                       : static_cast<double>(found) /
                             static_cast<double>(truth.size());
}

bool ValidAnswer(const std::set<PlainRecord>& rows, const PlainRecord& query,
                 unsigned k, const PlainTable& got) {
  if (got.size() != k) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!rows.count(got[i])) return false;
    if (i > 0 && SquaredDistance(got[i - 1], query) >
                     SquaredDistance(got[i], query)) {
      return false;
    }
  }
  return true;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

QueryRequest MakeRequest(const WorkloadSpec& spec, PlainRecord record) {
  QueryRequest request;
  request.record = std::move(record);
  request.k = spec.k;
  request.protocol = spec.protocol;
  request.deadline_ms = kDeadlineMs;
  if (spec.clusters > 0) {
    request.index_mode = IndexMode::kClustered;
    request.probe_clusters = spec.probe;
  }
  return request;
}

/// \brief The closed loop: each connection sends its next query when the
/// previous answer arrives, until the source ends the window.
Result<Window> RunWindow(Deployment& d, const WorkloadSpec& spec,
                         const PlainTable& table, QuerySource& source,
                         Tracer* tracer) {
  ScopedSpan window_span(tracer, "bench.window");
  std::vector<std::unique_ptr<RemoteQueryClient>> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    SKNN_ASSIGN_OR_RETURN(std::unique_ptr<RemoteQueryClient> client,
                          ConnectClient(d.port));
    clients.push_back(std::move(client));
  }
  const std::set<PlainRecord> rows(table.begin(), table.end());
  Window w;
  SKNN_ASSIGN_OR_RETURN(w.before, TableStats(*clients[0]));
  const double c1_cpu = d.c1->CpuSeconds();
  const double c2_cpu = d.c2->CpuSeconds();

  Mutex merge_mutex;
  std::atomic<uint64_t> next_id{1};
  std::atomic<int> errors_printed{0};
  Stopwatch clock;
  source.Start();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Sample> local;
      double answered = 0, busy_s = 0;
      PlainRecord record;
      while (!g_interrupted.load() &&
             source.Next(&record, Ratio(busy_s, local.size()))) {
        Sample s;
        s.record = record;
        const QueryRequest request = MakeRequest(spec, record);
        const uint64_t id = next_id++;
        ScopedSpan span(tracer, "serve.query", window_span.id(), id);
        const double span_start = tracer ? tracer->Now() : 0;
        Stopwatch one;
        Result<QueryResponse> response = clients[c]->Query(request);
        s.latency_s = one.ElapsedSeconds();
        s.end_s = busy_s = clock.ElapsedSeconds();
        s.ok = response.ok();
        answered += s.ok;
        if (!s.ok) {
          if (errors_printed++ < 5) {
            std::fprintf(stderr, "query %llu failed: %s\n",
                         static_cast<unsigned long long>(id),
                         response.status().ToString().c_str());
          }
          local.push_back(s);
          continue;
        }
        s.cache_hit = response->cache_hit;
        s.cloud_s = response->cloud_seconds;
        s.bob_s = response->bob_seconds;
        s.traffic = response->traffic;
        s.ops = response->ops;
        const PlainTable truth = PlainKnn(table, s.record, spec.k);
        s.exact = response->records == truth;
        s.valid = ValidAnswer(rows, s.record, spec.k, response->records);
        s.recall = Recall(response->records, truth);
        if (tracer != nullptr && !s.cache_hit) {
          tracer->Add("core.bob", span.id(), span_start, span_start + s.bob_s,
                      id);
          const double cloud_start = span_start + s.bob_s;
          const uint64_t cloud =
              tracer->Add("core.cloud", span.id(), cloud_start,
                          cloud_start + s.cloud_s, id);
          if (spec.protocol == QueryProtocol::kSecure) {
            AddPhaseSpans(tracer, cloud, cloud_start, response->breakdown, id);
          }
        }
        local.push_back(s);
      }
      MutexLock lock(&merge_mutex);
      w.samples.insert(w.samples.end(), local.begin(), local.end());
      w.seconds = std::max(w.seconds, busy_s);
      if (!local.empty()) {
        w.steady_s = w.steady_s > 0 ? std::min(w.steady_s, busy_s) : busy_s;
      }
      w.qps += Ratio(answered, busy_s);
    });
  }
  for (std::thread& t : threads) t.join();
  w.c1_cpu_s = d.c1->CpuSeconds() - c1_cpu;
  w.c2_cpu_s = d.c2->CpuSeconds() - c2_cpu;
  if (g_interrupted.load()) return Status::Unavailable("interrupted");
  if (!d.c1->Running() || !d.c2->Running()) {
    return Status::Internal("a server exited during the window");
  }
  SKNN_ASSIGN_OR_RETURN(w.after, TableStats(*clients[0]));

  // Traced runs also time the cache-hit path: from the window when the
  // workload hits often enough, else by re-sending an answered query to
  // the now idle server.
  std::size_t hits = 0;
  const Sample* first_ok = nullptr;
  for (const Sample& s : w.samples) {
    hits += s.ok && s.cache_hit;
    if (first_ok == nullptr && s.ok) first_ok = &s;
  }
  if (tracer != nullptr && hits < 5 && first_ok != nullptr) {
    ScopedSpan span(tracer, "serve.cache_hit_probe");
    const QueryRequest request = MakeRequest(spec, first_ok->record);
    for (int i = 0; i < 5; ++i) {
      Stopwatch one;
      SKNN_ASSIGN_OR_RETURN(QueryResponse response, clients[0]->Query(request));
      if (!response.cache_hit) {
        return Status::Internal("a repeated query missed the result cache");
      }
      w.hit_probe_s.push_back(one.ElapsedSeconds());
    }
  }
  return w;
}

/// \brief Latencies of the answered queries that completed while every
/// connection was still sending. Once the first connection stops, the
/// queries still running share the servers with fewer others and finish
/// faster, by up to half on `secure-exact`; how many do so varies run to
/// run.
std::vector<double> SteadyLatencies(const Window& w) {
  std::vector<double> latencies;
  for (const Sample& s : w.samples) {
    if (s.ok && s.end_s <= w.steady_s) latencies.push_back(s.latency_s);
  }
  return latencies;
}

std::vector<Metric> EndToEndMetrics(const WorkloadSpec& spec,
                                    const std::vector<double>& setups,
                                    const Window& w) {
  const std::vector<double> latencies = SteadyLatencies(w);
  std::vector<double> recalls;
  for (const Sample& s : w.samples) {
    if (s.ok) recalls.push_back(s.recall);
  }
  return {
      {"setup_s", Median(setups), "s"},
      {"latency_p50_s", Percentile(latencies, 0.5), "s"},
      {"latency_tail_s", Percentile(latencies, spec.tail), "s"},
      {"throughput_qps", w.qps, "queries/s"},
      {"recall_at_k", Mean(recalls), "fraction"},
  };
}

/// \brief Mean over the window's queries of the records each one's SkNN_b
/// round scans: n on the exact index; on the clustered index, the records
/// of the clusters the front end keeps. Those are the `probe` clusters with
/// the nearest centroids (ties to the lower cluster), and the next ones in
/// rank order while fewer than k records are in. The ranking is redone here
/// in plaintext, from the same k-means the cluster manifest was built with.
Result<double> CandidatesPerQuery(const WorkloadSpec& spec,
                                  const PlainTable& table, uint64_t seed,
                                  const Window& w) {
  if (spec.clusters == 0) return static_cast<double>(table.size());
  SKNN_ASSIGN_OR_RETURN(KMeansResult km,
                        KMeansPartition(table, spec.clusters, seed));
  std::vector<std::size_t> sizes(km.centroids.size(), 0);
  for (uint32_t c : km.assignment) ++sizes[c];
  std::vector<double> counts;
  for (const Sample& s : w.samples) {
    std::vector<std::pair<int64_t, std::size_t>> ranking;
    for (std::size_t c = 0; c < km.centroids.size(); ++c) {
      ranking.emplace_back(SquaredDistance(km.centroids[c], s.record), c);
    }
    std::sort(ranking.begin(), ranking.end());
    std::size_t chosen = 0, candidates = 0;
    for (const auto& [distance, c] : ranking) {
      candidates += sizes[c];
      if (++chosen >= spec.probe && candidates >= spec.k) break;
    }
    counts.push_back(static_cast<double>(candidates));
  }
  return Mean(counts);
}

std::vector<Metric> WindowLayerMetrics(const Window& w) {
  std::vector<double> hit_latency = w.hit_probe_s, miss_latency, overhead;
  double ops = 0, frames = 0, bytes = 0, completed = 0;
  for (const Sample& s : w.samples) {
    if (!s.ok) continue;
    ++completed;
    if (s.cache_hit) {
      hit_latency.push_back(s.latency_s);
      continue;
    }
    miss_latency.push_back(s.latency_s);
    overhead.push_back(s.latency_s - s.cloud_s - s.bob_s);
    ops += static_cast<double>(s.ops.encryptions + s.ops.decryptions +
                               s.ops.exponentiations);
    frames += static_cast<double>(s.traffic.frames_a_to_b);
    bytes += static_cast<double>(s.traffic.total_bytes());
  }
  const double misses = static_cast<double>(miss_latency.size());
  const double hits = completed - misses;
  auto delta = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double c1_hits = delta(w.after.c1_pool_hits, w.before.c1_pool_hits);
  const double c1_misses =
      delta(w.after.c1_pool_misses, w.before.c1_pool_misses);
  const double c2_hits = delta(w.after.c2_pool_hits, w.before.c2_pool_hits);
  const double c2_misses =
      delta(w.after.c2_pool_misses, w.before.c2_pool_misses);
  return {
      {"crypto.c1_pool_hit_rate", Ratio(c1_hits, c1_hits + c1_misses),
       "fraction"},
      {"crypto.c2_pool_hit_rate", Ratio(c2_hits, c2_hits + c2_misses),
       "fraction"},
      {"core.ops_per_query", Ratio(ops, misses), "count"},
      {"net.c1_c2_frames_per_query", Ratio(frames, misses), "count"},
      {"net.c1_c2_bytes_per_query", Ratio(bytes, misses), "bytes"},
      {"serve.c1_cpu_s_per_query", Ratio(w.c1_cpu_s, completed), "s"},
      {"serve.c2_cpu_s_per_query", Ratio(w.c2_cpu_s, completed), "s"},
      {"serve.front_end_overhead_s", Percentile(overhead, 0.5), "s"},
      {"serve.cache_hit_rate", Ratio(hits, completed), "fraction"},
      {"serve.cache_hit_latency_p50_s", Percentile(hit_latency, 0.5), "s"},
      {"serve.cache_miss_latency_p50_s", Percentile(miss_latency, 0.5), "s"},
  };
}

struct Args {
  std::string workload;
  std::string out;
  std::string git_sha = "unknown";
  uint64_t seed = 1;
  double seconds = 34;
  bool trace = false;
  bool smoke = false;
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Status::InvalidArgument(flag + " needs a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      a.trace = value == "1";
    } else {
      return Status::InvalidArgument("bad flag " + flag + " " + value);
    }
    if (end != nullptr && (end == value.c_str() || *end != '\0')) {
      return Status::InvalidArgument("bad value '" + value + "' for " + flag);
    }
  }
  if (a.workload.empty() || a.out.empty()) {
    return Status::InvalidArgument("--workload and --out are required");
  }
  if (!(a.seconds > 0)) return Status::InvalidArgument("--seconds must be > 0");
  return a;
}

/// \brief Removes the run's scratch directory (keys, tables, logs) however
/// the run ends.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent) {
    std::string tmpl = parent + "/tmp.XXXXXX";
    if (::mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

int Run(const Args& args) {
  Result<WorkloadSpec> spec_or = SpecFor(args.workload, args.smoke);
  if (!spec_or.ok()) {
    std::fprintf(stderr, "%s\n", spec_or.status().ToString().c_str());
    return 2;
  }
  const WorkloadSpec& spec = *spec_or;
  const unsigned key_bits = args.smoke ? 256 : 1024;
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  ScratchDir scratch(args.out);
  if (scratch.path().empty()) {
    std::fprintf(stderr, "cannot create a scratch directory in %s\n",
                 args.out.c_str());
    return 1;
  }

  Provenance provenance;
  provenance.seed = args.seed;
  provenance.git_sha = args.git_sha;
  provenance.workload = spec.name;
  provenance.workload_key_bits = key_bits;
  provenance.traced = args.trace;
  provenance.smoke = args.smoke;
  LayerParams layer;
  layer.crypto_bits = {512, 1024};
  layer.proto_bits = key_bits;
  layer.max_value = MaxValue();
  layer.l = DistanceBits();
  layer.m = kAttributes;
  const WorkloadSpec secure = *SpecFor("secure-exact", args.smoke);
  // SkNN_b is measured in the shape zipf-cached's misses run.
  const WorkloadSpec basic = *SpecFor("zipf-cached", args.smoke);
  layer.secure_n = secure.n;
  layer.secure_k = secure.k;
  layer.basic_n = basic.n;
  layer.basic_k = basic.k;
  layer.smoke = args.smoke;
  layer.seed = args.seed;
  if (args.trace) provenance.layer_key_bits = layer.crypto_bits;
  std::fprintf(stderr, "sknn_bench provenance %s\n",
               provenance.ToJson().c_str());

  Tracer tracer;
  Tracer* t = args.trace ? &tracer : nullptr;
  const PlainTable table = MakeTable(spec, args.seed);
  std::vector<double> setups;
  std::vector<Metric> metrics;
  Window window;
  auto fail = [](const char* what, const Status& status) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    return g_interrupted.load() ? 130 : 1;
  };
  {
    ScopedSpan root(t, "bench.run");
    // Set-up time is the median of three full set-ups; the last one serves
    // the window. One set-up is enough for the traced and smoke runs.
    const int setup_runs = args.trace || args.smoke ? 1 : 3;
    Deployment d;
    for (int i = 0; i < setup_runs; ++i) {
      Result<Deployment> setup =
          Setup(spec, table, key_bits, args.seed, scratch.path(), t);
      if (!setup.ok()) return fail("set-up failed", setup.status());
      setups.push_back(setup->setup_s);
      if (i + 1 < setup_runs) {
        if (Status s = Teardown(*setup); !s.ok()) {
          return fail("teardown failed", s);
        }
      } else {
        d = std::move(setup).value();
      }
    }
    QuerySource source(spec, table, args.seed, args.seconds,
                       args.smoke ? 2 : 0);
    Result<Window> w = RunWindow(d, spec, table, source, t);
    Status stopped = Teardown(d);
    if (!w.ok()) return fail("run failed", w.status());
    if (!stopped.ok()) return fail("teardown failed", stopped);
    window = std::move(w).value();
    if (args.trace) {
      metrics = WindowLayerMetrics(window);
      Result<double> candidates =
          CandidatesPerQuery(spec, table, args.seed, window);
      if (!candidates.ok()) return fail("k-means failed", candidates.status());
      metrics.push_back({"core.candidates_per_query", *candidates, "count"});
      if (Status s = MeasureLayers(layer, t, &metrics); !s.ok()) {
        return fail("layer measurements failed", s);
      }
    } else {
      metrics = EndToEndMetrics(spec, setups, window);
    }
  }
  if (g_interrupted.load()) return 130;

  uint64_t failed = 0;
  for (const Sample& s : window.samples) {
    const bool answer_ok = spec.clusters > 0 ? s.valid : s.exact;
    failed += !(s.ok && answer_ok);
  }
  const uint64_t attempted = window.samples.size();
  const bool correct = attempted > 0 && failed == 0;
  // Latency samples above the tail percentile's (nearest-rank) sample: the
  // tail reads as one only with at least kTailSamplesBeyond of them.
  const std::size_t timed = SteadyLatencies(window).size();
  const std::size_t tail_beyond =
      timed - static_cast<std::size_t>(
                  std::ceil(spec.tail * static_cast<double>(timed)));
  const bool tail_supported = tail_beyond >= kTailSamplesBeyond;

  const std::string report_path =
      args.out + "/report-" + spec.name + "-seed" + std::to_string(args.seed) +
      "-trace" + (args.trace ? "1" : "0") + ".json";
  {
    std::ofstream report(report_path, std::ios::trunc);
    report << "{\"provenance\": " << provenance.ToJson()
           << ",\n\"samples\": " << attempted << ", \"failed\": " << failed
           << ", \"window_s\": " << JsonNumber(window.seconds)
           << ", \"timed_samples\": " << timed
           << ", \"tail_percentile\": " << JsonNumber(spec.tail)
           << ", \"tail_samples_beyond\": " << tail_beyond
           << ", \"tail_supported\": " << (tail_supported ? "true" : "false")
           << ", \"setups_s\": [";
    for (std::size_t i = 0; i < setups.size(); ++i) {
      report << (i ? ", " : "") << JsonNumber(setups[i]);
    }
    // Every latency in completion order, so drift within a window shows.
    std::sort(window.samples.begin(), window.samples.end(),
              [](const Sample& a, const Sample& b) { return a.end_s < b.end_s; });
    report << "],\n\"latencies_s\": [";
    for (std::size_t i = 0; i < window.samples.size(); ++i) {
      report << (i ? ", " : "") << JsonNumber(window.samples[i].latency_s);
    }
    report << "],\n\"metrics\": " << MetricsJson(metrics) << "}\n";
  }
  if (t != nullptr) {
    if (!tracer.Write(args.out + "/trace.json", provenance.ToJson())) {
      std::fprintf(stderr, "cannot write %s/trace.json\n", args.out.c_str());
    }
    for (const auto& [layer_name, self] : tracer.SelfTimes().second) {
      std::fprintf(stderr, "self time %-7s %.3f s\n", layer_name.c_str(),
                   self);
    }
  }
  std::fprintf(stderr,
               "%s: %llu queries, %llu failed, window %.2f s, %zu timed, "
               "%zu beyond p%.0f%s\n",
               spec.name.c_str(), static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed), window.seconds, timed,
               tail_beyond, spec.tail * 100,
               tail_supported ? "" : " (too few to read as a tail)");
  std::printf("%s\n", ResultLine(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace sknn

int main(int argc, char** argv) {
  using namespace sknn::bench;
  InstallInterruptHandler();
  sknn::Result<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr,
                 "%s\nusage: sknn_bench --workload <name> --out <dir> "
                 "[--seed S] [--seconds T] [--trace 0|1] [--smoke] "
                 "[--git-sha SHA]\n",
                 args.status().ToString().c_str());
    return 2;
  }
  return Run(*args);
}
