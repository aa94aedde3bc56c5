// bench_serving — multi-client throughput of the serving front end (PR 3),
// plus the multi-table series (PR 5) and the QoS series (PR 10).
//
// Stands up the full four-party topology in one process but over real
// loopback sockets — standalone C2 behind a TCP RpcServer, a
// CreateWithRemoteC2 engine, a QueryService — then drives it with 1/4/8
// concurrent thin clients (serve/RemoteQueryClient, one connection each)
// and reports aggregate queries/second per protocol. The 1-client row is
// the serial baseline; the speedup of the wider rows is what running
// queries concurrently, one per session thread, buys the deployment.
//
// The multi-table series serves 1 vs 4 independent tables (own keys, own
// C2 each) from ONE QueryService and spreads the same concurrent client
// load across them — the isolation cost (or win: independent engines don't
// share a C1 pool) of multi-tenancy behind one port. JSON lands in
// BENCH_PR5.json under "serving_multi_table".
//
// The QoS series (PR 10) drives Zipf-skewed traffic — a few hot queries
// dominate, as real serving traffic does — through one table with the
// result cache OFF vs ON (hit rate, throughput, p95 latency: what
// rerandomized cache hits buy a skewed workload), then floods a
// weight-8 table next to a weight-1 table under a tiny admission budget
// and measures the light tenant's progress (what weighted fair admission
// buys the small tenant). JSON lands in BENCH_PR10.json under
// "serving_cache_fairness".
//
//   bench_serving [--json [path]]  # JSON lands in BENCH_PR3/PR5/PR10.json
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/mutex.h"
#include "net/socket.h"
#include "serve/qos/result_cache.h"
#include "serve/query_service.h"
#include "serve/remote_query_client.h"
#include "serve/table_registry.h"

namespace sknn {
namespace bench {
namespace {

struct ServingStack {
  std::unique_ptr<SknnEngine> local;  // keys + encrypted db come from here
  std::unique_ptr<C2Service> c2;
  std::unique_ptr<RpcServer> c2_server;
  std::unique_ptr<SknnEngine> engine;
  std::unique_ptr<QueryService> service;
  PlainRecord query;

  ServingStack() = default;
  ServingStack(ServingStack&&) = default;
  ServingStack& operator=(ServingStack&&) = default;
  ~ServingStack() {
    if (service != nullptr) service->Shutdown();
  }
};

// One C2-over-TCP backing: a standalone C2Service (same secret key as
// `local`) behind a loopback RpcServer, and the CreateWithRemoteC2 engine
// connected to it — the bring-up both the single- and multi-table stacks
// share.
struct RemoteC2Backing {
  std::unique_ptr<C2Service> c2;
  std::unique_ptr<RpcServer> c2_server;
  std::unique_ptr<SknnEngine> engine;
};

RemoteC2Backing ConnectRemoteEngine(SknnEngine& local, std::size_t threads,
                                    std::size_t pool_capacity,
                                    bool intra_message_parallelism) {
  RemoteC2Backing backing;
  backing.c2 = std::make_unique<C2Service>(
      PaillierSecretKey(local.c2_service().secret_key()));
  if (intra_message_parallelism) {
    backing.c2->EnableIntraMessageParallelism(threads);
  }
  backing.c2->EnableRandomizerPool(pool_capacity,
                                   std::max<std::size_t>(1, threads / 2));
  auto listener = TcpListener::Bind(0);
  if (!listener.ok()) {
    std::fprintf(stderr, "bind failed: %s\n",
                 listener.status().ToString().c_str());
    std::exit(1);
  }
  std::thread accepter([&] {
    auto accepted = listener->Accept();
    if (!accepted.ok()) std::exit(1);
    C2Service* c2_raw = backing.c2.get();
    backing.c2_server = std::make_unique<RpcServer>(
        std::move(accepted).value(),
        [c2_raw](const Message& req) { return c2_raw->Handle(req); },
        threads);
  });
  auto link = ConnectTcp("127.0.0.1", listener->port());
  accepter.join();
  if (!link.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 link.status().ToString().c_str());
    std::exit(1);
  }

  SknnEngine::Options options;
  options.c1_threads = threads;
  auto engine = SknnEngine::CreateWithRemoteC2(
      local.public_key(), EncryptedDatabase(local.database()),
      std::move(link).value(), options);
  if (!engine.ok()) {
    std::fprintf(stderr, "remote engine setup failed: %s\n",
                 engine.status().ToString().c_str());
    std::exit(1);
  }
  backing.engine = std::move(engine).value();
  return backing;
}

ServingStack MakeStack(std::size_t n, std::size_t m, unsigned l,
                       unsigned key_bits, std::size_t threads) {
  ServingStack stack;
  EngineSetup setup = MakeEngine(n, m, l, key_bits, threads, /*seed=*/77);
  stack.local = std::move(setup.engine);
  stack.query = std::move(setup.query);

  RemoteC2Backing backing = ConnectRemoteEngine(
      *stack.local, threads, /*pool_capacity=*/1024,
      /*intra_message_parallelism=*/true);
  stack.c2 = std::move(backing.c2);
  stack.c2_server = std::move(backing.c2_server);
  stack.engine = std::move(backing.engine);

  QueryService::Options service_options;
  service_options.max_in_flight = 16;
  stack.service =
      std::make_unique<QueryService>(stack.engine.get(), service_options);
  if (Status s = stack.service->Start(0); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    std::exit(1);
  }
  return stack;
}

struct Point {
  std::size_t clients = 0;
  std::size_t queries = 0;
  double seconds = 0;
};

// The PR 5 shape: T independent tables — own keys, own database, own C2 —
// registered behind ONE QueryService.
struct MultiTableStack {
  struct Backing {
    std::unique_ptr<SknnEngine> local;
    std::unique_ptr<C2Service> c2;
    std::unique_ptr<RpcServer> c2_server;
    std::unique_ptr<SknnEngine> engine;
    PlainRecord query;
  };
  std::vector<Backing> tables;
  std::vector<std::string> names;
  TableRegistry registry;
  std::unique_ptr<QueryService> service;

  ~MultiTableStack() {
    if (service != nullptr) service->Shutdown();
  }
};

// unique_ptr: the registry's mutex makes the stack immovable.
std::unique_ptr<MultiTableStack> MakeMultiStack(std::size_t num_tables,
                                                std::size_t n, std::size_t m,
                                                unsigned l, unsigned key_bits,
                                                std::size_t threads) {
  auto stack_ptr = std::make_unique<MultiTableStack>();
  MultiTableStack& stack = *stack_ptr;
  for (std::size_t t = 0; t < num_tables; ++t) {
    MultiTableStack::Backing backing;
    EngineSetup setup =
        MakeEngine(n, m, l, key_bits, threads, /*seed=*/101 + t);
    backing.local = std::move(setup.engine);
    backing.query = std::move(setup.query);

    // Smaller randomizer stock than the single-table stack: up to four of
    // these C2s refill in the background at once.
    RemoteC2Backing remote = ConnectRemoteEngine(
        *backing.local, threads, /*pool_capacity=*/256,
        /*intra_message_parallelism=*/false);
    backing.c2 = std::move(remote.c2);
    backing.c2_server = std::move(remote.c2_server);
    backing.engine = std::move(remote.engine);
    stack.names.push_back("table" + std::to_string(t));
    stack.tables.push_back(std::move(backing));
  }
  for (std::size_t t = 0; t < num_tables; ++t) {
    Status s = stack.registry.Register(stack.names[t],
                                      stack.tables[t].engine.get());
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  QueryService::Options service_options;
  service_options.max_in_flight = 16;
  stack.service =
      std::make_unique<QueryService>(&stack.registry, service_options);
  if (Status s = stack.service->Start(0); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    std::exit(1);
  }
  return stack_ptr;
}

// Each client owns one connection and hammers ONE table (client c ->
// table c mod T): with T = 1 every client contends on one engine, with
// T = clients each table serves exactly one client.
Point DriveMultiTableClients(MultiTableStack& stack, std::size_t num_clients,
                             std::size_t total_queries,
                             QueryProtocol protocol) {
  Stopwatch watch;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < num_clients; ++c) {
    std::size_t share = total_queries / num_clients +
                        (c < total_queries % num_clients ? 1 : 0);
    const std::size_t table = c % stack.tables.size();
    clients.emplace_back([&, share, table] {
      QueryRequest request;
      request.table = stack.names[table];
      request.record = stack.tables[table].query;
      request.protocol = protocol;
      request.k = 2;
      auto client =
          RemoteQueryClient::Connect("127.0.0.1", stack.service->port());
      if (!client.ok()) std::exit(1);
      for (std::size_t q = 0; q < share; ++q) {
        auto response = (*client)->Query(request);
        if (!response.ok()) {
          std::fprintf(stderr, "multi-table query failed: %s\n",
                       response.status().ToString().c_str());
          std::exit(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  return {num_clients, total_queries, watch.ElapsedSeconds()};
}

Point DriveClients(ServingStack& stack, std::size_t num_clients,
                   std::size_t total_queries, QueryProtocol protocol) {
  QueryRequest request;
  request.record = stack.query;
  request.protocol = protocol;
  request.k = 2;
  Stopwatch watch;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < num_clients; ++c) {
    std::size_t share = total_queries / num_clients +
                        (c < total_queries % num_clients ? 1 : 0);
    clients.emplace_back([&, share] {
      auto client =
          RemoteQueryClient::Connect("127.0.0.1", stack.service->port());
      if (!client.ok()) std::exit(1);
      for (std::size_t q = 0; q < share; ++q) {
        auto response = (*client)->Query(request);
        if (!response.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       response.status().ToString().c_str());
          std::exit(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  return {num_clients, total_queries, watch.ElapsedSeconds()};
}

// -- QoS series (PR 10): local engines behind one registry-backed service
// (the serving path over loopback TCP stays real; the miss path runs the
// full protocol in-process).

struct QosStack {
  struct Backing {
    std::unique_ptr<SknnEngine> engine;
    PlainRecord query;
  };
  std::vector<Backing> tables;
  std::vector<std::string> names;
  TableRegistry registry;
  std::unique_ptr<QueryService> service;

  ~QosStack() {
    if (service != nullptr) service->Shutdown();
  }
};

struct QosTableSpec {
  const char* name;
  uint32_t weight;
};

// unique_ptr for the same reason as MakeMultiStack.
std::unique_ptr<QosStack> MakeQosStack(const std::vector<QosTableSpec>& specs,
                                       std::size_t n, std::size_t m,
                                       unsigned l, unsigned key_bits,
                                       std::size_t threads,
                                       std::size_t max_in_flight,
                                       std::size_t cache_bytes) {
  auto stack_ptr = std::make_unique<QosStack>();
  QosStack& stack = *stack_ptr;
  for (std::size_t t = 0; t < specs.size(); ++t) {
    QosStack::Backing backing;
    EngineSetup setup =
        MakeEngine(n, m, l, key_bits, threads, /*seed=*/301 + t);
    backing.engine = std::move(setup.engine);
    backing.query = std::move(setup.query);
    stack.names.emplace_back(specs[t].name);
    stack.tables.push_back(std::move(backing));
  }
  for (std::size_t t = 0; t < specs.size(); ++t) {
    Status s = stack.registry.Register(stack.names[t],
                                       stack.tables[t].engine.get());
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      std::exit(1);
    }
    TableRegistry::Entry* entry = stack.registry.Find(stack.names[t]);
    entry->qos_weight = specs[t].weight;
    if (cache_bytes > 0) {
      entry->cache.set_budget(cache_bytes, ResultCache::kDefaultMaxEntries);
    }
  }
  QueryService::Options service_options;
  service_options.max_in_flight = max_in_flight;
  stack.service =
      std::make_unique<QueryService>(&stack.registry, service_options);
  if (Status s = stack.service->Start(0); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    std::exit(1);
  }
  return stack_ptr;
}

// Zipf(s) over ranks [0, n): CDF inversion over precomputed cumulative
// weights — rank 0 is the hot query, the tail is cold.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s, uint64_t seed) : rng_(seed) {
    double total = 0;
    for (std::size_t i = 1; i <= n; ++i) {
      cdf_.push_back(total += 1.0 / std::pow(static_cast<double>(i), s));
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t Next() {
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), dist_(rng_)) -
        cdf_.begin());
  }

 private:
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> dist_{0.0, 1.0};
  std::vector<double> cdf_;
};

struct SkewedPoint {
  std::size_t queries = 0;
  double seconds = 0;
  std::vector<double> latencies;  // per-query, merged across clients
  uint64_t hits = 0;
  uint64_t misses = 0;
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t idx = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, idx == 0 ? 0 : idx - 1)];
}

// `clients` connections replay the same Zipf(s) popularity law over
// `pool` (each with its own stream, so the interleaving varies but the
// marginal distribution is the skew under test).
SkewedPoint DriveZipfClients(QosStack& stack, const std::string& table,
                             const std::vector<PlainRecord>& pool,
                             std::size_t clients, std::size_t per_client,
                             double zipf_s) {
  SkewedPoint point;
  point.queries = clients * per_client;
  Mutex merge_mutex;
  Stopwatch watch;
  std::vector<std::thread> drivers;
  for (std::size_t c = 0; c < clients; ++c) {
    drivers.emplace_back([&, c] {
      ZipfSampler zipf(pool.size(), zipf_s, /*seed=*/701 + c);
      auto client =
          RemoteQueryClient::Connect("127.0.0.1", stack.service->port());
      if (!client.ok()) std::exit(1);
      std::vector<double> latencies;
      latencies.reserve(per_client);
      for (std::size_t q = 0; q < per_client; ++q) {
        QueryRequest request;
        request.table = table;
        request.record = pool[zipf.Next()];
        request.protocol = QueryProtocol::kBasic;
        request.k = 2;
        Stopwatch one;
        auto response = (*client)->Query(request);
        if (!response.ok()) {
          std::fprintf(stderr, "zipf query failed: %s\n",
                       response.status().ToString().c_str());
          std::exit(1);
        }
        latencies.push_back(one.ElapsedSeconds());
      }
      MutexLock lock(&merge_mutex);
      point.latencies.insert(point.latencies.end(), latencies.begin(),
                             latencies.end());
    });
  }
  for (auto& t : drivers) t.join();
  point.seconds = watch.ElapsedSeconds();
  const ResultCache::Stats cache = stack.registry.Find(table)->cache.stats();
  point.hits = cache.hits;
  point.misses = cache.misses;
  return point;
}

struct FairnessPoint {
  uint64_t light_completed = 0;
  double light_seconds = 0;
  uint64_t heavy_completed = 0;
  uint64_t heavy_rejected = 0;
  uint32_t heavy_share = 0;
  uint32_t light_share = 0;
};

// Floods the weight-8 table with `flood_clients` tight loops while ONE
// light client works through `light_queries` on the weight-1 table; the
// light tenant's wall clock is the fairness headline — under the PR-3
// service-wide budget the flood could starve it outright.
FairnessPoint DriveFairnessFlood(QosStack& stack, std::size_t flood_clients,
                                 std::size_t light_queries) {
  FairnessPoint point;
  RetryPolicy patient;
  patient.max_attempts = 100000;
  patient.initial_backoff = std::chrono::milliseconds(1);
  patient.max_backoff = std::chrono::milliseconds(20);
  patient.max_elapsed = std::chrono::milliseconds(0);
  std::atomic<bool> flood_on{true};
  std::vector<std::thread> flood;
  for (std::size_t c = 0; c < flood_clients; ++c) {
    flood.emplace_back([&] {
      QueryRequest request;
      request.table = stack.names[0];
      request.record = stack.tables[0].query;
      request.protocol = QueryProtocol::kBasic;
      request.k = 2;
      auto client =
          RemoteQueryClient::Connect("127.0.0.1", stack.service->port());
      if (!client.ok()) std::exit(1);
      while (flood_on.load()) {
        // Plain Query, not QueryWithRetry: rejected floods re-arrive
        // instantly, keeping the admission gate saturated.
        (void)(*client)->Query(request);
      }
    });
  }
  {
    QueryRequest request;
    request.table = stack.names[1];
    request.record = stack.tables[1].query;
    request.protocol = QueryProtocol::kBasic;
    request.k = 2;
    auto client =
        RemoteQueryClient::Connect("127.0.0.1", stack.service->port());
    if (!client.ok()) std::exit(1);
    Stopwatch watch;
    for (std::size_t q = 0; q < light_queries; ++q) {
      auto response = (*client)->QueryWithRetry(request, patient);
      if (!response.ok()) {
        std::fprintf(stderr, "light tenant starved: %s\n",
                     response.status().ToString().c_str());
        std::exit(1);
      }
    }
    point.light_seconds = watch.ElapsedSeconds();
    point.light_completed = light_queries;
    flood_on.store(false);
    for (auto& t : flood) t.join();
    auto stats = (*client)->ServiceStats();
    if (!stats.ok()) std::exit(1);
    for (const TableStatsEntry& entry : stats->tables) {
      if (entry.name == stack.names[0]) {
        point.heavy_completed = entry.completed;
        point.heavy_rejected = entry.rejected;
        point.heavy_share = entry.share_limit;
      } else if (entry.name == stack.names[1]) {
        point.light_share = entry.share_limit;
      }
    }
  }
  return point;
}

}  // namespace
}  // namespace bench
}  // namespace sknn

int main(int argc, char** argv) {
  using namespace sknn;
  using namespace sknn::bench;
  std::string json_path;
  const bool emit_json = ConsumeJsonFlag(&argc, argv, &json_path);

  const unsigned key_bits = PaperScale() ? 512 : 256;
  const std::size_t n = PaperScale() ? 64 : 16;
  const std::size_t m = 2;
  const unsigned l = 8;
  const std::size_t threads = std::min<std::size_t>(4, BenchThreads());
  const std::vector<std::size_t> client_grid = {1, 4, 8};

  PrintHeader("serving", "thin-client throughput vs concurrency",
              "thin client -> QueryService -> engine -> remote C2 (loopback)");
  ServingStack stack = MakeStack(n, m, l, key_bits, threads);

  // Sanity: the served path answers exactly like the local engine.
  {
    QueryRequest request;
    request.record = stack.query;
    request.k = 2;
    request.protocol = QueryProtocol::kBasic;
    auto local = stack.local->Query(request);
    auto client =
        RemoteQueryClient::Connect("127.0.0.1", stack.service->port());
    if (!client.ok()) return 1;
    auto remote = (*client)->Query(request);
    if (!local.ok() || !remote.ok() || local->records != remote->records) {
      std::fprintf(stderr, "served result does not match local engine\n");
      return 1;
    }
  }

  struct Series {
    const char* name;
    QueryProtocol protocol;
    std::size_t total_queries;
    std::vector<Point> points;
  };
  std::vector<Series> all = {
      {"basic", QueryProtocol::kBasic, std::size_t{16}, {}},
      {"secure", QueryProtocol::kSecure, std::size_t{8}, {}},
  };
  for (auto& series : all) {
    std::printf("# protocol=%s  queries=%zu\n", series.name,
                series.total_queries);
    std::printf("%-8s %-10s %-10s %-8s\n", "clients", "seconds", "qps",
                "speedup");
    double serial_seconds = 0;
    for (std::size_t clients : client_grid) {
      Point point =
          DriveClients(stack, clients, series.total_queries, series.protocol);
      if (clients == 1) serial_seconds = point.seconds;
      series.points.push_back(point);
      std::printf("%-8zu %-10.3f %-10.2f %-8.2f\n", point.clients,
                  point.seconds, point.queries / point.seconds,
                  serial_seconds / point.seconds);
    }
  }

  if (emit_json) {
    std::ostringstream os;
    os << "{\n    \"key_bits\": " << key_bits << ", \"n\": " << n
       << ", \"m\": " << m << ", \"l\": " << l
       << ", \"c1_threads\": " << threads;
    for (const auto& series : all) {
      os << ",\n    \"" << series.name << "\": [";
      for (std::size_t i = 0; i < series.points.size(); ++i) {
        const Point& point = series.points[i];
        os << (i ? ", " : "") << "{\"clients\": " << point.clients
           << ", \"queries\": " << point.queries
           << ", \"seconds\": " << point.seconds
           << ", \"qps\": " << point.queries / point.seconds << "}";
      }
      os << "]";
    }
    os << "\n  }";
    MergeJsonSection(BenchJsonPath(json_path, "BENCH_PR3.json"), "serving",
                     os.str());
  }

  // Tear the single-table stack down before standing up the multi-table
  // grids: on a small CI box the background randomizer refills of five
  // live C2s would distort the comparison.
  stack.service->Shutdown();

  // -- Multi-table series (PR 5): 1 vs 4 tables under the same client load.
  std::printf("# multi-table: %zu clients spread across T tables "
              "(basic protocol)\n",
              std::size_t{4});
  std::printf("%-8s %-8s %-10s %-10s\n", "tables", "clients", "seconds",
              "qps");
  struct MultiPoint {
    std::size_t tables = 0;
    Point point;
  };
  std::vector<MultiPoint> multi_points;
  const std::size_t multi_clients = 4;
  const std::size_t multi_queries = PaperScale() ? 32 : 16;
  for (std::size_t num_tables : {std::size_t{1}, std::size_t{4}}) {
    std::unique_ptr<MultiTableStack> multi =
        MakeMultiStack(num_tables, n, m, l, key_bits, threads);
    Point point = DriveMultiTableClients(*multi, multi_clients,
                                         multi_queries,
                                         QueryProtocol::kBasic);
    multi_points.push_back({num_tables, point});
    std::printf("%-8zu %-8zu %-10.3f %-10.2f\n", num_tables, point.clients,
                point.seconds, point.queries / point.seconds);
  }

  if (emit_json) {
    std::ostringstream os;
    os << "{\n    \"key_bits\": " << key_bits << ", \"n\": " << n
       << ", \"m\": " << m << ", \"l\": " << l
       << ", \"c1_threads\": " << threads
       << ", \"clients\": " << multi_clients << ",\n    \"series\": [";
    for (std::size_t i = 0; i < multi_points.size(); ++i) {
      const MultiPoint& mp = multi_points[i];
      os << (i ? ", " : "") << "{\"tables\": " << mp.tables
         << ", \"queries\": " << mp.point.queries
         << ", \"seconds\": " << mp.point.seconds
         << ", \"qps\": " << mp.point.queries / mp.point.seconds << "}";
    }
    os << "]\n  }";
    MergeJsonSection(BenchJsonPath(json_path, "BENCH_PR5.json"),
                     "serving_multi_table", os.str());
  }

  // -- QoS series (PR 10a): Zipf-skewed traffic, result cache off vs on.
  const double zipf_s = 1.1;
  const std::size_t distinct_queries = 8;
  const std::size_t zipf_clients = 4;
  const std::size_t zipf_per_client = PaperScale() ? 24 : 8;
  const int64_t max_value = MaxValueForDistanceBits(m, l);
  std::vector<PlainRecord> query_pool;
  for (std::size_t i = 0; i < distinct_queries; ++i) {
    query_pool.push_back(GenerateUniformQuery(m, max_value, 801 + i));
  }
  std::printf("# cache: zipf(s=%.1f) over %zu distinct queries, %zu clients "
              "x %zu queries (basic protocol)\n",
              zipf_s, distinct_queries, zipf_clients, zipf_per_client);
  std::printf("%-8s %-10s %-10s %-12s %-10s\n", "cache", "seconds", "qps",
              "p95_ms", "hit_rate");
  struct CacheRun {
    const char* label;
    std::size_t cache_bytes;
    SkewedPoint point;
  };
  std::vector<CacheRun> cache_runs = {
      {"off", 0, {}},
      {"on", ResultCache::kDefaultMaxBytes, {}},
  };
  for (CacheRun& run : cache_runs) {
    std::unique_ptr<QosStack> qos =
        MakeQosStack({{"hot", 1}}, n, m, l, key_bits, threads,
                     /*max_in_flight=*/16, run.cache_bytes);
    run.point = DriveZipfClients(*qos, "hot", query_pool, zipf_clients,
                                 zipf_per_client, zipf_s);
    const uint64_t lookups = run.point.hits + run.point.misses;
    const double hit_rate =
        lookups == 0 ? 0
                     : static_cast<double>(run.point.hits) /
                           static_cast<double>(lookups);
    std::printf("%-8s %-10.3f %-10.2f %-12.3f %-10.3f\n", run.label,
                run.point.seconds,
                run.point.queries / run.point.seconds,
                Percentile(run.point.latencies, 0.95) * 1e3, hit_rate);
  }

  // -- QoS series (PR 10b): weighted fairness under a flood. Five clients
  // flood the weight-8 table through a 4-slot budget (oversubscribing its
  // fair share, so rejections are visible); the weight-1 tenant must still
  // make steady progress off its guaranteed share.
  const std::size_t flood_clients = 5;
  const std::size_t light_queries = PaperScale() ? 8 : 4;
  std::unique_ptr<QosStack> fair =
      MakeQosStack({{"heavy", 8}, {"light", 1}}, n, m, l, key_bits, threads,
                   /*max_in_flight=*/4, /*cache_bytes=*/0);
  FairnessPoint fairness = DriveFairnessFlood(*fair, flood_clients,
                                              light_queries);
  std::printf("# fairness: %zu flood clients on heavy(w=8), light(w=1) runs "
              "%zu queries; shares heavy=%u light=%u\n",
              flood_clients, light_queries, fairness.heavy_share,
              fairness.light_share);
  std::printf("light: %zu queries in %.3fs (%.2f qps)  heavy: %llu "
              "completed, %llu rejected\n",
              light_queries, fairness.light_seconds,
              fairness.light_completed / fairness.light_seconds,
              static_cast<unsigned long long>(fairness.heavy_completed),
              static_cast<unsigned long long>(fairness.heavy_rejected));

  if (emit_json) {
    std::ostringstream os;
    os << "{\n    \"key_bits\": " << key_bits << ", \"n\": " << n
       << ", \"m\": " << m << ", \"l\": " << l
       << ", \"zipf_s\": " << zipf_s
       << ", \"distinct_queries\": " << distinct_queries
       << ", \"clients\": " << zipf_clients << ",\n    \"cache\": [";
    for (std::size_t i = 0; i < cache_runs.size(); ++i) {
      const SkewedPoint& point = cache_runs[i].point;
      const uint64_t lookups = point.hits + point.misses;
      os << (i ? ", " : "") << "{\"cache\": \"" << cache_runs[i].label
         << "\", \"queries\": " << point.queries
         << ", \"seconds\": " << point.seconds
         << ", \"qps\": " << point.queries / point.seconds
         << ", \"p95_seconds\": " << Percentile(point.latencies, 0.95)
         << ", \"hits\": " << point.hits << ", \"misses\": " << point.misses
         << ", \"hit_rate\": "
         << (lookups == 0
                 ? 0
                 : static_cast<double>(point.hits) /
                       static_cast<double>(lookups))
         << "}";
    }
    os << "],\n    \"fairness\": {\"max_in_flight\": 4, \"heavy_weight\": 8"
       << ", \"light_weight\": 1, \"flood_clients\": " << flood_clients
       << ", \"heavy_share\": " << fairness.heavy_share
       << ", \"light_share\": " << fairness.light_share
       << ", \"light_queries\": " << fairness.light_completed
       << ", \"light_seconds\": " << fairness.light_seconds
       << ", \"light_qps\": "
       << fairness.light_completed / fairness.light_seconds
       << ", \"heavy_completed\": " << fairness.heavy_completed
       << ", \"heavy_rejected\": " << fairness.heavy_rejected << "}\n  }";
    MergeJsonSection(BenchJsonPath(json_path, "BENCH_PR10.json"),
                     "serving_cache_fairness", os.str());
  }
  return 0;
}
