// Batched-query throughput: a serial loop of Query() calls vs one
// QueryBatch() of the same requests, at c1_threads in {1, 2, 4}, over a
// simulated C1<->C2 WAN (5 ms one-way, the deployment's federated-cloud
// topology; both protocols are round-trip-bound over such a link).
// --json writes the series into BENCH_PR2.json.
//
// This measures what the request-oriented API buys: with c1_threads = t the
// engine keeps t independent queries in flight over the shared C1 pool and
// the correlation-id RPC demux, so one query's link stalls and C2 waits are
// overlapped with another's work and batch wall time approaches serial / t
// (compute contention permitting — on a many-core host the homomorphic work
// overlaps too). At c1_threads = 1 the batch degenerates to the serial
// loop — same wall time — which is the sanity floor of the comparison.
// Results are identical to the serial path either way
// (tests/test_query_api.cc checks bitwise equality).
//
// Default grid (256-bit keys, small n) finishes in ~a minute;
// SKNN_BENCH_SCALE=paper uses 512-bit keys and a larger table.
#include "bench/bench_util.h"

namespace {

using namespace sknn;
using namespace sknn::bench;

struct BatchPoint {
  double serial_seconds = 0;
  double batch_seconds = 0;
};

BatchPoint MeasureOne(std::size_t n, std::size_t m, unsigned l,
                      unsigned key_bits, std::size_t threads,
                      QueryProtocol protocol, unsigned k,
                      std::size_t batch_size,
                      std::chrono::microseconds latency) {
  EngineSetup setup = MakeEngine(n, m, l, key_bits, threads,
                                 /*seed=*/n * 131 + threads, latency);
  QueryRequest request;
  request.record = setup.query;
  request.k = k;
  request.protocol = protocol;
  std::vector<QueryRequest> requests(batch_size, request);

  BatchPoint point;
  Stopwatch sw;
  for (const auto& r : requests) {
    auto response = setup.engine->Query(r);
    if (!response.ok()) {
      std::fprintf(stderr, "serial query failed: %s\n",
                   response.status().ToString().c_str());
      std::exit(1);
    }
  }
  point.serial_seconds = sw.ElapsedSeconds();

  sw.Reset();
  auto batch = setup.engine->QueryBatch(requests);
  point.batch_seconds = sw.ElapsedSeconds();
  for (const auto& response : batch) {
    if (!response.ok()) {
      std::fprintf(stderr, "batched query failed: %s\n",
                   response.status().ToString().c_str());
      std::exit(1);
    }
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  const bool emit_json = ConsumeJsonFlag(&argc, argv, &json_path);
  const std::size_t kBatch = 8;
  const unsigned kK = 2;
  const std::size_t kM = 2;
  const unsigned kL = 8;
  const unsigned key_bits = PaperScale() ? 512 : 256;
  const std::size_t n_basic = PaperScale() ? 500 : 64;
  const std::size_t n_secure = PaperScale() ? 32 : 12;
  const std::chrono::microseconds kLatency{5000};  // 5 ms one-way WAN
  std::vector<std::size_t> thread_counts = {1, 2, 4};
  std::ostringstream batch_json;
  batch_json << "[";
  bool first_row = true;

  PrintHeader("batch",
              "serial loop vs QueryBatch of 8 queries over c1_threads, "
              "5 ms C1<->C2 WAN",
              "expect: ~1x at 1 thread, approaching t-x at t threads");
  std::printf("%10s %6s %8s %14s %14s %9s\n", "protocol", "n", "threads",
              "serial_s", "batch_s", "speedup");
  for (QueryProtocol protocol :
       {QueryProtocol::kBasic, QueryProtocol::kSecure}) {
    const std::size_t n =
        protocol == QueryProtocol::kBasic ? n_basic : n_secure;
    for (std::size_t threads : thread_counts) {
      BatchPoint point = MeasureOne(n, kM, kL, key_bits, threads, protocol,
                                    kK, kBatch, kLatency);
      double speedup = point.serial_seconds /
                       (point.batch_seconds > 0 ? point.batch_seconds : 1e-9);
      std::printf("%10s %6zu %8zu %14.2f %14.2f %8.2fx\n",
                  QueryProtocolName(protocol), n, threads,
                  point.serial_seconds, point.batch_seconds, speedup);
      std::fflush(stdout);
      batch_json << (first_row ? "\n" : ",\n") << "      {\"protocol\": \""
                 << QueryProtocolName(protocol) << "\", \"n\": " << n
                 << ", \"threads\": " << threads
                 << ", \"serial_s\": " << point.serial_seconds
                 << ", \"batch_s\": " << point.batch_seconds
                 << ", \"speedup\": " << speedup << "}";
      first_row = false;
    }
  }
  batch_json << "\n    ]";

  if (emit_json) {
    std::ostringstream os;
    os << "{\n    \"batch_vs_serial\": " << batch_json.str() << "\n  }";
    MergeJsonSection(BenchJsonPath(json_path, "BENCH_PR2.json"),
                     "end_to_end", os.str());
  }
  return 0;
}
