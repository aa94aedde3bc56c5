// Microbenchmarks of the cryptosystem and every sub-protocol of Section 3,
// plus the Section 4.4 complexity accounting: the reported op counters let
// the measured costs be checked against the paper's O(.) bounds
// (SM/SBOR constant, SSED O(m), SBD O(l), SMIN O(l), SMIN_n O(l*n)).
//
// With --json, the results (plus the pooled-vs-plain Encrypt speedup) are
// written to the "primitives" section of BENCH_PR2.json — the repo's
// machine-readable perf trajectory — and the PR 8 refill series (randomizer
// refill throughput, fixed-base-vs-generic-modexp sweep, short-vs-full-width
// speedup) to the "refill_throughput" section of BENCH_PR8.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bigint/modexp.h"
#include "crypto/op_counters.h"
#include "net/rpc.h"
#include "proto/c2_service.h"
#include "proto/sbd.h"
#include "proto/sbor.h"
#include "proto/sm.h"
#include "proto/smin.h"
#include "proto/ssed.h"

namespace sknn {
namespace {

// Two-cloud topology shared by all protocol benchmarks of one key size.
struct Harness {
  explicit Harness(unsigned key_bits) {
    Random rng(key_bits);
    auto keys = GeneratePaillierKeyPair(key_bits, rng).value();
    pk = keys.pk;
    c2 = std::make_unique<C2Service>(std::move(keys.sk));
    auto link = Channel::CreatePair();
    server = std::make_unique<RpcServer>(
        std::move(link.b),
        [this](const Message& req) { return c2->Handle(req); }, 1);
    client = std::make_unique<RpcClient>(std::move(link.a));
    ctx = std::make_unique<ProtoContext>(&pk, client.get(), nullptr);
  }

  std::vector<Ciphertext> EncryptBits(uint64_t value, unsigned l) {
    Random& rng = Random::ThreadLocal();
    std::vector<Ciphertext> out(l);
    for (unsigned i = 0; i < l; ++i) {
      out[i] = pk.Encrypt(BigInt((value >> (l - 1 - i)) & 1), rng);
    }
    return out;
  }

  PaillierPublicKey pk;
  std::unique_ptr<C2Service> c2;
  std::unique_ptr<RpcServer> server;
  std::unique_ptr<RpcClient> client;
  std::unique_ptr<ProtoContext> ctx;
};

Harness& SharedHarness(unsigned key_bits) {
  static auto* h512 = new Harness(512);
  static auto* h1024 = new Harness(1024);
  return key_bits == 512 ? *h512 : *h1024;
}

void ReportOps(benchmark::State& state, const OpSnapshot& before) {
  OpSnapshot delta = OpCounters::Snapshot() - before;
  double iters = static_cast<double>(state.iterations());
  state.counters["enc"] = static_cast<double>(delta.encryptions) / iters;
  state.counters["dec"] = static_cast<double>(delta.decryptions) / iters;
  state.counters["exp"] = static_cast<double>(delta.exponentiations) / iters;
}

void BM_PaillierEncrypt(benchmark::State& state) {
  Harness& h = SharedHarness(static_cast<unsigned>(state.range(0)));
  Random rng(7);
  BigInt m = rng.Below(h.pk.n());
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.pk.Encrypt(m, rng));
  }
}
BENCHMARK(BM_PaillierEncrypt)->ArgName("K")->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// The PR 2 hot path: Encrypt backed by a prefilled randomizer pool pays a
// modmul instead of the r^N modexp. Prefilling happens off the clock — this
// measures the *online* cost when precomputation keeps up (in the engine,
// the fill workers run inside C1<->C2 round-trip stalls). The unpooled
// BM_PaillierEncrypt above is the baseline.
void BM_PaillierEncryptPooled(benchmark::State& state) {
  Harness& h = SharedHarness(static_cast<unsigned>(state.range(0)));
  RandomizerPool pool(h.pk.n(), /*capacity=*/4096);
  pool.WaitUntilFull();
  PaillierPublicKey pk = h.pk;
  pk.set_randomizer_pool(&pool);
  Random rng(7);
  BigInt m = rng.Below(pk.n());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pk.Encrypt(m, rng));
  }
  if (pool.misses() > 0) {
    state.SkipWithError("randomizer pool underflowed — not measuring hits");
  }
  state.counters["pool_hits"] = static_cast<double>(pool.hits());
}
BENCHMARK(BM_PaillierEncryptPooled)->ArgName("K")->Arg(512)->Arg(1024)
    ->Iterations(1024)->Unit(benchmark::kMicrosecond);

// Tentpole (PR 8): randomizer REFILL throughput — how fast one worker set
// can mint fresh r^N values for the pool. short:1 is the short-exponent
// fixed-base path (r^N = h_N^s through the precomputed window table,
// docs/CRYPTO.md); short:0 is the full-width reference (rng.UnitModulo ^ N).
// The acceptance gate (ISSUE 8 / CI bench smoke) requires the short path to
// refill >= 3x faster at 1024-bit keys.
void BM_RefillThroughput(benchmark::State& state) {
  Harness& h = SharedHarness(static_cast<unsigned>(state.range(0)));
  RandomizerPoolOptions options;
  options.short_exponents = state.range(1) != 0;
  RandomizerSource source(h.pk.n(), options);
  const std::size_t threads = static_cast<std::size_t>(state.range(2));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  constexpr std::size_t kBatch = 16;
  for (auto _ : state) {
    if (pool != nullptr) {
      pool->ParallelFor(kBatch, [&source](std::size_t) {
        benchmark::DoNotOptimize(source.Next(Random::ThreadLocal()));
      });
    } else {
      for (std::size_t i = 0; i < kBatch; ++i) {
        benchmark::DoNotOptimize(source.Next(Random::ThreadLocal()));
      }
    }
  }
  state.counters["enc_per_s"] = benchmark::Counter(
      static_cast<double>(kBatch),
      benchmark::Counter::kIsIterationInvariantRate);
}
// UseRealTime: at T > 1 all the minting happens on pool workers, so the
// default CPU-time clock (main thread only, mostly blocked) would both
// mis-schedule iterations and inflate the rate counter.
BENCHMARK(BM_RefillThroughput)
    ->ArgNames({"K", "short", "T"})
    ->ArgsProduct({{512, 1024}, {0, 1}, {1, 2, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// The fixed-base window exponentiator against the generic exponentiation
// it replaces, per window size: table-driven PowMod of a short exponent vs
// BigInt::PowMod (the Montgomery kernel) of the same exponent from the
// same base. The window-size
// sweep is what RecommendedWindowBits was tuned from.
void BM_FixedBasePowMod(benchmark::State& state) {
  Harness& h = SharedHarness(static_cast<unsigned>(state.range(0)));
  const unsigned w = static_cast<unsigned>(state.range(1));
  const BigInt n = h.pk.n();
  const BigInt n2 = n * n;
  Random rng(13);
  const unsigned e_bits =
      std::max(256u, static_cast<unsigned>(n.BitLength()) / 4);
  const BigInt base = rng.UnitModulo(n).PowMod(n, n2);
  const BigInt bound = BigInt::PowerOfTwo(e_bits);
  FixedBaseWindow window(base, n2, e_bits, w);
  BigInt e = rng.Below(bound);
  for (auto _ : state) {
    benchmark::DoNotOptimize(window.PowMod(e));
  }
  state.counters["table_entries"] = static_cast<double>(window.table_size());
}
BENCHMARK(BM_FixedBasePowMod)
    ->ArgNames({"K", "w"})
    ->ArgsProduct({{512, 1024}, {2, 3, 4, 5, 6}})
    ->Unit(benchmark::kMicrosecond);

// Baseline for BM_FixedBasePowMod: the same short exponent through the
// general square-and-multiply path (no precomputation).
void BM_FixedBaseBaselinePowMod(benchmark::State& state) {
  Harness& h = SharedHarness(static_cast<unsigned>(state.range(0)));
  const BigInt n = h.pk.n();
  const BigInt n2 = n * n;
  Random rng(13);
  const unsigned e_bits =
      std::max(256u, static_cast<unsigned>(n.BitLength()) / 4);
  const BigInt base = rng.UnitModulo(n).PowMod(n, n2);
  BigInt e = rng.Below(BigInt::PowerOfTwo(e_bits));
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.PowMod(e, n2));
  }
}
BENCHMARK(BM_FixedBaseBaselinePowMod)
    ->ArgName("K")->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_PaillierDecrypt(benchmark::State& state) {
  Harness& h = SharedHarness(static_cast<unsigned>(state.range(0)));
  Random rng(8);
  Ciphertext c = h.pk.Encrypt(rng.Below(h.pk.n()), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.c2->secret_key().Decrypt(c));
  }
}
BENCHMARK(BM_PaillierDecrypt)->ArgName("K")->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_SecureMultiply(benchmark::State& state) {
  Harness& h = SharedHarness(static_cast<unsigned>(state.range(0)));
  Random rng(9);
  Ciphertext a = h.pk.Encrypt(BigInt(123), rng);
  Ciphertext b = h.pk.Encrypt(BigInt(456), rng);
  OpSnapshot before = OpCounters::Snapshot();
  for (auto _ : state) {
    auto r = SecureMultiply(*h.ctx, a, b);
    if (!r.ok()) state.SkipWithError("SM failed");
  }
  ReportOps(state, before);
  state.SetLabel("paper 4.4: O(1) enc+exp per SM");
}
BENCHMARK(BM_SecureMultiply)->ArgName("K")->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_Ssed(benchmark::State& state) {
  Harness& h = SharedHarness(512);
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Random rng(10);
  std::vector<Ciphertext> x, y;
  for (std::size_t j = 0; j < m; ++j) {
    x.push_back(h.pk.Encrypt(BigInt(static_cast<int64_t>(j)), rng));
    y.push_back(h.pk.Encrypt(BigInt(static_cast<int64_t>(2 * j)), rng));
  }
  OpSnapshot before = OpCounters::Snapshot();
  for (auto _ : state) {
    auto r = SecureSquaredDistance(*h.ctx, x, y);
    if (!r.ok()) state.SkipWithError("SSED failed");
  }
  ReportOps(state, before);
  state.SetLabel("paper 4.4: O(m) enc+exp per SSED");
}
BENCHMARK(BM_Ssed)->ArgName("m")->Arg(6)->Arg(12)->Arg(18)
    ->Unit(benchmark::kMillisecond);

void BM_Sbd(benchmark::State& state) {
  Harness& h = SharedHarness(512);
  const unsigned l = static_cast<unsigned>(state.range(0));
  Random rng(11);
  Ciphertext z = h.pk.Encrypt(BigInt(37), rng);
  SbdOptions opts;
  opts.l = l;
  OpSnapshot before = OpCounters::Snapshot();
  for (auto _ : state) {
    auto r = BitDecompose(*h.ctx, z, opts);
    if (!r.ok()) state.SkipWithError("SBD failed");
  }
  ReportOps(state, before);
  state.SetLabel("paper 4.4: O(l) enc+exp per SBD");
}
BENCHMARK(BM_Sbd)->ArgName("l")->Arg(6)->Arg(12)
    ->Unit(benchmark::kMillisecond);

void BM_Smin(benchmark::State& state) {
  Harness& h = SharedHarness(512);
  const unsigned l = static_cast<unsigned>(state.range(0));
  auto u = h.EncryptBits(21 % (1u << l), l);
  auto v = h.EncryptBits(13 % (1u << l), l);
  OpSnapshot before = OpCounters::Snapshot();
  for (auto _ : state) {
    auto r = SecureMin(*h.ctx, u, v);
    if (!r.ok()) state.SkipWithError("SMIN failed");
  }
  ReportOps(state, before);
  state.SetLabel("paper 4.4: O(l) enc+exp per SMIN");
}
BENCHMARK(BM_Smin)->ArgName("l")->Arg(6)->Arg(12)
    ->Unit(benchmark::kMillisecond);

void BM_SminN(benchmark::State& state) {
  Harness& h = SharedHarness(512);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const unsigned l = 6;
  std::vector<std::vector<Ciphertext>> ds;
  for (std::size_t i = 0; i < n; ++i) {
    ds.push_back(h.EncryptBits(i % (1u << l), l));
  }
  OpSnapshot before = OpCounters::Snapshot();
  for (auto _ : state) {
    auto r = SecureMinN(*h.ctx, ds);
    if (!r.ok()) state.SkipWithError("SMIN_n failed");
  }
  ReportOps(state, before);
  state.SetLabel("paper 4.4: O(l*n) enc+exp per SMIN_n (n-1 SMINs)");
}
BENCHMARK(BM_SminN)->ArgName("n")->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_Sbor(benchmark::State& state) {
  Harness& h = SharedHarness(512);
  Random rng(12);
  Ciphertext a = h.pk.Encrypt(BigInt(1), rng);
  Ciphertext b = h.pk.Encrypt(BigInt(0), rng);
  OpSnapshot before = OpCounters::Snapshot();
  for (auto _ : state) {
    auto r = SecureBitOr(*h.ctx, a, b);
    if (!r.ok()) state.SkipWithError("SBOR failed");
  }
  ReportOps(state, before);
  state.SetLabel("paper 4.4: O(1) — one SM plus homomorphic ops");
}
BENCHMARK(BM_Sbor)->Unit(benchmark::kMillisecond);

}  // namespace

// Captures every finished run for the --json emitter while still printing
// the normal console table.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string name;
    double real_time = 0;  // per iteration, in `unit`
    std::string unit;
    int64_t iterations = 0;
    std::map<std::string, double> counters;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      Entry e;
      e.name = run.benchmark_name();
      e.real_time = run.GetAdjustedRealTime();
      e.unit = benchmark::GetTimeUnitString(run.time_unit);
      e.iterations = run.iterations;
      for (const auto& [name, counter] : run.counters) {
        e.counters[name] = counter.value;
      }
      entries.push_back(std::move(e));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<Entry> entries;
};

std::string PrimitivesJson(const std::vector<JsonCaptureReporter::Entry>& es) {
  auto real_time_of = [&](const std::string& name) -> double {
    for (const auto& e : es) {
      if (e.name == name) return e.real_time;
    }
    return 0;
  };
  std::ostringstream os;
  os << "{\n    \"benchmarks\": [";
  bool first = true;
  for (const auto& e : es) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "      {\"name\": \"" << e.name << "\", \"real_time\": "
       << e.real_time << ", \"unit\": \"" << e.unit
       << "\", \"iterations\": " << e.iterations;
    for (const auto& [name, value] : e.counters) {
      os << ", \"" << name << "\": " << value;
    }
    os << "}";
  }
  os << "\n    ]";
  // The PR 2 acceptance number: pooled Encrypt throughput vs the plain
  // modexp path, per key size (0 when either side did not run).
  for (unsigned k : {512u, 1024u}) {
    double plain =
        real_time_of("BM_PaillierEncrypt/K:" + std::to_string(k));
    double pooled = real_time_of("BM_PaillierEncryptPooled/K:" +
                                 std::to_string(k) + "/iterations:1024");
    os << ",\n    \"encrypt_pooled_speedup_" << k
       << "\": " << (pooled > 0 ? plain / pooled : 0);
  }
  os << "\n  }";
  return os.str();
}

// The PR 8 acceptance series: refill throughput per key size / strategy /
// thread count, the fixed-base window sweep, and the headline
// refill_speedup_K ratios (short-exponent vs full-width minting rate,
// single-threaded — the >= 3x gate of ISSUE 8 and the CI bench smoke).
std::string RefillJson(const std::vector<JsonCaptureReporter::Entry>& es) {
  auto counter_of = [&](const std::string& name,
                        const std::string& counter) -> double {
    for (const auto& e : es) {
      if (e.name == name) {
        auto it = e.counters.find(counter);
        if (it != e.counters.end()) return it->second;
      }
    }
    return 0;
  };
  std::ostringstream os;
  os << "{\n    \"benchmarks\": [";
  bool first = true;
  for (const auto& e : es) {
    if (e.name.rfind("BM_Refill", 0) != 0 &&
        e.name.rfind("BM_FixedBase", 0) != 0) {
      continue;
    }
    os << (first ? "\n" : ",\n");
    first = false;
    os << "      {\"name\": \"" << e.name << "\", \"real_time\": "
       << e.real_time << ", \"unit\": \"" << e.unit
       << "\", \"iterations\": " << e.iterations;
    for (const auto& [name, value] : e.counters) {
      os << ", \"" << name << "\": " << value;
    }
    os << "}";
  }
  os << "\n    ]";
  for (unsigned k : {512u, 1024u}) {
    const std::string prefix =
        "BM_RefillThroughput/K:" + std::to_string(k);
    double full = counter_of(prefix + "/short:0/T:1/real_time", "enc_per_s");
    double fast = counter_of(prefix + "/short:1/T:1/real_time", "enc_per_s");
    os << ",\n    \"refill_encrypts_per_s_" << k << "\": " << fast;
    os << ",\n    \"refill_speedup_" << k
       << "\": " << (full > 0 ? fast / full : 0);
  }
  os << "\n  }";
  return os.str();
}

}  // namespace sknn

int main(int argc, char** argv) {
  std::string json_path;
  const bool emit_json = sknn::bench::ConsumeJsonFlag(&argc, argv, &json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  sknn::JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (emit_json) {
    sknn::bench::MergeJsonSection(
        sknn::bench::BenchJsonPath(json_path, "BENCH_PR2.json"), "primitives",
        sknn::PrimitivesJson(reporter.entries));
    sknn::bench::MergeJsonSection(
        sknn::bench::BenchJsonPath(json_path, "BENCH_PR8.json"),
        "refill_throughput", sknn::RefillJson(reporter.entries));
  }
  return 0;
}
