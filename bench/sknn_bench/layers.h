// The per-layer half of the traced run: every layer below the served query,
// timed on its own in this process, bottom up —
//
//   bigint  modexp, modular inverse, fixed-base window       (K = 512, 1024)
//   crypto  one Paillier operation each                      (K = 512, 1024)
//   proto   one instance of each sub-protocol, with its exact operation
//           and frame counts, over a vectorized ProtoContext with one C1
//           thread and one C2 thread                         (K = 1024)
//   core    whole in-process queries with their phase split, Bob's cost,
//           and the cost model: op counts x the crypto per-op times
//
// The core and proto parameters are the served workloads' (SkNN_m on the
// secure-exact table, SkNN_b on the table zipf-cached's misses scan), so
// each row can be read against the end-to-end number it feeds.
#ifndef SKNN_BENCH_SKNN_BENCH_LAYERS_H_
#define SKNN_BENCH_SKNN_BENCH_LAYERS_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/plaintext_knn.h"
#include "bench/sknn_bench/report.h"
#include "bench/sknn_bench/trace.h"
#include "bigint/modexp.h"
#include "bigint/random.h"
#include "common/stopwatch.h"
#include "core/engine.h"
#include "core/query_client.h"
#include "core/sknn_b.h"
#include "core/sknn_m.h"
#include "crypto/op_counters.h"
#include "net/rpc.h"
#include "proto/c2_service.h"
#include "proto/context.h"
#include "proto/query_meter.h"
#include "proto/sbd.h"
#include "proto/sbor.h"
#include "proto/sm.h"
#include "proto/smin.h"
#include "proto/ssed.h"

namespace sknn {
namespace bench {

struct LayerParams {
  std::vector<unsigned> crypto_bits;  // bigint + crypto rows
  unsigned proto_bits = 1024;         // proto + core rows
  std::size_t m = 6;
  unsigned l = 13;  // distance bits of the workload tables
  int64_t max_value = 26;
  std::size_t secure_n = 8;
  unsigned secure_k = 2;
  std::size_t basic_n = 16;
  unsigned basic_k = 5;
  bool smoke = false;  // one repetition of everything
  uint64_t seed = 1;
};

/// \brief Median over `batches` of the mean per-call time of `ops`
/// back-to-back calls of fn(i), in microseconds.
template <typename Fn>
double MicrosPerOp(int batches, int ops, Fn&& fn) {
  std::vector<double> per_op;
  int i = 0;
  for (int b = 0; b < batches; ++b) {
    Stopwatch sw;
    for (int j = 0; j < ops; ++j) fn(i++);
    per_op.push_back(sw.ElapsedSeconds() * 1e6 / ops);
  }
  return Median(per_op);
}

/// \brief The Paillier per-op times the cost model multiplies op counts by.
struct CryptoCosts {
  double encrypt_pooled_us = 0;
  double decrypt_us = 0;
  double mul_scalar_us = 0;
  double add_us = 0;

  /// Seconds predicted for `ops` (an encryption is charged at the pooled
  /// price: both clouds run with randomizer pools).
  double Model(const OpSnapshot& ops) const {
    return (static_cast<double>(ops.encryptions) * encrypt_pooled_us +
            static_cast<double>(ops.decryptions) * decrypt_us +
            static_cast<double>(ops.exponentiations) * mul_scalar_us +
            static_cast<double>(ops.multiplications) * add_us) /
           1e6;
  }
};

inline Result<PaillierKeyPair> SeededKeys(unsigned bits, uint64_t seed) {
  Random rng(seed * 1000003 + bits);
  return GeneratePaillierKeyPair(bits, rng);
}

inline void MeasureBigInt(unsigned bits, const PaillierKeyPair& keys,
                          const LayerParams& p, Tracer* tracer,
                          std::vector<Metric>* out) {
  const std::string suffix = "_k" + std::to_string(bits);
  ScopedSpan group(tracer, "bigint.k" + std::to_string(bits));
  Random rng(p.seed + bits);
  const BigInt& n2 = keys.pk.n_squared();
  std::vector<BigInt> bases, full, shorts;
  for (int i = 0; i < 16; ++i) {
    bases.push_back(rng.UnitModulo(n2));
    full.push_back(rng.Bits(bits));
    shorts.push_back(rng.Bits(256));
  }
  const int batches = p.smoke ? 1 : 5;
  BigInt sink;
  {
    ScopedSpan span(tracer, "bigint.powmod_full" + suffix);
    out->push_back({"bigint.powmod_full_us" + suffix,
                    MicrosPerOp(batches, p.smoke ? 1 : 8,
                                [&](int i) {
                                  sink = bases[i % 16].PowMod(full[i % 16], n2);
                                }),
                    "us"});
  }
  {
    ScopedSpan span(tracer, "bigint.invmod" + suffix);
    out->push_back({"bigint.invmod_us" + suffix,
                    MicrosPerOp(batches, p.smoke ? 1 : 200,
                                [&](int i) {
                                  sink = bases[i % 16].InvMod(n2).value();
                                }),
                    "us"});
  }
  {
    ScopedSpan span(tracer, "bigint.fixed_base_powmod" + suffix);
    FixedBaseWindow window(bases[0], n2, 256);
    out->push_back({"bigint.fixed_base_powmod_us" + suffix,
                    MicrosPerOp(batches, p.smoke ? 1 : 50,
                                [&](int i) {
                                  sink = window.PowMod(shorts[i % 16]);
                                }),
                    "us"});
  }
}

inline CryptoCosts MeasureCrypto(unsigned bits, const PaillierKeyPair& keys,
                                 const LayerParams& p, Tracer* tracer,
                                 std::vector<Metric>* out) {
  const std::string suffix = "_k" + std::to_string(bits);
  ScopedSpan group(tracer, "crypto.k" + std::to_string(bits));
  Random rng(p.seed + 7 * bits);
  const PaillierPublicKey& pk = keys.pk;
  const PaillierSecretKey& sk = keys.sk;
  // Enough stock for every pooled call below without dipping under the
  // refill watermark, so no background refill runs while timing.
  RandomizerPool pool(pk.n(), 2048);
  pool.WaitUntilFull();
  PaillierPublicKey pooled = pk;
  pooled.set_randomizer_pool(&pool);
  std::vector<Ciphertext> cs;
  std::vector<BigInt> scalars;
  for (int i = 0; i < 16; ++i) {
    cs.push_back(pk.Encrypt(BigInt(i), rng));
    scalars.push_back(rng.Below(pk.n()));
  }
  const int batches = p.smoke ? 1 : 5;
  auto ops = [&p](int n) { return p.smoke ? 1 : n; };
  Ciphertext sink;
  BigInt plain_sink;
  CryptoCosts costs;
  auto row = [&](const std::string& name, double us) {
    out->push_back({"crypto." + name + "_us" + suffix, us, "us"});
    return us;
  };
  auto timed = [&](const std::string& name, auto&& measure) {
    ScopedSpan span(tracer, "crypto." + name + suffix);
    return row(name, measure());
  };
  timed("encrypt", [&] {
    return MicrosPerOp(batches, ops(8),
                       [&](int i) { sink = pk.Encrypt(BigInt(i % 26), rng); });
  });
  costs.encrypt_pooled_us = timed("encrypt_pooled", [&] {
    return MicrosPerOp(batches, ops(100), [&](int i) {
      sink = pooled.Encrypt(BigInt(i % 26), rng);
    });
  });
  costs.decrypt_us = timed("decrypt", [&] {
    return MicrosPerOp(batches, ops(10),
                       [&](int i) { plain_sink = sk.Decrypt(cs[i % 16]); });
  });
  costs.mul_scalar_us = timed("mul_scalar", [&] {
    return MicrosPerOp(batches, ops(8), [&](int i) {
      sink = pk.MulScalar(cs[i % 16], scalars[i % 16]);
    });
  });
  timed("negate", [&] {
    return MicrosPerOp(batches, ops(8),
                       [&](int i) { sink = pk.Negate(cs[i % 16]); });
  });
  costs.add_us = timed("add", [&] {
    return MicrosPerOp(batches, ops(500), [&](int i) {
      sink = pk.Add(cs[i % 16], cs[(i + 1) % 16]);
    });
  });
  timed("rerandomize_pooled", [&] {
    return MicrosPerOp(batches, ops(100), [&](int i) {
      sink = pooled.Rerandomize(cs[i % 16], rng);
    });
  });
  return costs;
}

/// \brief C1 and C2 in this process over an in-memory link, each with its
/// randomizer pool — the engine's topology without the engine, so one
/// sub-protocol instance can be driven and metered on its own.
class TwoParty {
 public:
  explicit TwoParty(const PaillierKeyPair& keys)
      : c1_pool_(keys.pk.n(), 4096), pk_(keys.pk) {
    pk_.set_randomizer_pool(&c1_pool_);
    c2_ = std::make_unique<C2Service>(keys.sk);
    c2_->EnableRandomizerPool(4096);
    Channel::EndpointPair link = Channel::CreatePair();
    C2Service* c2 = c2_.get();
    server_ = std::make_unique<RpcServer>(
        std::move(link.b), [c2](const Message& req) { return c2->Handle(req); },
        1);
    client_ = std::make_unique<RpcClient>(std::move(link.a));
  }

  const PaillierPublicKey& pk() const { return pk_; }

  struct Instance {
    double seconds = 0;
    uint64_t ops = 0;  // encryptions + decryptions + exponentiations
    uint64_t frames = 0;
  };

  /// \brief One call of `fn` on a fresh tagged, metered, vectorized
  /// context, starting from full randomizer stock on both clouds.
  Result<Instance> Run(const std::function<Status(ProtoContext&)>& fn) {
    c1_pool_.WaitUntilFull();
    c2_->randomizer_pool()->WaitUntilFull();
    QueryMeter meter;
    ProtoContext ctx(&pk_, client_.get(), nullptr, next_query_++, &meter,
                     /*vectorized=*/true);
    const OpSnapshot before = OpCounters::Snapshot();
    Stopwatch sw;
    SKNN_RETURN_NOT_OK(fn(ctx));
    Instance instance;
    instance.seconds = sw.ElapsedSeconds();
    const OpSnapshot d = OpCounters::Snapshot() - before;
    instance.ops = d.encryptions + d.decryptions + d.exponentiations;
    instance.frames = meter.traffic().frames_a_to_b;
    return instance;
  }

 private:
  RandomizerPool c1_pool_;
  PaillierPublicKey pk_;
  std::unique_ptr<C2Service> c2_;
  std::unique_ptr<RpcServer> server_;  // destroyed before c2_
  std::unique_ptr<RpcClient> client_;
  uint64_t next_query_ = 1;
};

inline Status MeasureProto(TwoParty& tp, const LayerParams& p, Tracer* tracer,
                           std::vector<Metric>* out) {
  ScopedSpan group(tracer, "proto.k" + std::to_string(p.proto_bits));
  const PaillierPublicKey& pk = tp.pk();
  Random rng(p.seed + 11);
  auto enc = [&](int64_t v) { return pk.Encrypt(BigInt(v), rng); };
  auto enc_bits = [&](uint64_t value, unsigned width) {
    EncryptedBits bits;
    for (unsigned i = 0; i < width; ++i) {
      bits.push_back(enc(static_cast<int64_t>((value >> (width - 1 - i)) & 1)));
    }
    return bits;
  };
  auto record = [&] {
    std::vector<Ciphertext> r;
    for (std::size_t j = 0; j < p.m; ++j) {
      r.push_back(enc(static_cast<int64_t>(
          rng.UniformUint64(static_cast<uint64_t>(p.max_value) + 1))));
    }
    return r;
  };
  const unsigned width = AugmentedBitWidth(p.l, p.secure_n);
  const uint64_t width_mask = (uint64_t{1} << width) - 1;

  // Each row: inputs drawn fresh per repetition, the call timed alone.
  struct Row {
    const char* name;
    int reps;
    std::function<std::function<Status(ProtoContext&)>()> make;
  };
  const std::vector<Row> rows = {
      {"sm", 10,
       [&] {
         std::vector<Ciphertext> a = {enc(rng.UniformUint64(100))};
         std::vector<Ciphertext> b = {enc(rng.UniformUint64(100))};
         return [a, b](ProtoContext& ctx) {
           return SecureMultiplyBatch(ctx, a, b).status();
         };
       }},
      {"ssed", 5,
       [&] {
         std::vector<std::vector<Ciphertext>> records = {record()};
         std::vector<Ciphertext> query = record();
         return [records, query](ProtoContext& ctx) {
           return SecureSquaredDistanceBatch(ctx, records, query).status();
         };
       }},
      {"sbd", 3,
       [&] {
         std::vector<Ciphertext> z = {
             enc(static_cast<int64_t>(rng.UniformUint64(uint64_t{1} << p.l)))};
         SbdOptions opts;
         opts.l = p.l;
         return [z, opts](ProtoContext& ctx) {
           return BitDecomposeBatch(ctx, z, opts).status();
         };
       }},
      {"smin", 3,
       [&] {
         std::vector<EncryptedBits> u = {
             enc_bits(rng.UniformUint64(UINT64_MAX) & width_mask, width)};
         std::vector<EncryptedBits> v = {
             enc_bits(rng.UniformUint64(UINT64_MAX) & width_mask, width)};
         return [u, v](ProtoContext& ctx) {
           return SecureMinBatch(ctx, u, v).status();
         };
       }},
      {"sminn", 1,
       [&] {
         std::vector<EncryptedBits> ds;
         for (std::size_t i = 0; i < p.secure_n; ++i) {
           ds.push_back(
               enc_bits(rng.UniformUint64(UINT64_MAX) & width_mask, width));
         }
         return [ds](ProtoContext& ctx) {
           return SecureMinN(ctx, ds).status();
         };
       }},
      {"sbor", 10,
       [&] {
         std::vector<Ciphertext> a = {enc(rng.UniformUint64(2))};
         std::vector<Ciphertext> b = {enc(rng.UniformUint64(2))};
         return [a, b](ProtoContext& ctx) {
           return SecureBitOrBatch(ctx, a, b).status();
         };
       }},
  };
  for (const Row& row : rows) {
    ScopedSpan span(tracer, std::string("proto.") + row.name);
    std::vector<double> seconds;
    TwoParty::Instance last;
    for (int r = 0; r < (p.smoke ? 1 : row.reps); ++r) {
      SKNN_ASSIGN_OR_RETURN(last, tp.Run(row.make()));
      seconds.push_back(last.seconds);
    }
    const std::string base = std::string("proto.") + row.name;
    if (std::string(row.name) == "sminn") {
      out->push_back({base + "_ms", Median(seconds) * 1e3, "ms"});
    } else {
      out->push_back({base + "_us", Median(seconds) * 1e6, "us"});
    }
    out->push_back({base + "_ops", static_cast<double>(last.ops), "count"});
    out->push_back(
        {base + "_frames", static_cast<double>(last.frames), "count"});
  }

  // SkNN_b's C2 round on its own: decrypt n distances, return the top k.
  {
    ScopedSpan span(tracer, "core.secure_topk_indices");
    std::vector<double> seconds;
    for (int r = 0; r < (p.smoke ? 1 : 3); ++r) {
      std::vector<Ciphertext> dists;
      for (std::size_t i = 0; i < p.basic_n; ++i) {
        dists.push_back(pk.Encrypt(
            BigInt(static_cast<int64_t>(rng.UniformUint64(uint64_t{1} << p.l))),
            rng));
      }
      SKNN_ASSIGN_OR_RETURN(TwoParty::Instance instance,
                            tp.Run([&](ProtoContext& ctx) {
                              return SecureTopKIndices(ctx, dists, p.basic_k)
                                  .status();
                            }));
      seconds.push_back(instance.seconds);
    }
    out->push_back({"core.secure_topk_indices_s", Median(seconds), "s"});
  }
  return Status::OK();
}

/// \brief Lays SkNN_m's phase timings end to end from `start` as children
/// of `parent` (the response carries durations, not timestamps).
inline void AddPhaseSpans(Tracer* tracer, uint64_t parent, double start,
                          const SkNNmBreakdown& b, uint64_t query) {
  if (tracer == nullptr) return;
  const std::pair<const char*, double> phases[] = {
      {"proto.ssed", b.ssed_seconds},       {"proto.sbd", b.sbd_seconds},
      {"proto.sminn", b.sminn_seconds},     {"core.extract", b.extract_seconds},
      {"proto.sbor", b.update_seconds},     {"core.mask_and_ship", b.finalize_seconds}};
  for (const auto& [name, seconds] : phases) {
    tracer->Add(name, parent, start, start + seconds, query);
    start += seconds;
  }
}

/// \brief Alice's attribute-wise encryption of `table` on four threads,
/// without a randomizer pool: the full price she pays once per table.
inline EncryptedDatabase EncryptTable(const PaillierPublicKey& pk,
                                      const PlainTable& table,
                                      unsigned distance_bits) {
  std::vector<BigInt> values;
  for (const PlainRecord& row : table) {
    for (int64_t v : row) values.emplace_back(v);
  }
  ThreadPool pool(4);
  const std::vector<Ciphertext> flat = pk.EncryptMany(values, &pool);
  EncryptedDatabase db;
  db.distance_bits = distance_bits;
  auto row = flat.begin();
  for (const PlainRecord& record : table) {
    const auto end = row + static_cast<std::ptrdiff_t>(record.size());
    db.records.emplace_back(row, end);
    row = end;
  }
  return db;
}

/// \brief An in-process engine over `table` (one C1 thread, one C2 thread,
/// default randomizer pools), returned once both pools are full.
inline Result<std::unique_ptr<SknnEngine>> SingleThreadEngine(
    const PaillierKeyPair& keys, const PlainTable& table, unsigned l) {
  EncryptedDatabase db = EncryptTable(keys.pk, table, l);
  SknnEngine::Options options;
  options.c1_threads = 1;
  options.c2_threads = 1;
  SKNN_ASSIGN_OR_RETURN(
      std::unique_ptr<SknnEngine> engine,
      SknnEngine::CreateFromParts(keys.pk, keys.sk, std::move(db), options));
  for (;;) {
    const SknnEngine::RandomizerPoolStats s = engine->randomizer_pool_stats();
    if (s.c1_stock == s.c1_capacity && s.c2_stock == s.c2_capacity) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return engine;
}

inline Status MeasureCore(const PaillierKeyPair& keys,
                          const std::map<unsigned, PaillierKeyPair>& bob_keys,
                          const CryptoCosts& costs,
                          const LayerParams& p, Tracer* tracer,
                          std::vector<Metric>* out) {
  ScopedSpan group(tracer, "core.k" + std::to_string(p.proto_bits));
  Random rng(p.seed + 13);
  auto uniform_table = [&](std::size_t n) {
    PlainTable t(n, PlainRecord(p.m));
    for (auto& row : t) {
      for (auto& v : row) {
        v = static_cast<int64_t>(
            rng.UniformUint64(static_cast<uint64_t>(p.max_value) + 1));
      }
    }
    return t;
  };

  struct Run {
    const char* name;
    QueryProtocol protocol;
    std::size_t n;
    unsigned k;
  };
  for (const Run& run : {Run{"secure", QueryProtocol::kSecure, p.secure_n,
                             p.secure_k},
                         Run{"basic", QueryProtocol::kBasic, p.basic_n,
                             p.basic_k}}) {
    const PlainTable table = uniform_table(run.n);
    std::unique_ptr<SknnEngine> engine;
    {
      ScopedSpan span(tracer, std::string("core.engine_setup_") + run.name);
      SKNN_ASSIGN_OR_RETURN(engine, SingleThreadEngine(keys, table, p.l));
    }
    QueryRequest request;
    request.record = uniform_table(1)[0];
    request.k = run.k;
    request.protocol = run.protocol;
    ScopedSpan span(tracer, std::string("core.query_") + run.name);
    const double start = tracer ? tracer->Now() : 0;
    Stopwatch sw;
    SKNN_ASSIGN_OR_RETURN(QueryResponse response, engine->Query(request));
    const double seconds = sw.ElapsedSeconds();
    if (response.records != PlainKnn(table, request.record, run.k)) {
      return Status::Internal(std::string("core.query_") + run.name +
                              ": answer differs from the plaintext oracle");
    }
    const std::string name = run.name;
    const double model = costs.Model(response.ops);
    out->push_back({"core.query_" + name + "_s", seconds, "s"});
    out->push_back({"core.query_" + name + "_model_s", model, "s"});
    out->push_back({"core.query_" + name + "_residual_frac",
                    (seconds - model) / seconds, "fraction"});
    if (run.protocol == QueryProtocol::kSecure) {
      const SkNNmBreakdown& b = response.breakdown;
      AddPhaseSpans(tracer, span.id(), start + response.bob_seconds, b, 0);
      out->push_back({"core.prepare_distance_bits_s",
                      b.ssed_seconds + b.sbd_seconds, "s"});
      out->push_back({"core.extract_topk_s",
                      b.sminn_seconds + b.extract_seconds + b.update_seconds,
                      "s"});
      out->push_back({"core.mask_and_ship_s", b.finalize_seconds, "s"});
      out->push_back({"core.secure_sminn_share",
                      b.sminn_seconds / b.total(), "fraction"});
    } else {
      out->push_back({"core.sknn_b_s", response.cloud_seconds, "s"});
    }
  }

  // Bob's own cost, at every key size: m unpooled encryptions, then k*m
  // modular subtractions.
  for (const auto& [bits, bob] : bob_keys) {
    const std::string suffix = "_k" + std::to_string(bits);
    ScopedSpan span(tracer, "core.bob" + suffix);
    QueryClient client(bob.pk);
    const PlainRecord query = uniform_table(1)[0];
    std::vector<BigInt> masks, masked;
    for (unsigned j = 0; j < p.basic_k * p.m; ++j) {
      BigInt r = rng.Below(bob.pk.n());
      masked.push_back(BigInt(static_cast<int64_t>(j % 26)).AddMod(r, bob.pk.n()));
      masks.push_back(std::move(r));
    }
    const int batches = p.smoke ? 1 : 5;
    out->push_back({"core.bob_encrypt_query_ms" + suffix,
                    MicrosPerOp(batches, p.smoke ? 1 : 3,
                                [&](int) { (void)client.EncryptQuery(query); }) /
                        1e3,
                    "ms"});
    out->push_back(
        {"core.bob_recover_records_ms" + suffix,
         MicrosPerOp(batches, p.smoke ? 1 : 50,
                     [&](int) {
                       (void)client.RecoverRecords(masked, masks, p.basic_k,
                                                   p.m);
                     }) /
             1e3,
         "ms"});
  }
  return Status::OK();
}

/// \brief Every per-layer row of the traced run except the per-workload
/// ones (those come from the served window). The per-op costs at the proto
/// key size are measured right before the in-process queries the cost
/// model compares them with, so that drift of the host between the two
/// stays small.
inline Status MeasureLayers(const LayerParams& p, Tracer* tracer,
                            std::vector<Metric>* out) {
  ScopedSpan group(tracer, "bench.layers");
  std::map<unsigned, PaillierKeyPair> keys;
  for (unsigned bits : p.crypto_bits) {
    SKNN_ASSIGN_OR_RETURN(keys[bits], SeededKeys(bits, p.seed));
  }
  if (!keys.count(p.proto_bits)) {
    SKNN_ASSIGN_OR_RETURN(keys[p.proto_bits], SeededKeys(p.proto_bits, p.seed));
  }
  const auto reported = [&p](unsigned bits) {
    return std::find(p.crypto_bits.begin(), p.crypto_bits.end(), bits) !=
           p.crypto_bits.end();
  };
  std::vector<Metric> unreported;  // crypto rows of a key size not listed
  auto bigint_and_crypto = [&](unsigned bits) {
    if (reported(bits)) MeasureBigInt(bits, keys.at(bits), p, tracer, out);
    return MeasureCrypto(bits, keys.at(bits), p, tracer,
                         reported(bits) ? out : &unreported);
  };
  for (const auto& [bits, pair] : keys) {
    if (bits != p.proto_bits) bigint_and_crypto(bits);
  }
  {
    TwoParty tp(keys.at(p.proto_bits));
    SKNN_RETURN_NOT_OK(MeasureProto(tp, p, tracer, out));
  }
  const CryptoCosts costs = bigint_and_crypto(p.proto_bits);
  std::map<unsigned, PaillierKeyPair> bob_keys;
  for (unsigned bits : p.crypto_bits) bob_keys[bits] = keys.at(bits);
  return MeasureCore(keys.at(p.proto_bits), bob_keys, costs, p, tracer, out);
}

}  // namespace bench
}  // namespace sknn

#endif  // SKNN_BENCH_SKNN_BENCH_LAYERS_H_
