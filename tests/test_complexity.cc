// Complexity-accounting tests — Section 4.4 made executable.
//
// The paper bounds each protocol in counts of Paillier encryptions,
// decryptions and exponentiations; the paper's negations (Epk(x)^(N-1))
// are counted here as inversions. These tests measure the actual counters
// and check the claimed growth laws *exactly*, using the fact that a
// function is linear iff its second differences vanish:
//   * SM / SBOR: constant ops per instance;
//   * secure squaring, SSED and SMIN at l = 17: exact counts;
//   * SSED: linear in m;  SBD: linear in l;  SMIN: linear in l;
//   * SMIN_n: exactly (n-1) SMINs worth of ops;
//   * SkNN_b: linear in n (at fixed m, k);
//   * SkNN_m: linear in k (at fixed n, m, l).
// Operation counts are randomness-independent (only *values* are random),
// so the comparisons are exact, not statistical.
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.h"
#include "crypto/op_counters.h"
#include "data/synthetic.h"
#include "proto/sbd.h"
#include "proto/sbor.h"
#include "proto/sm.h"
#include "proto/smin.h"
#include "proto/ssed.h"
#include "tests/proto_test_util.h"

namespace sknn {
namespace {

struct Ops {
  uint64_t enc, dec, exp, mul, inv;
  bool operator==(const Ops&) const = default;
};

Ops FromSnapshot(const OpSnapshot& s) {
  return {s.encryptions, s.decryptions, s.exponentiations, s.multiplications,
          s.inversions};
}

Ops Measure(const std::function<void()>& fn) {
  OpSnapshot before = OpCounters::Snapshot();
  fn();
  return FromSnapshot(OpCounters::Snapshot() - before);
}

Ops Scale(const Ops& o, uint64_t f) {
  return {o.enc * f, o.dec * f, o.exp * f, o.mul * f, o.inv * f};
}

Ops Diff(const Ops& a, const Ops& b) {
  return {a.enc - b.enc, a.dec - b.dec, a.exp - b.exp, a.mul - b.mul,
          a.inv - b.inv};
}

class ComplexityTest : public ::testing::Test {
 protected:
  TwoPartyHarness harness_;
  Random rng_{424242};

  std::vector<Ciphertext> EncryptMany(std::size_t count, int64_t bound) {
    std::vector<Ciphertext> out;
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(harness_.pk().Encrypt(
          BigInt(static_cast<int64_t>(rng_.UniformUint64(bound))), rng_));
    }
    return out;
  }
};

TEST_F(ComplexityTest, SmIsConstantPerInstance) {
  auto run = [&](std::size_t batch) {
    return Measure([&] {
      auto as = EncryptMany(batch, 100);
      auto bs = EncryptMany(batch, 100);
      OpSnapshot setup_excluded = OpCounters::Snapshot();
      (void)setup_excluded;
      ASSERT_TRUE(SecureMultiplyBatch(harness_.ctx(), as, bs).ok());
    });
  };
  // Setup encryptions scale with batch too, but both linearly: second
  // difference over batch sizes 2, 4, 6 must vanish.
  Ops o2 = run(2), o4 = run(4), o6 = run(6);
  EXPECT_EQ(Diff(o6, o4), Diff(o4, o2)) << "SM ops not linear in batch size";
  // And per instance: 4x the batch = 4x the ops.
  Ops o8 = run(8);
  EXPECT_EQ(Scale(Diff(o4, o2), 3), Diff(o8, o2));
}

// Exact per-instance costs of the squaring-based steps (docs/CRYPTO.md
// section 7); "ops" is encryptions + decryptions + exponentiations.
TEST_F(ComplexityTest, SquareCostsThreeEncOneDecOneExp) {
  for (uint64_t batch : {1u, 5u}) {
    auto as = EncryptMany(batch, 100);
    Ops sq = Measure([&] {
      ASSERT_TRUE(SecureSquareBatch(harness_.ctx(), as).ok());
    });
    // Blind + C2's re-encryption + Epk(-r^2); C2's decryption; Epk(a)^(2r).
    // The multiplications are the blinding Add and the two final Adds.
    EXPECT_EQ(sq, (Ops{3 * batch, batch, batch, 3 * batch, 0}))
        << "batch=" << batch;
  }
}

TEST_F(ComplexityTest, SsedCostsFiveOpsPerAttribute) {
  for (uint64_t m : {1u, 6u}) {
    auto x = EncryptMany(m, 50);
    auto y = EncryptMany(m, 50);
    Ops o = Measure([&] {
      ASSERT_TRUE(SecureSquaredDistance(harness_.ctx(), x, y).ok());
    });
    EXPECT_EQ(o.enc, 3 * m) << "m=" << m;
    EXPECT_EQ(o.dec, m) << "m=" << m;
    EXPECT_EQ(o.exp, m) << "m=" << m;
    EXPECT_EQ(o.enc + o.dec + o.exp, 5 * m) << "m=" << m;
    EXPECT_EQ(o.inv, m) << "m=" << m;  // the query, negated once
  }
}

TEST_F(ComplexityTest, PackedSsedCountsPerGroup) {
  // docs/CRYPTO.md section 10. m = 6 attributes in a 5-bit domain pack
  // into g = 2 groups of 3 slots at 512 bits and g = 1 group of 6 at 1024.
  // With load-time packs, per record: the blind, C2's reply and
  // Epk(-sum r^2) per group (3g enc), one decryption per group, and the m
  // strip powers; multiplications: m differences, g packed differences, g
  // blinds, m + g strip products and g - 1 group sums. Per call: the m
  // negations of the query and its Horner pack, m - g powers and as many
  // products. Packing costs m - g powers and products per record, paid
  // once at load or, without packs, on every call.
  const uint64_t m = 6;
  const unsigned w = 5;
  for (unsigned key_bits : {512u, 1024u}) {
    TwoPartyHarness harness(key_bits, 4600 + key_bits);
    const auto& pk = harness.pk();
    const uint64_t g = key_bits == 512 ? 2 : 1;
    ASSERT_EQ(SsedLayoutFor(pk.n(), w, m).Groups(m), g) << key_bits;
    const Ops per_record{3 * g, g, m, 2 * m + 4 * g - 1, 0};
    const Ops per_call{0, 0, m - g, m - g, m};
    const Ops per_pack{0, 0, m - g, m - g, 0};
    // Attribute j of record i is i + j, and the query is all 31s.
    auto row = [&](int64_t base) {
      std::vector<Ciphertext> out;
      for (uint64_t j = 0; j < m; ++j) {
        out.push_back(pk.Encrypt(BigInt(base + static_cast<int64_t>(j)), rng_));
      }
      return out;
    };
    const std::vector<Ciphertext> query(m, pk.Encrypt(BigInt(31), rng_));
    auto run = [&](std::size_t n, bool preloaded) {
      std::vector<std::vector<Ciphertext>> records;
      for (std::size_t i = 0; i < n; ++i) {
        records.push_back(row(static_cast<int64_t>(i)));
      }
      std::vector<std::vector<Ciphertext>> packs;
      const Ops pack = Measure([&] {
        if (preloaded) packs = PackSsedRecords(pk, records, w, nullptr);
      });
      Result<std::vector<Ciphertext>> out = Status::Internal("not run");
      const Ops call = Measure([&] {
        out = SecureSquaredDistanceBatch(harness.ctx(), records, query, w,
                                         preloaded ? &packs : nullptr);
      });
      EXPECT_TRUE(out.ok()) << out.status();
      for (std::size_t i = 0; out.ok() && i < n; ++i) {
        int64_t expected = 0;
        for (uint64_t j = 0; j < m; ++j) {
          const int64_t d = static_cast<int64_t>(i + j) - 31;
          expected += d * d;
        }
        EXPECT_EQ(harness.Decrypt((*out)[i]), BigInt(expected)) << key_bits;
      }
      return std::make_pair(pack, call);
    };
    const auto [pack1, call1] = run(1, true);
    const auto [pack3, call3] = run(3, true);
    EXPECT_EQ(Diff(call3, call1), Scale(per_record, 2)) << key_bits;
    EXPECT_EQ(Diff(call1, per_record), per_call) << key_bits;
    EXPECT_EQ(pack1, per_pack) << key_bits;
    EXPECT_EQ(pack3, Scale(per_pack, 3)) << key_bits;
    // Without packs every call pays the pack powers itself.
    const auto [no_pack, unpacked3] = run(3, false);
    EXPECT_EQ(no_pack, Ops{}) << key_bits;
    EXPECT_EQ(Diff(unpacked3, call3), Scale(per_pack, 3)) << key_bits;
  }
}

TEST_F(ComplexityTest, SminAtSeventeenBitsCosts189Ops) {
  // Per bit: the square (3 enc, 1 dec, 1 exp), Gamma's blind, Phi's
  // Epk(-1), L's exponentiation, C2's decryption of L' and re-encryption
  // of Gamma', and phase 3's lambda exponentiation: 11 ops. Per SMIN: H_0
  // and C2's Epk(alpha). 11 * 17 + 2 = 189.
  const unsigned l = 17;
  auto u = harness_.EncryptBits(0x0B00D, l);
  auto v = harness_.EncryptBits(0x0BEEF, l);
  Ops o = Measure([&] { ASSERT_TRUE(SecureMin(harness_.ctx(), u, v).ok()); });
  EXPECT_EQ(o.enc, 6u * l + 2);
  EXPECT_EQ(o.dec, 2u * l);
  EXPECT_EQ(o.exp, 3u * l);
  EXPECT_EQ(o.enc + o.dec + o.exp, 189u);
  EXPECT_EQ(o.inv, l);  // one Sub per bit, for the difference
}

TEST_F(ComplexityTest, SborIsOneSmPlusConstant) {
  auto as = EncryptMany(3, 2);
  auto bs = EncryptMany(3, 2);
  Ops sbor = Measure([&] {
    ASSERT_TRUE(SecureBitOrBatch(harness_.ctx(), as, bs).ok());
  });
  Ops sm = Measure([&] {
    ASSERT_TRUE(SecureMultiplyBatch(harness_.ctx(), as, bs).ok());
  });
  // SBOR = SM + 2 homomorphic multiplications (Add, Sub incl. Negate).
  EXPECT_EQ(sbor.enc, sm.enc);
  EXPECT_EQ(sbor.dec, sm.dec);
  EXPECT_EQ(sbor.exp, sm.exp);
  EXPECT_EQ(sbor.inv, sm.inv + 3);  // Negate inside Sub is one inv per item
  EXPECT_EQ(sbor.mul, sm.mul + 2 * 3);
}

TEST_F(ComplexityTest, SsedIsLinearInM) {
  auto run = [&](std::size_t m) {
    auto x = EncryptMany(m, 50);
    auto y = EncryptMany(m, 50);
    return Measure([&] {
      ASSERT_TRUE(SecureSquaredDistance(harness_.ctx(), x, y).ok());
    });
  };
  Ops o2 = run(2), o4 = run(4), o6 = run(6);
  EXPECT_EQ(Diff(o6, o4), Diff(o4, o2)) << "SSED ops not linear in m";
}

TEST_F(ComplexityTest, SbdIsLinearInL) {
  Ciphertext z = harness_.pk().Encrypt(BigInt(3), rng_);
  auto run = [&](unsigned l) {
    SbdOptions opts;
    opts.l = l;
    return Measure(
        [&] { ASSERT_TRUE(BitDecompose(harness_.ctx(), z, opts).ok()); });
  };
  Ops o4 = run(4), o8 = run(8), o12 = run(12);
  EXPECT_EQ(Diff(o12, o8), Diff(o8, o4)) << "SBD ops not linear in l";
}

TEST_F(ComplexityTest, SminIsLinearInL) {
  auto run = [&](unsigned l) {
    auto u = harness_.EncryptBits(1, l);
    auto v = harness_.EncryptBits(2 % (1u << l), l);
    return Measure(
        [&] { ASSERT_TRUE(SecureMin(harness_.ctx(), u, v).ok()); });
  };
  Ops o4 = run(4), o8 = run(8), o12 = run(12);
  EXPECT_EQ(Diff(o12, o8), Diff(o8, o4)) << "SMIN ops not linear in l";
}

TEST_F(ComplexityTest, SminNCostsExactlyNMinusOneSmins) {
  const unsigned l = 5;
  auto run = [&](std::size_t n) {
    std::vector<EncryptedBits> ds;
    for (std::size_t i = 0; i < n; ++i) {
      ds.push_back(harness_.EncryptBits(i % (1u << l), l));
    }
    return Measure(
        [&] { ASSERT_TRUE(SecureMinN(harness_.ctx(), ds).ok()); });
  };
  // n-1 SMINs: 4 for n=5, 8 for n=9 -> exactly double the ops.
  Ops o5 = run(5), o9 = run(9);
  Ops per_smin = {o5.enc / 4, o5.dec / 4, o5.exp / 4, o5.mul / 4,
                  o5.inv / 4};
  EXPECT_EQ(Scale(per_smin, 4), o5) << "SMIN_n(5) not a multiple of 4 SMINs";
  EXPECT_EQ(Scale(per_smin, 8), o9) << "SMIN_n(9) != 8 SMINs worth of ops";
}

TEST_F(ComplexityTest, PaperBoundForSkNNm) {
  // Section 4.4: SkNN_m is O(n * (l + m + k*l*log2 n)) encryptions and
  // exponentiations. Check the measured counts against the explicit bound
  // with a generous constant; the paper's exponentiations are our
  // exponentiations plus inversions (its negations).
  const std::size_t n = 8, m = 3;
  const unsigned k = 2;
  PlainTable table = GenerateUniformTable(n, m, 3, 5);
  SknnEngine::Options opts;
  opts.key_bits = 256;
  opts.attr_bits = 2;
  auto engine = SknnEngine::Create(table, opts);
  ASSERT_TRUE(engine.ok());
  const unsigned l = (*engine)->distance_bits();
  QueryRequest request;
  request.record = {1, 1, 1};
  request.k = k;
  request.protocol = QueryProtocol::kSecure;
  auto result = (*engine)->Query(request);
  ASSERT_TRUE(result.ok());
  const double bound =
      static_cast<double>(n) *
      (l + m + static_cast<double>(k) * l * std::log2(double(n)));
  const double kConstant = 40.0;  // generous per-unit constant
  EXPECT_LT(static_cast<double>(result->ops.encryptions), kConstant * bound);
  EXPECT_GT(result->ops.inversions, 0u);
  EXPECT_LT(static_cast<double>(result->ops.exponentiations +
                                result->ops.inversions),
            kConstant * bound);
}

TEST_F(ComplexityTest, SkNNmRoundCountIsIndependentOfNPerStage) {
  // With one message per protocol stage, one SkNN_m query
  // exchanges O(l + k*l) C1->C2 messages — NOT O(n*l). The exact count,
  // from the per-query QueryMeter (frames_to_c2 == frames_from_c2, each
  // exchange is one round trip):
  //   SSED            1                  (one fused SM stage)
  //   SBD             l                  (one kLsbShiftVec per bit)
  //   per iteration   2*ceil(log2 n)     (SMIN_n tournament: SM + phase2
  //                                       per level)
  //                   + 1                (min pointer)
  //                   + 1                (record-extraction SM)
  //   finalize        1                  (masked ship to Bob)
  //                   + 2                (Bob-outbox and op-ledger fetches)
  // Since n <= 2^l here, ceil(log2 n) <= l and the whole query is <= the
  // paper-shaped bound 1 + l + k*(2*l + 2) + 3 — and independent of n per
  // stage (doubling n adds at most one tournament level per iteration).
  unsigned l = 0;
  auto frames_for = [&](std::size_t n, unsigned k) -> uint64_t {
    PlainTable table = GenerateUniformTable(n, 2, 3, 99);
    SknnEngine::Options opts;
    opts.key_bits = 256;
    opts.attr_bits = 2;
    opts.c1_threads = 4;  // fan-out must not multiply the message count
    opts.c2_threads = 4;
    auto engine = SknnEngine::Create(table, opts);
    EXPECT_TRUE(engine.ok()) << engine.status();
    l = (*engine)->distance_bits();
    QueryRequest request;
    request.record = {1, 1};
    request.k = k;
    request.protocol = QueryProtocol::kSecure;
    auto result = (*engine)->Query(request);
    EXPECT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->traffic.frames_a_to_b, result->traffic.frames_b_to_a);
    return result->traffic.frames_a_to_b;
  };

  auto exact = [&](std::size_t n, unsigned k) -> uint64_t {
    uint64_t levels = static_cast<uint64_t>(std::ceil(std::log2(double(n))));
    return 1 + l + k * (2 * levels + 2) + 1 + 2;
  };
  for (auto [n, k] : std::vector<std::pair<std::size_t, unsigned>>{
           {8, 1}, {8, 2}, {16, 2}}) {
    uint64_t frames = frames_for(n, k);
    ASSERT_GE(l, 4u);  // sanity: log2(n) <= l must hold for the O-bound
    EXPECT_EQ(frames, exact(n, k)) << "n=" << n << " k=" << k;
    // The O(l + k*l) law itself (would be wildly exceeded by O(n*l)).
    EXPECT_LE(frames, 2 * (l + uint64_t{k} * l) + 4) << "n=" << n;
  }
  // Doubling n must cost at most one extra tournament level (2 rounds) per
  // iteration — the signature of O(k log n), not O(n).
  EXPECT_LE(frames_for(16, 2) - frames_for(8, 2), 2u * 2u);
}

TEST_F(ComplexityTest, SkNNbOpsLinearInN) {
  const std::size_t m = 3;
  auto run = [&](std::size_t n) {
    PlainTable table = GenerateUniformTable(n, m, 3, n);
    SknnEngine::Options opts;
    opts.key_bits = 256;
    opts.attr_bits = 2;
    auto engine = SknnEngine::Create(table, opts);
    EXPECT_TRUE(engine.ok());
    QueryRequest request;
    request.record = {1, 2, 3};
    request.k = 2;
    request.protocol = QueryProtocol::kBasic;
    auto result = (*engine)->Query(request);
    EXPECT_TRUE(result.ok());
    return FromSnapshot(result->ops);
  };
  Ops o4 = run(4), o8 = run(8), o12 = run(12);
  EXPECT_EQ(Diff(o12, o8), Diff(o8, o4)) << "SkNN_b ops not linear in n";
}

TEST_F(ComplexityTest, SkNNmOpsLinearInK) {
  const std::size_t n = 6, m = 2;
  PlainTable table = GenerateUniformTable(n, m, 3, 77);
  SknnEngine::Options opts;
  opts.key_bits = 256;
  opts.attr_bits = 2;
  auto engine = SknnEngine::Create(table, opts);
  ASSERT_TRUE(engine.ok());
  auto run = [&](unsigned k) {
    QueryRequest request;
    request.record = {1, 1};
    request.k = k;
    request.protocol = QueryProtocol::kSecure;
    auto result = (*engine)->Query(request);
    EXPECT_TRUE(result.ok());
    return FromSnapshot(result->ops);
  };
  // Iterations 2..k are identical in op count; iteration k skips the flag
  // update, so compare k in {2,3,4}: second difference of the *middle*
  // iterations vanishes.
  Ops o2 = run(2), o3 = run(3), o4 = run(4);
  EXPECT_EQ(Diff(o4, o3), Diff(o3, o2)) << "SkNN_m ops not linear in k";
}

}  // namespace
}  // namespace sknn
