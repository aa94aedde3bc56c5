// Tests for the interactive primitives SM, secure squaring, SSED and SBOR
// against plaintext references, including the paper's worked examples
// (Example 2 and Example 3) and randomized property sweeps.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "proto/sbor.h"
#include "proto/sm.h"
#include "proto/ssed.h"
#include "tests/proto_test_util.h"

namespace sknn {
namespace {

class PrimitiveTest : public ::testing::Test {
 protected:
  TwoPartyHarness harness_;
  Random rng_{123};
};

TEST_F(PrimitiveTest, SmMultipliesSmallValues) {
  const auto& pk = harness_.pk();
  auto result = SecureMultiply(harness_.ctx(), pk.Encrypt(BigInt(6), rng_),
                               pk.Encrypt(BigInt(7), rng_));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(harness_.Decrypt(*result), BigInt(42));
}

TEST_F(PrimitiveTest, SmPaperExample2) {
  // Example 2: a = 59, b = 58 -> Epk(3422).
  const auto& pk = harness_.pk();
  auto result = SecureMultiply(harness_.ctx(), pk.Encrypt(BigInt(59), rng_),
                               pk.Encrypt(BigInt(58), rng_));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(harness_.Decrypt(*result), BigInt(3422));
}

TEST_F(PrimitiveTest, SmHandlesZeroOperands) {
  const auto& pk = harness_.pk();
  for (auto [a, b] : {std::pair<int, int>{0, 5}, {5, 0}, {0, 0}}) {
    auto result = SecureMultiply(harness_.ctx(), pk.Encrypt(BigInt(a), rng_),
                                 pk.Encrypt(BigInt(b), rng_));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(harness_.Decrypt(*result), BigInt(a * b));
  }
}

TEST_F(PrimitiveTest, SmWorksOnNegativeResidues) {
  // (-3) * 4 = -12 under Z_N encoding.
  const auto& pk = harness_.pk();
  Ciphertext minus3 = pk.Encrypt(pk.n() - BigInt(3), rng_);
  auto result =
      SecureMultiply(harness_.ctx(), minus3, pk.Encrypt(BigInt(4), rng_));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(harness_.DecryptSigned(*result), BigInt(-12));
}

TEST_F(PrimitiveTest, SmBatchMatchesElementwise) {
  const auto& pk = harness_.pk();
  std::vector<Ciphertext> as, bs;
  std::vector<int64_t> expected;
  for (int i = 0; i < 17; ++i) {
    int64_t a = static_cast<int64_t>(rng_.UniformUint64(1000));
    int64_t b = static_cast<int64_t>(rng_.UniformUint64(1000));
    as.push_back(pk.Encrypt(BigInt(a), rng_));
    bs.push_back(pk.Encrypt(BigInt(b), rng_));
    expected.push_back(a * b);
  }
  auto result = SecureMultiplyBatch(harness_.ctx(), as, bs);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(harness_.Decrypt((*result)[i]), BigInt(expected[i])) << i;
  }
}

TEST_F(PrimitiveTest, SmBatchRejectsLengthMismatch) {
  const auto& pk = harness_.pk();
  std::vector<Ciphertext> as = {pk.Encrypt(BigInt(1), rng_)};
  std::vector<Ciphertext> bs;
  EXPECT_FALSE(SecureMultiplyBatch(harness_.ctx(), as, bs).ok());
}

TEST_F(PrimitiveTest, SmEmptyBatchIsNoop) {
  auto result = SecureMultiplyBatch(harness_.ctx(), {}, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST_F(PrimitiveTest, SqSquaresEdgeResidues) {
  // 0 and 1 are their own squares; N-1 = -1 squares to 1; (N-1)/2 is the
  // largest "positive" signed residue, so its square wraps mod N.
  const auto& pk = harness_.pk();
  const BigInt& n = pk.n();
  const std::vector<BigInt> values = {BigInt(0), BigInt(1), n - BigInt(1),
                                      (n - BigInt(1)) / BigInt(2),
                                      rng_.Below(n)};
  for (const BigInt& a : values) {
    auto result = SecureSquareBatch(harness_.ctx(), {pk.Encrypt(a, rng_)});
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->size(), 1u);
    EXPECT_EQ(harness_.Decrypt((*result)[0]), a.MulMod(a, n)) << a;
  }
}

TEST_F(PrimitiveTest, SqBatchMatchesElementwise) {
  const auto& pk = harness_.pk();
  const BigInt& n = pk.n();
  std::vector<BigInt> values = {BigInt(0), BigInt(1), n - BigInt(1),
                                (n - BigInt(1)) / BigInt(2)};
  for (int i = 0; i < 13; ++i) values.push_back(rng_.Below(n));
  std::vector<Ciphertext> eas;
  for (const BigInt& a : values) eas.push_back(pk.Encrypt(a, rng_));
  auto batch = SecureSquareBatch(harness_.ctx(), eas);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    auto alone = SecureSquareBatch(harness_.ctx(), {eas[i]});
    ASSERT_TRUE(alone.ok()) << alone.status();
    const BigInt expected = values[i].MulMod(values[i], n);
    EXPECT_EQ(harness_.Decrypt((*batch)[i]), expected) << i;
    EXPECT_EQ(harness_.Decrypt((*alone)[0]), expected) << i;
  }
}

TEST_F(PrimitiveTest, SqEmptyBatchIsNoop) {
  auto result = SecureSquareBatch(harness_.ctx(), {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST_F(PrimitiveTest, SsedPaperExample3) {
  // Example 3: records t1 and t2 of Table 1 -> squared distance 813.
  const auto& pk = harness_.pk();
  std::vector<int64_t> t1 = {63, 1, 1, 145, 233, 1, 3, 0, 6, 0};
  std::vector<int64_t> t2 = {56, 1, 3, 130, 256, 1, 2, 1, 6, 2};
  std::vector<Ciphertext> ex, ey;
  for (std::size_t i = 0; i < t1.size(); ++i) {
    ex.push_back(pk.Encrypt(BigInt(t1[i]), rng_));
    ey.push_back(pk.Encrypt(BigInt(t2[i]), rng_));
  }
  auto result = SecureSquaredDistance(harness_.ctx(), ex, ey);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(harness_.Decrypt(*result), BigInt(813));
}

TEST_F(PrimitiveTest, SsedZeroDistanceForIdenticalVectors) {
  const auto& pk = harness_.pk();
  std::vector<Ciphertext> ex, ey;
  for (int64_t v : {3, 1, 4, 1, 5}) {
    ex.push_back(pk.Encrypt(BigInt(v), rng_));
    ey.push_back(pk.Encrypt(BigInt(v), rng_));
  }
  auto result = SecureSquaredDistance(harness_.ctx(), ex, ey);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(harness_.Decrypt(*result).IsZero());
}

TEST_F(PrimitiveTest, SsedBatchMatchesPlaintext) {
  const auto& pk = harness_.pk();
  const std::size_t n = 9, m = 4;
  std::vector<std::vector<int64_t>> records(n, std::vector<int64_t>(m));
  std::vector<int64_t> query(m);
  for (auto& r : records) {
    for (auto& v : r) v = static_cast<int64_t>(rng_.UniformUint64(50));
  }
  for (auto& v : query) v = static_cast<int64_t>(rng_.UniformUint64(50));

  std::vector<std::vector<Ciphertext>> enc_records(n);
  std::vector<Ciphertext> enc_query;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      enc_records[i].push_back(pk.Encrypt(BigInt(records[i][j]), rng_));
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    enc_query.push_back(pk.Encrypt(BigInt(query[j]), rng_));
  }

  auto result =
      SecureSquaredDistanceBatch(harness_.ctx(), enc_records, enc_query);
  ASSERT_TRUE(result.ok());
  for (std::size_t i = 0; i < n; ++i) {
    int64_t expected = 0;
    for (std::size_t j = 0; j < m; ++j) {
      int64_t d = records[i][j] - query[j];
      expected += d * d;
    }
    EXPECT_EQ(harness_.Decrypt((*result)[i]), BigInt(expected)) << i;
  }
}

// Packed SSED (docs/CRYPTO.md section 10) at 512 bits: a 5-bit domain
// fits three 134-bit slots per plaintext, so m = 7 splits into groups of
// 3, 3 and 1. Records at the domain's corners and random ones, against a
// query at each corner and a random one; with load-time packs and with
// packs made per call, without and with a C1 pool.
TEST(PackedSsedTest, MatchesPlaintextAtTheDomainCorners) {
  const unsigned w = 5;
  const std::size_t m = 7;
  const int64_t top = (int64_t{1} << w) - 1;
  Random rng(4500);
  std::vector<std::vector<int64_t>> rows = {
      std::vector<int64_t>(m, 0), std::vector<int64_t>(m, top),
      {0, top, 0, top, 0, top, 0}, {top, 0, top, 0, top, 0, top}};
  for (int i = 0; i < 3; ++i) {
    std::vector<int64_t> row(m);
    for (auto& v : row) v = static_cast<int64_t>(rng.UniformUint64(top + 1));
    rows.push_back(row);
  }
  for (std::size_t c1_threads : {std::size_t{1}, std::size_t{3}}) {
    TwoPartyHarness harness(512, 4501, c1_threads);
    harness.c2().set_record_views(true);
    const auto& pk = harness.pk();
    const SlotLayout layout = SsedLayoutFor(pk.n(), w, m);
    ASSERT_EQ(layout.slot_bits, w + kBlindStatisticalBits + 1);
    ASSERT_EQ(layout.slots, 3u);
    ASSERT_EQ(layout.Groups(m), 3u);
    std::vector<std::vector<Ciphertext>> records;
    for (const auto& row : rows) {
      std::vector<Ciphertext> enc;
      for (int64_t v : row) enc.push_back(pk.Encrypt(BigInt(v), rng));
      records.push_back(std::move(enc));
    }
    const auto packs = PackSsedRecords(pk, records, w, harness.ctx().pool());
    ASSERT_EQ(packs.size(), rows.size());
    for (std::size_t q = 0; q < 3; ++q) {
      const std::vector<int64_t>& query = rows[q == 2 ? rows.size() - 1 : q];
      std::vector<Ciphertext> enc_query;
      for (int64_t v : query) enc_query.push_back(pk.Encrypt(BigInt(v), rng));
      for (bool preloaded : {true, false}) {
        auto result = SecureSquaredDistanceBatch(
            harness.ctx(), records, enc_query, w,
            preloaded ? &packs : nullptr);
        ASSERT_TRUE(result.ok()) << result.status();
        for (std::size_t i = 0; i < rows.size(); ++i) {
          int64_t expected = 0;
          for (std::size_t j = 0; j < m; ++j) {
            expected += (rows[i][j] - query[j]) * (rows[i][j] - query[j]);
          }
          EXPECT_EQ(harness.Decrypt((*result)[i]), BigInt(expected))
              << "record " << i << " query " << q;
        }
        // One view per slot, record-major: a live slot lies in (0, 2^s),
        // the two empty slots of the last group read 0.
        std::size_t index = 0;
        const BigInt slot_bound = BigInt::PowerOfTwo(layout.slot_bits);
        for (const C2View& view : harness.c2().TakeViews()) {
          ASSERT_EQ(view.op, Op::kSqSumVec);
          const std::size_t attribute = index % (3 * layout.slots);
          if (attribute < m) {
            EXPECT_TRUE(view.plaintext > BigInt(0) &&
                        view.plaintext < slot_bound)
                << "view " << index << ": " << view.plaintext;
          } else {
            EXPECT_TRUE(view.plaintext.IsZero()) << "view " << index;
          }
          ++index;
        }
        EXPECT_EQ(index, rows.size() * 3 * layout.slots);
      }
    }
  }
}

TEST(PackedSsedTest, OutOfDomainAttributeCorruptsOnlyItsRecord) {
  // Record 0 breaks the 5-bit promise by 2^140: its slot borrows into its
  // neighbour. The other records share its query and its round trip and
  // still come back exact.
  TwoPartyHarness harness(512, 4502);
  const auto& pk = harness.pk();
  Random rng(4503);
  const unsigned w = 5;
  std::vector<std::vector<Ciphertext>> records;
  const std::vector<std::vector<int64_t>> rows = {
      {0, 0, 0}, {1, 2, 3}, {31, 0, 31}, {4, 4, 4}};
  for (const auto& row : rows) {
    std::vector<Ciphertext> enc;
    for (int64_t v : row) enc.push_back(pk.Encrypt(BigInt(v), rng));
    records.push_back(std::move(enc));
  }
  records[0][1] = pk.Encrypt(BigInt::PowerOfTwo(140), rng);
  const std::vector<int64_t> query = {2, 9, 30};
  std::vector<Ciphertext> enc_query;
  for (int64_t v : query) enc_query.push_back(pk.Encrypt(BigInt(v), rng));
  auto result =
      SecureSquaredDistanceBatch(harness.ctx(), records, enc_query, w);
  ASSERT_TRUE(result.ok()) << result.status();
  for (std::size_t i = 1; i < rows.size(); ++i) {
    int64_t expected = 0;
    for (std::size_t j = 0; j < query.size(); ++j) {
      expected += (rows[i][j] - query[j]) * (rows[i][j] - query[j]);
    }
    EXPECT_EQ(harness.Decrypt((*result)[i]), BigInt(expected)) << i;
  }
}

TEST_F(PrimitiveTest, SsedRejectsDimensionMismatch) {
  const auto& pk = harness_.pk();
  std::vector<Ciphertext> ex = {pk.Encrypt(BigInt(1), rng_)};
  std::vector<Ciphertext> ey = {pk.Encrypt(BigInt(1), rng_),
                                pk.Encrypt(BigInt(2), rng_)};
  EXPECT_FALSE(SecureSquaredDistance(harness_.ctx(), ex, ey).ok());
}

TEST_F(PrimitiveTest, SborTruthTable) {
  const auto& pk = harness_.pk();
  for (int o1 : {0, 1}) {
    for (int o2 : {0, 1}) {
      auto result =
          SecureBitOr(harness_.ctx(), pk.Encrypt(BigInt(o1), rng_),
                      pk.Encrypt(BigInt(o2), rng_));
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(harness_.Decrypt(*result), BigInt(o1 | o2))
          << o1 << " OR " << o2;
    }
  }
}

TEST_F(PrimitiveTest, SborBatch) {
  const auto& pk = harness_.pk();
  std::vector<Ciphertext> o1s, o2s;
  std::vector<int> expected;
  for (int i = 0; i < 16; ++i) {
    int a = (i >> 1) & 1, b = i & 1;
    o1s.push_back(pk.Encrypt(BigInt(a), rng_));
    o2s.push_back(pk.Encrypt(BigInt(b), rng_));
    expected.push_back(a | b);
  }
  auto result = SecureBitOrBatch(harness_.ctx(), o1s, o2s);
  ASSERT_TRUE(result.ok());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(harness_.Decrypt((*result)[i]), BigInt(expected[i])) << i;
  }
}

// Property sweep: SM over random residue pairs at several key sizes.
class SmProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, uint64_t>> {};

TEST_P(SmProperty, MatchesModularProduct) {
  auto [key_bits, seed] = GetParam();
  TwoPartyHarness harness(key_bits, seed);
  Random rng(seed + 1);
  const auto& pk = harness.pk();
  const BigInt& n = pk.n();
  std::vector<Ciphertext> as, bs;
  std::vector<BigInt> expected;
  for (int i = 0; i < 8; ++i) {
    BigInt a = rng.Below(n), b = rng.Below(n);
    as.push_back(pk.Encrypt(a, rng));
    bs.push_back(pk.Encrypt(b, rng));
    expected.push_back(a.MulMod(b, n));
  }
  auto result = SecureMultiplyBatch(harness.ctx(), as, bs);
  ASSERT_TRUE(result.ok());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(harness.Decrypt((*result)[i]), expected[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KeySizesAndSeeds, SmProperty,
    ::testing::Combine(::testing::Values(128u, 256u, 512u),
                       ::testing::Values(1u, 2u)));

// Short additive blinds (proto/sm.h; docs/CRYPTO.md section 9).

// The plaintexts C2 decrypted for `op` since the last drain.
std::vector<BigInt> TakeViews(TwoPartyHarness& harness, Op op) {
  std::vector<BigInt> out;
  for (const C2View& view : harness.c2().TakeViews()) {
    if (view.op == op) out.push_back(view.plaintext);
  }
  return out;
}

// A short blind's view: N - v = r - a with 0 < r - a < 2^(w + kappa + 2).
bool InShortWindow(const BigInt& view, const BigInt& n, unsigned w) {
  const BigInt below_n = n - view;
  return below_n > BigInt(0) &&
         below_n < BigInt::PowerOfTwo(w + kBlindStatisticalBits + 2);
}

// A full-width blind's view: at least 2^(bits(N) - 32) away from both 0 and
// N, which a uniform residue misses with probability below 2^-30.
bool LooksFullWidth(const BigInt& view, const BigInt& n) {
  const BigInt margin = BigInt::PowerOfTwo(
      static_cast<unsigned>(n.BitLength()) - 32);
  return view >= margin && n - view >= margin;
}

class ShortBlindTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ShortBlindTest, SquaresMatchOracleWithViewsInTheWindow) {
  TwoPartyHarness harness(GetParam(), 4100 + GetParam());
  harness.c2().set_record_views(true);
  Random rng(41);
  const auto& pk = harness.pk();
  for (unsigned w : {1u, 5u, 13u}) {
    const int64_t top = (int64_t{1} << w) - 1;
    const std::vector<int64_t> values = {-top, -1, 0, 1, top};
    std::vector<Ciphertext> eas;
    for (int64_t a : values) eas.push_back(pk.Encrypt(BigInt(a), rng));
    auto result = SecureSquareBatch(harness.ctx(), eas, w);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(harness.Decrypt((*result)[i]), BigInt(values[i] * values[i]))
          << "w=" << w << " a=" << values[i];
    }
    const std::vector<BigInt> views = TakeViews(harness, Op::kSqVec);
    ASSERT_EQ(views.size(), values.size());
    for (const BigInt& v : views) {
      EXPECT_TRUE(InShortWindow(v, pk.n(), w)) << "w=" << w << " view " << v;
    }
  }
}

TEST_P(ShortBlindTest, BitTimesAttributeMatchesOracleWithViewsInTheWindow) {
  TwoPartyHarness harness(GetParam(), 4200 + GetParam());
  harness.c2().set_record_views(true);
  Random rng(42);
  const auto& pk = harness.pk();
  for (unsigned w : {1u, 5u, 13u}) {
    const int64_t top = (int64_t{1} << w) - 1;
    std::vector<Ciphertext> bits, attrs;
    std::vector<int64_t> expected;
    for (int64_t bit : {0, 1}) {
      for (int64_t attr : {int64_t{0}, int64_t{1}, top,
                           static_cast<int64_t>(rng.UniformUint64(top + 1))}) {
        bits.push_back(pk.Encrypt(BigInt(bit), rng));
        attrs.push_back(pk.Encrypt(BigInt(attr), rng));
        expected.push_back(bit * attr);
      }
    }
    auto result = SecureMultiplyBatch(harness.ctx(), bits, attrs, w);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(harness.Decrypt((*result)[i]), BigInt(expected[i]))
          << "w=" << w << " i=" << i;
    }
    const std::vector<BigInt> views = TakeViews(harness, Op::kSmVec);
    ASSERT_EQ(views.size(), 2 * expected.size());
    for (const BigInt& v : views) {
      EXPECT_TRUE(InShortWindow(v, pk.n(), w)) << "w=" << w << " view " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(KeySizes, ShortBlindTest,
                         ::testing::Values(256u, 512u));

TEST(ShortBlindViewTest, RepeatedCallsShowFreshViews) {
  // One ciphertext squared and multiplied 16 times: every blind is fresh,
  // so C2 never sees a view twice.
  TwoPartyHarness harness(256, 4300);
  harness.c2().set_record_views(true);
  Random rng(43);
  const auto& pk = harness.pk();
  const Ciphertext ea = pk.Encrypt(BigInt(3), rng);
  const Ciphertext eb = pk.Encrypt(BigInt(1), rng);
  std::set<std::string> squares, products;
  for (int run = 0; run < 16; ++run) {
    ASSERT_TRUE(SecureSquareBatch(harness.ctx(), {ea}, 5).ok());
    ASSERT_TRUE(SecureMultiplyBatch(harness.ctx(), {ea}, {eb}, 5).ok());
    for (const C2View& view : harness.c2().TakeViews()) {
      EXPECT_TRUE(InShortWindow(view.plaintext, pk.n(), 5));
      (view.op == Op::kSqVec ? squares : products)
          .insert(view.plaintext.ToString());
    }
  }
  EXPECT_EQ(squares.size(), 16u);
  EXPECT_EQ(products.size(), 32u);
}

TEST(ShortBlindViewTest, KeyTooShortForTheWindowBlindsFullWidth) {
  // 5 + kappa + 2 bits do not fit a 128-bit N: the blinds fall back to
  // uniform on Z_N and the results stay exact.
  TwoPartyHarness harness(128, 4400);
  harness.c2().set_record_views(true);
  Random rng(44);
  const auto& pk = harness.pk();
  const std::vector<int64_t> values = {-31, -1, 0, 1, 31};
  std::vector<Ciphertext> eas;
  for (int64_t a : values) eas.push_back(pk.Encrypt(BigInt(a), rng));
  auto squares = SecureSquareBatch(harness.ctx(), eas, 5);
  ASSERT_TRUE(squares.ok()) << squares.status();
  auto products = SecureMultiplyBatch(harness.ctx(), eas, eas, 5);
  ASSERT_TRUE(products.ok()) << products.status();
  for (std::size_t i = 0; i < values.size(); ++i) {
    const BigInt expected(values[i] * values[i]);
    EXPECT_EQ(harness.Decrypt((*squares)[i]), expected) << values[i];
    EXPECT_EQ(harness.Decrypt((*products)[i]), expected) << values[i];
  }
  const std::vector<C2View> views = harness.c2().TakeViews();
  EXPECT_EQ(views.size(), 3 * values.size());
  for (const C2View& view : views) {
    EXPECT_TRUE(LooksFullWidth(view.plaintext, pk.n())) << view.plaintext;
  }
}

TEST(ShortBlindViewTest, DefaultOperandBitsBlindFullWidth) {
  TwoPartyHarness harness(256, 4500);
  harness.c2().set_record_views(true);
  Random rng(45);
  const auto& pk = harness.pk();
  std::vector<Ciphertext> eas;
  for (int64_t a : {-3, 0, 1, 7}) eas.push_back(pk.Encrypt(BigInt(a), rng));
  ASSERT_TRUE(SecureSquareBatch(harness.ctx(), eas).ok());
  ASSERT_TRUE(SecureMultiplyBatch(harness.ctx(), eas, eas).ok());
  const std::vector<C2View> views = harness.c2().TakeViews();
  EXPECT_EQ(views.size(), 12u);
  for (const C2View& view : views) {
    EXPECT_TRUE(LooksFullWidth(view.plaintext, pk.n())) << view.plaintext;
  }
}

// SM under parallel execution: same results, one round trip.
TEST(PrimitiveParallelTest, SmBatchParallelMatchesSerial) {
  TwoPartyHarness harness(256, 77, /*c1_threads=*/3, /*c2_threads=*/3);
  Random rng(78);
  const auto& pk = harness.pk();
  std::vector<Ciphertext> as, bs;
  std::vector<int64_t> expected;
  for (int i = 0; i < 40; ++i) {
    int64_t a = static_cast<int64_t>(rng.UniformUint64(1 << 20));
    int64_t b = static_cast<int64_t>(rng.UniformUint64(1 << 20));
    as.push_back(pk.Encrypt(BigInt(a), rng));
    bs.push_back(pk.Encrypt(BigInt(b), rng));
    expected.push_back(a * b);
  }
  auto result = SecureMultiplyBatch(harness.ctx(), as, bs);
  ASSERT_TRUE(result.ok());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(harness.Decrypt((*result)[i]), BigInt(expected[i])) << i;
  }
}

}  // namespace
}  // namespace sknn
