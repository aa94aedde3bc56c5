// Tests for SMIN / SMIN_n: the paper's Example 5, exhaustive small domains
// (including the delicate u == v case), batches, tournaments of every size,
// and property sweeps across bit widths.
#include <gtest/gtest.h>

#include <algorithm>

#include "proto/smin.h"
#include "tests/proto_test_util.h"

namespace sknn {
namespace {

class SminTest : public ::testing::Test {
 protected:
  TwoPartyHarness harness_;
  Random rng_{555};
};

TEST_F(SminTest, PaperExample5) {
  // Example 5: u = 55, v = 58, l = 6 -> [min] = [55].
  auto result = SecureMin(harness_.ctx(), harness_.EncryptBits(55, 6),
                          harness_.EncryptBits(58, 6));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(harness_.DecryptBits(*result), 55u);
}

TEST_F(SminTest, ExhaustiveThreeBitPairs) {
  for (uint64_t u = 0; u < 8; ++u) {
    for (uint64_t v = 0; v < 8; ++v) {
      auto result = SecureMin(harness_.ctx(), harness_.EncryptBits(u, 3),
                              harness_.EncryptBits(v, 3));
      ASSERT_TRUE(result.ok()) << "u=" << u << " v=" << v;
      EXPECT_EQ(harness_.DecryptBits(*result), std::min(u, v))
          << "u=" << u << " v=" << v;
    }
  }
}

TEST_F(SminTest, EqualOperands) {
  // u == v leaves no differing bit: the H chain never fires and alpha must
  // come out 0 — either operand is the correct minimum.
  for (uint64_t z : {uint64_t{0}, uint64_t{9}, uint64_t{63}}) {
    auto result = SecureMin(harness_.ctx(), harness_.EncryptBits(z, 6),
                            harness_.EncryptBits(z, 6));
    ASSERT_TRUE(result.ok()) << "z=" << z;
    EXPECT_EQ(harness_.DecryptBits(*result), z);
  }
}

TEST_F(SminTest, SingleBitWidth) {
  for (uint64_t u = 0; u < 2; ++u) {
    for (uint64_t v = 0; v < 2; ++v) {
      auto result = SecureMin(harness_.ctx(), harness_.EncryptBits(u, 1),
                              harness_.EncryptBits(v, 1));
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(harness_.DecryptBits(*result), std::min(u, v));
    }
  }
}

TEST_F(SminTest, BatchOfPairs) {
  std::vector<EncryptedBits> us, vs;
  std::vector<uint64_t> expected;
  for (int i = 0; i < 12; ++i) {
    uint64_t u = rng_.UniformUint64(1 << 8);
    uint64_t v = rng_.UniformUint64(1 << 8);
    us.push_back(harness_.EncryptBits(u, 8));
    vs.push_back(harness_.EncryptBits(v, 8));
    expected.push_back(std::min(u, v));
  }
  auto result = SecureMinBatch(harness_.ctx(), us, vs);
  ASSERT_TRUE(result.ok());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(harness_.DecryptBits((*result)[i]), expected[i]) << i;
  }
}

TEST_F(SminTest, RejectsRaggedInput) {
  std::vector<EncryptedBits> us = {harness_.EncryptBits(1, 4)};
  std::vector<EncryptedBits> vs = {harness_.EncryptBits(1, 5)};
  EXPECT_FALSE(SecureMinBatch(harness_.ctx(), us, vs).ok());
  EXPECT_FALSE(SecureMinBatch(harness_.ctx(), us, {}).ok());
}

TEST_F(SminTest, MinNOverVariousSizes) {
  // Tournament shapes: 1 (degenerate), 2, 3 (odd carry), 6 (the paper's
  // Figure 1 example), 8 (perfect tree), 13 (repeated carries).
  for (std::size_t n : {1u, 2u, 3u, 6u, 8u, 13u}) {
    std::vector<uint64_t> values;
    std::vector<EncryptedBits> enc;
    for (std::size_t i = 0; i < n; ++i) {
      uint64_t v = rng_.UniformUint64(1 << 10);
      values.push_back(v);
      enc.push_back(harness_.EncryptBits(v, 10));
    }
    auto result = SecureMinN(harness_.ctx(), enc);
    ASSERT_TRUE(result.ok()) << "n=" << n;
    EXPECT_EQ(harness_.DecryptBits(*result),
              *std::min_element(values.begin(), values.end()))
        << "n=" << n;
  }
}

TEST_F(SminTest, MinNWithDuplicatesOfMinimum) {
  std::vector<EncryptedBits> enc;
  for (uint64_t v : {7u, 3u, 9u, 3u, 3u, 8u}) {
    enc.push_back(harness_.EncryptBits(v, 4));
  }
  auto result = SecureMinN(harness_.ctx(), enc);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(harness_.DecryptBits(*result), 3u);
}

TEST_F(SminTest, MinNAllEqual) {
  std::vector<EncryptedBits> enc(5, harness_.EncryptBits(42, 6));
  auto result = SecureMinN(harness_.ctx(), enc);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(harness_.DecryptBits(*result), 42u);
}

TEST_F(SminTest, MinNRejectsEmpty) {
  EXPECT_FALSE(SecureMinN(harness_.ctx(), {}).ok());
}

TEST_F(SminTest, MinNZeroIncluded) {
  std::vector<EncryptedBits> enc;
  for (uint64_t v : {5u, 0u, 3u}) {
    enc.push_back(harness_.EncryptBits(v, 5));
  }
  auto result = SecureMinN(harness_.ctx(), enc);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(harness_.DecryptBits(*result), 0u);
}

TEST_F(SminTest, EdgePairsUpToWidestAllowedWidth) {
  // The pairs that stress the H chain: no differing bit (u == v), only the
  // MSB differs (the chain fires first and doubles l - 1 times), only the
  // LSB differs (it fires last), and every bit differs (H reaches its
  // maximum 2^l - 1). l = key_bits/2 - 2 is the widest SMIN accepts.
  const unsigned widest = harness_.pk().key_bits() / 2 - 2;
  auto encrypt = [&](const std::vector<int>& bits) {
    EncryptedBits out;
    for (int b : bits) out.push_back(harness_.pk().Encrypt(BigInt(b), rng_));
    return out;
  };
  for (unsigned l : {1u, 8u, widest}) {
    std::vector<int> base(l);
    for (auto& b : base) b = static_cast<int>(rng_.UniformUint64(2));
    std::vector<int> msb0 = base, msb1 = base, lsb0 = base, lsb1 = base;
    msb0.front() = 0;
    msb1.front() = 1;
    lsb0.back() = 0;
    lsb1.back() = 1;
    std::vector<int> complement(l);
    for (unsigned i = 0; i < l; ++i) complement[i] = 1 - base[i];
    const std::vector<std::pair<std::vector<int>, std::vector<int>>> pairs = {
        {base, base},   {msb0, msb1}, {msb1, msb0},
        {lsb0, lsb1},   {lsb1, lsb0}, {base, complement}};
    for (std::size_t c = 0; c < pairs.size(); ++c) {
      const auto& [u, v] = pairs[c];
      auto result = SecureMin(harness_.ctx(), encrypt(u), encrypt(v));
      ASSERT_TRUE(result.ok()) << "l=" << l << " case " << c << ": "
                               << result.status();
      std::vector<int> got;
      for (const auto& ct : *result) {
        const BigInt bit = harness_.Decrypt(ct);
        EXPECT_LE(bit, BigInt(1)) << "non-bit plaintext";
        got.push_back(bit == BigInt(1) ? 1 : 0);
      }
      EXPECT_EQ(got, std::min(u, v)) << "l=" << l << " case " << c;
    }
  }
}

TEST_F(SminTest, RejectsBitWidthTheKeyCannotHold) {
  // One bit past key_bits/2 - 2 would let the H chain reach a prime.
  const unsigned l = harness_.pk().key_bits() / 2 - 1;
  const EncryptedBits bits(l, harness_.pk().Encrypt(BigInt(0), rng_));
  auto result = SecureMin(harness_.ctx(), bits, bits);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// Property sweeps over widths, sizes and parallelism.
class SminProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>> {};

TEST_P(SminProperty, TournamentFindsGlobalMinimum) {
  auto [l, n] = GetParam();
  TwoPartyHarness harness(256, 9000 + l * 100 + n);
  Random rng(17 * l + n);
  std::vector<uint64_t> values;
  std::vector<EncryptedBits> enc;
  for (std::size_t i = 0; i < n; ++i) {
    uint64_t v = rng.UniformUint64(uint64_t{1} << l);
    values.push_back(v);
    enc.push_back(harness.EncryptBits(v, l));
  }
  auto result = SecureMinN(harness.ctx(), enc);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(harness.DecryptBits(*result),
            *std::min_element(values.begin(), values.end()));
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndSizes, SminProperty,
    ::testing::Combine(::testing::Values(4u, 6u, 12u),
                       ::testing::Values(std::size_t{2}, std::size_t{5},
                                         std::size_t{16})));

TEST(SminParallelTest, ParallelTournamentMatches) {
  TwoPartyHarness harness(256, 4242, /*c1_threads=*/3, /*c2_threads=*/2);
  Random rng(11);
  std::vector<uint64_t> values;
  std::vector<EncryptedBits> enc;
  for (int i = 0; i < 20; ++i) {
    uint64_t v = rng.UniformUint64(1 << 8);
    values.push_back(v);
    enc.push_back(harness.EncryptBits(v, 8));
  }
  auto result = SecureMinN(harness.ctx(), enc);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(harness.DecryptBits(*result),
            *std::min_element(values.begin(), values.end()));
}

}  // namespace
}  // namespace sknn
