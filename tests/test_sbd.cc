// Tests for secure bit-decomposition: exhaustive small domains, the paper's
// Example 4, batched decomposition, the key floor the short masks need and
// the no-wrap property they give.
#include <gtest/gtest.h>

#include "proto/sbd.h"
#include "proto/sm.h"
#include "tests/proto_test_util.h"

namespace sknn {
namespace {

class SbdTest : public ::testing::Test {
 protected:
  TwoPartyHarness harness_;
  Random rng_{321};
};

TEST_F(SbdTest, PaperExample4) {
  // Example 4: z = 55, l = 6 -> [55] = <1,1,0,1,1,1> MSB first.
  const auto& pk = harness_.pk();
  SbdOptions opts;
  opts.l = 6;
  auto bits = BitDecompose(harness_.ctx(), pk.Encrypt(BigInt(55), rng_), opts);
  ASSERT_TRUE(bits.ok()) << bits.status();
  ASSERT_EQ(bits->size(), 6u);
  std::vector<int> expected = {1, 1, 0, 1, 1, 1};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(harness_.Decrypt((*bits)[i]), BigInt(expected[i])) << "bit " << i;
  }
}

TEST_F(SbdTest, ExhaustiveFourBitDomain) {
  const auto& pk = harness_.pk();
  SbdOptions opts;
  opts.l = 4;
  for (uint64_t z = 0; z < 16; ++z) {
    auto bits = BitDecompose(harness_.ctx(),
                             pk.Encrypt(BigInt(static_cast<int64_t>(z)), rng_),
                             opts);
    ASSERT_TRUE(bits.ok()) << "z=" << z;
    EXPECT_EQ(harness_.DecryptBits(*bits), z);
  }
}

TEST_F(SbdTest, BatchDecomposition) {
  const auto& pk = harness_.pk();
  SbdOptions opts;
  opts.l = 10;
  std::vector<uint64_t> values;
  std::vector<Ciphertext> enc;
  for (int i = 0; i < 25; ++i) {
    uint64_t z = rng_.UniformUint64(1 << 10);
    values.push_back(z);
    enc.push_back(pk.Encrypt(BigInt(static_cast<int64_t>(z)), rng_));
  }
  auto bits = BitDecomposeBatch(harness_.ctx(), enc, opts);
  ASSERT_TRUE(bits.ok());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(harness_.DecryptBits((*bits)[i]), values[i]) << i;
  }
}

TEST_F(SbdTest, BoundaryValues) {
  // 0, 1, the top bit alone, all ones and a random value, at the narrowest
  // width, the benchmark's 13 and a width well past it.
  const auto& pk = harness_.pk();
  for (unsigned l : {1u, 13u, 24u}) {
    const uint64_t top = uint64_t{1} << (l - 1);
    const std::vector<uint64_t> values = {
        0, 1, top, (top << 1) - 1, rng_.UniformUint64(top << 1)};
    std::vector<Ciphertext> enc;
    for (uint64_t z : values) {
      enc.push_back(pk.Encrypt(BigInt(static_cast<int64_t>(z)), rng_));
    }
    SbdOptions opts;
    opts.l = l;
    auto bits = BitDecomposeBatch(harness_.ctx(), enc, opts);
    ASSERT_TRUE(bits.ok()) << bits.status();
    for (std::size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ((*bits)[i].size(), l);
      EXPECT_EQ(harness_.DecryptBits((*bits)[i]), values[i]) << "l=" << l;
    }
  }
}

TEST_F(SbdTest, LsbFramesAnswerTheUnshiftedParity) {
  // kLsbShiftVec at round t answers Epk(2^t * v mod N) with Epk(parity(v)).
  const auto& pk = harness_.pk();
  const BigInt& n = pk.n();
  for (uint32_t t : {0u, 1u, 12u, pk.key_bits() - 1}) {
    const BigInt shift = BigInt::PowerOfTwo(t);
    const std::vector<BigInt> plain = {BigInt(0), BigInt(1), BigInt(6),
                                       n - BigInt(1), rng_.Below(n)};
    std::vector<BigInt> request;
    for (const BigInt& v : plain) {
      request.push_back(pk.Encrypt(v.MulMod(shift, n), rng_).value());
    }
    std::vector<uint8_t> aux;
    FrameWriter(aux).U32(t);
    auto resp = harness_.ctx().Call(Op::kLsbShiftVec, request, aux);
    ASSERT_TRUE(resp.ok()) << resp.status();
    ASSERT_EQ(resp->ints.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(harness_.Decrypt(Ciphertext(resp->ints[i])),
                BigInt(plain[i].IsOdd() ? 1 : 0))
          << "t=" << t << " v=" << plain[i];
    }
  }
}

TEST_F(SbdTest, RejectsZeroWidth) {
  const auto& pk = harness_.pk();
  SbdOptions opts;
  opts.l = 0;
  EXPECT_FALSE(
      BitDecompose(harness_.ctx(), pk.Encrypt(BigInt(1), rng_), opts).ok());
}

TEST_F(SbdTest, RejectsDomainLargerThanModulus) {
  TwoPartyHarness small(32, 5);
  SbdOptions opts;
  opts.l = 40;  // 2^40 > N, let alone the l + 130 bits the masks need
  Random rng(6);
  EXPECT_FALSE(
      BitDecompose(small.ctx(), small.pk().Encrypt(BigInt(1), rng), opts)
          .ok());
}

TEST_F(SbdTest, WidestDomainOfTheKey) {
  // A 256-bit N fits masks for l = 256 - 130 = 126: 0 and 2^126 - 1 come
  // out exactly, and l = 127 is refused before any frame is sent.
  const auto& pk = harness_.pk();
  ASSERT_EQ(pk.n().BitLength(), 256u);
  SbdOptions opts;
  opts.l = 126;
  const BigInt all_ones = BigInt::PowerOfTwo(126) - BigInt(1);
  auto bits = BitDecomposeBatch(
      harness_.ctx(), {pk.Encrypt(BigInt(0), rng_), pk.Encrypt(all_ones, rng_)},
      opts);
  ASSERT_TRUE(bits.ok()) << bits.status();
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_EQ((*bits)[i].size(), 126u);
    for (const Ciphertext& b : (*bits)[i]) {
      EXPECT_EQ(harness_.Decrypt(b), BigInt(i == 0 ? 0 : 1)) << "value " << i;
    }
  }
  opts.l = 127;
  auto refused =
      BitDecompose(harness_.ctx(), pk.Encrypt(BigInt(1), rng_), opts);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
}

TEST(SbdMaskTest, UnshiftedViewsNeverWrap) {
  // At round t C2 decrypts 2^t * (y_t + r) mod N. With y_t < 2^l and r
  // below 2^l + 2^(l + kappa), y_t + r < 2^(l + kappa + 1) <= N, so the
  // unshifted view is y_t + r itself and its parity is exact.
  TwoPartyHarness harness(512, 1500);
  Random rng(1501);
  const auto& pk = harness.pk();
  const BigInt& n = pk.n();
  SbdOptions opts;
  opts.l = 20;
  const std::vector<int64_t> values = {0, 1, 0xABCDE, (1 << 20) - 1};
  std::vector<Ciphertext> enc;
  for (int64_t z : values) enc.push_back(pk.Encrypt(BigInt(z), rng));
  harness.c2().set_record_views(true);
  auto bits = BitDecomposeBatch(harness.ctx(), enc, opts);
  ASSERT_TRUE(bits.ok()) << bits.status();
  std::vector<BigInt> views;
  for (const C2View& view : harness.c2().TakeViews()) {
    if (view.op == Op::kLsbShiftVec) views.push_back(view.plaintext);
  }
  // One view per instance and round, round by round.
  ASSERT_EQ(views.size(), opts.l * values.size());
  const BigInt bound =
      BigInt::PowerOfTwo(opts.l + kBlindStatisticalBits + 1);
  for (std::size_t j = 0; j < views.size(); ++j) {
    const unsigned t = static_cast<unsigned>(j / values.size());
    auto unshift = BigInt::PowerOfTwo(t).InvMod(n);
    ASSERT_TRUE(unshift.ok());
    EXPECT_LT(views[j].MulMod(*unshift, n), bound) << "t=" << t;
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(harness.DecryptBits((*bits)[i]),
              static_cast<uint64_t>(values[i]));
  }
}

TEST_F(SbdTest, ComposeFromBitsRoundTrip) {
  const auto& pk = harness_.pk();
  SbdOptions opts;
  opts.l = 9;
  for (uint64_t z : {uint64_t{0}, uint64_t{37}, uint64_t{311}, uint64_t{511}}) {
    auto bits = BitDecompose(harness_.ctx(),
                             pk.Encrypt(BigInt(static_cast<int64_t>(z)), rng_),
                             opts);
    ASSERT_TRUE(bits.ok());
    Ciphertext recomposed = ComposeFromBits(pk, *bits);
    EXPECT_EQ(harness_.Decrypt(recomposed), BigInt(static_cast<int64_t>(z)));
  }
}

// Property sweep: random values across widths and key sizes.
class SbdProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(SbdProperty, RandomValuesRoundTrip) {
  auto [l, key_bits] = GetParam();
  TwoPartyHarness harness(key_bits, 1000 + l);
  Random rng(2000 + l);
  const auto& pk = harness.pk();
  SbdOptions opts;
  opts.l = l;
  std::vector<uint64_t> values;
  std::vector<Ciphertext> enc;
  for (int i = 0; i < 10; ++i) {
    uint64_t z = rng.UniformUint64(uint64_t{1} << l);
    values.push_back(z);
    enc.push_back(pk.Encrypt(BigInt(static_cast<int64_t>(z)), rng));
  }
  auto bits = BitDecomposeBatch(harness.ctx(), enc, opts);
  ASSERT_TRUE(bits.ok());
  for (std::size_t i = 0; i < values.size(); ++i) {
    uint64_t out = 0;
    for (const auto& b : (*bits)[i]) {
      BigInt v = harness.c2().secret_key().Decrypt(b);
      ASSERT_TRUE(v == BigInt(0) || v == BigInt(1));
      out = (out << 1) | v.ToUint64().value();
    }
    EXPECT_EQ(out, values[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(WidthsAndKeys, SbdProperty,
                         ::testing::Combine(::testing::Values(1u, 6u, 12u,
                                                              20u),
                                            ::testing::Values(256u, 512u)));

}  // namespace
}  // namespace sknn
