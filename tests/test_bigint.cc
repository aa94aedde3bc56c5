// Unit and property tests for the GMP BigInt wrapper and the CSPRNG.
#include "bigint/bigint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bigint/modexp.h"
#include "bigint/random.h"
#include "common/thread_pool.h"

namespace sknn {
namespace {

TEST(BigIntTest, DefaultIsZero) {
  BigInt v;
  EXPECT_TRUE(v.IsZero());
  EXPECT_EQ(v.ToString(), "0");
  EXPECT_EQ(v.BitLength(), 0u);
}

TEST(BigIntTest, ConstructFromInt64) {
  EXPECT_EQ(BigInt(42).ToString(), "42");
  EXPECT_EQ(BigInt(-7).ToString(), "-7");
  EXPECT_EQ(BigInt(int64_t{1} << 62).BitLength(), 63u);
}

TEST(BigIntTest, FromStringRoundTrip) {
  const std::string decimal =
      "123456789012345678901234567890123456789012345678901234567890";
  auto v = BigInt::FromString(decimal);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->ToString(), decimal);
}

TEST(BigIntTest, FromStringHex) {
  auto v = BigInt::FromString("ff", 16);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, BigInt(255));
}

TEST(BigIntTest, FromStringRejectsGarbage) {
  EXPECT_FALSE(BigInt::FromString("12x34").ok());
  EXPECT_FALSE(BigInt::FromString("").ok());
}

TEST(BigIntTest, ArithmeticBasics) {
  BigInt a(100), b(7);
  EXPECT_EQ(a + b, BigInt(107));
  EXPECT_EQ(a - b, BigInt(93));
  EXPECT_EQ(a * b, BigInt(700));
  EXPECT_EQ(a / b, BigInt(14));
  EXPECT_EQ(-a, BigInt(-100));
}

TEST(BigIntTest, CompoundAssignment) {
  BigInt a(10);
  a += BigInt(5);
  EXPECT_EQ(a, BigInt(15));
  a -= BigInt(20);
  EXPECT_EQ(a, BigInt(-5));
  a *= BigInt(-3);
  EXPECT_EQ(a, BigInt(15));
}

TEST(BigIntTest, ModIsAlwaysNonNegative) {
  EXPECT_EQ(BigInt(-1).Mod(BigInt(5)), BigInt(4));
  EXPECT_EQ(BigInt(-10).Mod(BigInt(3)), BigInt(2));
  EXPECT_EQ(BigInt(7).Mod(BigInt(3)), BigInt(1));
}

TEST(BigIntTest, ModularHelpers) {
  BigInt m(97);
  EXPECT_EQ(BigInt(90).AddMod(BigInt(10), m), BigInt(3));
  EXPECT_EQ(BigInt(5).SubMod(BigInt(10), m), BigInt(92));
  EXPECT_EQ(BigInt(10).MulMod(BigInt(10), m), BigInt(3));
}

TEST(BigIntTest, PowMod) {
  // 2^10 mod 1000 = 24.
  EXPECT_EQ(BigInt(2).PowMod(BigInt(10), BigInt(1000)), BigInt(24));
  // Fermat: a^(p-1) = 1 mod p.
  BigInt p(104729);  // prime
  EXPECT_EQ(BigInt(12345).PowMod(p - BigInt(1), p), BigInt(1));
}

TEST(BigIntTest, InvMod) {
  BigInt m(97);
  auto inv = BigInt(35).InvMod(m);
  ASSERT_TRUE(inv.ok());
  EXPECT_EQ(BigInt(35).MulMod(*inv, m), BigInt(1));
}

TEST(BigIntTest, InvModFailsWhenNotCoprime) {
  EXPECT_FALSE(BigInt(6).InvMod(BigInt(9)).ok());
}

TEST(BigIntTest, GcdLcm) {
  EXPECT_EQ(BigInt(12).Gcd(BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt(4).Lcm(BigInt(6)), BigInt(12));
}

TEST(BigIntTest, BitAccess) {
  BigInt v(0b101101);
  EXPECT_EQ(v.BitLength(), 6u);
  EXPECT_EQ(v.Bit(0), 1);
  EXPECT_EQ(v.Bit(1), 0);
  EXPECT_EQ(v.Bit(2), 1);
  EXPECT_EQ(v.Bit(3), 1);
  EXPECT_EQ(v.Bit(4), 0);
  EXPECT_EQ(v.Bit(5), 1);
  EXPECT_EQ(v.Bit(6), 0);
}

TEST(BigIntTest, Shifts) {
  EXPECT_EQ(BigInt(5).ShiftLeft(3), BigInt(40));
  EXPECT_EQ(BigInt(40).ShiftRight(3), BigInt(5));
  EXPECT_EQ(BigInt(41).ShiftRight(3), BigInt(5));  // floor
}

TEST(BigIntTest, PowerOfTwo) {
  EXPECT_EQ(BigInt::PowerOfTwo(0), BigInt(1));
  EXPECT_EQ(BigInt::PowerOfTwo(10), BigInt(1024));
  EXPECT_EQ(BigInt::PowerOfTwo(100).BitLength(), 101u);
}

TEST(BigIntTest, ParityChecks) {
  EXPECT_TRUE(BigInt(4).IsEven());
  EXPECT_TRUE(BigInt(7).IsOdd());
  EXPECT_TRUE(BigInt(0).IsEven());
  EXPECT_TRUE(BigInt(-3).IsOdd());
}

TEST(BigIntTest, Comparisons) {
  EXPECT_LT(BigInt(1), BigInt(2));
  EXPECT_GT(BigInt(2), BigInt(1));
  EXPECT_LE(BigInt(2), BigInt(2));
  EXPECT_GE(BigInt(2), BigInt(2));
  EXPECT_NE(BigInt(1), BigInt(-1));
  EXPECT_LT(BigInt(-5), BigInt(-4));
}

TEST(BigIntTest, ToInt64Bounds) {
  EXPECT_EQ(BigInt(123).ToInt64().value(), 123);
  EXPECT_EQ(BigInt(-123).ToInt64().value(), -123);
  BigInt too_big = BigInt::PowerOfTwo(70);
  EXPECT_FALSE(too_big.ToInt64().ok());
}

TEST(BigIntTest, ToUint64RejectsNegative) {
  EXPECT_FALSE(BigInt(-1).ToUint64().ok());
  EXPECT_EQ(BigInt(uint64_t{42}).ToUint64().value(), 42u);
}

TEST(BigIntTest, BytesRoundTrip) {
  auto v = BigInt::FromString("987654321987654321987654321");
  ASSERT_TRUE(v.ok());
  std::vector<uint8_t> bytes = v->ToBytes();
  EXPECT_EQ(BigInt::FromBytes(bytes), *v);
}

TEST(BigIntTest, BytesOfZeroIsEmpty) {
  EXPECT_TRUE(BigInt(0).ToBytes().empty());
  EXPECT_TRUE(BigInt::FromBytes({}).IsZero());
}

TEST(BigIntTest, IsProbablePrime) {
  EXPECT_TRUE(BigInt(2).IsProbablePrime());
  EXPECT_TRUE(BigInt(104729).IsProbablePrime());
  EXPECT_FALSE(BigInt(104730).IsProbablePrime());
  EXPECT_FALSE(BigInt(1).IsProbablePrime());
}

TEST(BigIntTest, NextPrime) {
  EXPECT_EQ(BigInt(10).NextPrime(), BigInt(11));
  EXPECT_EQ(BigInt(11).NextPrime(), BigInt(13));
}

TEST(BigIntTest, CopyAndMoveSemantics) {
  BigInt a(42);
  BigInt b = a;        // copy
  BigInt c = std::move(a);
  EXPECT_EQ(b, BigInt(42));
  EXPECT_EQ(c, BigInt(42));
  b = c;               // copy assign
  EXPECT_EQ(b, BigInt(42));
  BigInt d;
  d = std::move(c);    // move assign
  EXPECT_EQ(d, BigInt(42));
}

// -- Property-style sweeps ---------------------------------------------------

class BigIntModularProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BigIntModularProperty, SubModAddModInverse) {
  Random rng(GetParam());
  BigInt m = rng.Prime(64);
  for (int i = 0; i < 50; ++i) {
    BigInt a = rng.Below(m);
    BigInt b = rng.Below(m);
    EXPECT_EQ(a.AddMod(b, m).SubMod(b, m), a);
    EXPECT_EQ(a.SubMod(b, m).AddMod(b, m), a);
  }
}

TEST_P(BigIntModularProperty, PowModMatchesRepeatedMul) {
  Random rng(GetParam());
  BigInt m = rng.Prime(48);
  BigInt base = rng.Below(m);
  BigInt acc(1);
  for (uint64_t e = 0; e < 16; ++e) {
    EXPECT_EQ(base.PowMod(BigInt(static_cast<int64_t>(e)), m), acc)
        << "exponent " << e;
    acc = acc.MulMod(base, m);
  }
}

TEST_P(BigIntModularProperty, InverseIsTwoSided) {
  Random rng(GetParam());
  BigInt m = rng.Prime(64);
  for (int i = 0; i < 25; ++i) {
    BigInt a = rng.NonZeroBelow(m);
    auto inv = a.InvMod(m);
    ASSERT_TRUE(inv.ok());
    EXPECT_EQ(a.MulMod(*inv, m), BigInt(1));
    EXPECT_EQ(inv->MulMod(a, m), BigInt(1));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntModularProperty,
                         ::testing::Values(1u, 2u, 3u, 17u, 1234567u));

// -- Random ------------------------------------------------------------------

TEST(RandomTest, BelowIsInRange) {
  Random rng(99);
  BigInt bound(1000);
  for (int i = 0; i < 200; ++i) {
    BigInt v = rng.Below(bound);
    EXPECT_FALSE(v.IsNegative());
    EXPECT_LT(v, bound);
  }
}

TEST(RandomTest, NonZeroBelowNeverZero) {
  Random rng(7);
  BigInt bound(2);  // only possible value: 1
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.NonZeroBelow(bound), BigInt(1));
  }
}

TEST(RandomTest, BitsHasExactLength) {
  Random rng(5);
  for (unsigned bits : {1u, 2u, 8u, 63u, 200u}) {
    EXPECT_EQ(rng.Bits(bits).BitLength(), bits) << bits << " bits";
  }
}

TEST(RandomTest, PrimeHasExactLengthAndIsPrime) {
  Random rng(11);
  for (unsigned bits : {16u, 24u, 48u}) {
    BigInt p = rng.Prime(bits);
    EXPECT_EQ(p.BitLength(), bits);
    EXPECT_TRUE(p.IsProbablePrime());
  }
}

TEST(RandomTest, UnitModuloIsCoprime) {
  Random rng(13);
  BigInt n = BigInt(61) * BigInt(67);
  for (int i = 0; i < 50; ++i) {
    BigInt u = rng.UnitModulo(n);
    EXPECT_EQ(u.Gcd(n), BigInt(1));
  }
}

TEST(RandomTest, DeterministicSeedsReproduce) {
  Random a(42), b(42);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.Below(BigInt::PowerOfTwo(64)), b.Below(BigInt::PowerOfTwo(64)));
  }
}

TEST(RandomTest, UniformUint64Bounds) {
  Random rng(3);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(rng.UniformUint64(10), 10u);
  }
  // bound 1 always yields 0.
  EXPECT_EQ(rng.UniformUint64(1), 0u);
}

// -- FixedBaseWindow (bigint/modexp.h): must be bitwise compatible with
// -- BigInt::PowMod, i.e. with mpz_powm.

TEST(FixedBaseWindowTest, MatchesGenericPowModAcrossWindowWidths) {
  Random rng(91);
  BigInt m = rng.Prime(96) * rng.Prime(96);
  BigInt base = rng.Below(m);
  for (unsigned w = 1; w <= 6; ++w) {
    FixedBaseWindow window(base, m, 192, w);
    EXPECT_EQ(window.window_bits(), w);
    // digits * (2^w - 1) precomputed residues, nothing more.
    EXPECT_EQ(window.table_size(),
              ((192 + w - 1) / w) * ((std::size_t{1} << w) - 1));
    for (int i = 0; i < 20; ++i) {
      BigInt e = rng.Bits(1 + static_cast<unsigned>(rng.UniformUint64(192)));
      EXPECT_EQ(window.PowMod(e), base.PowMod(e, m)) << "w=" << w;
    }
  }
}

TEST(FixedBaseWindowTest, EdgeCases) {
  BigInt m(1000003);
  FixedBaseWindow window(BigInt(2), m, 64);
  EXPECT_EQ(window.PowMod(BigInt(0)), BigInt(1));  // e = 0 -> 1 mod m
  EXPECT_EQ(window.PowMod(BigInt(1)), BigInt(2));
  // Degenerate bases: 0^e = 0 (e > 0), 1^e = 1, base >= m reduced up front.
  EXPECT_EQ(FixedBaseWindow(BigInt(0), m, 64).PowMod(BigInt(5)), BigInt(0));
  EXPECT_EQ(FixedBaseWindow(BigInt(0), m, 64).PowMod(BigInt(0)), BigInt(1));
  EXPECT_EQ(FixedBaseWindow(BigInt(1), m, 64).PowMod(BigInt(5)), BigInt(1));
  EXPECT_EQ(FixedBaseWindow(m + BigInt(3), m, 64).PowMod(BigInt(4)),
            BigInt(3).PowMod(BigInt(4), m));
  // Modulus 1: every residue is 0, including the empty product.
  EXPECT_EQ(FixedBaseWindow(BigInt(7), BigInt(1), 64).PowMod(BigInt(9)),
            BigInt(0));
  EXPECT_EQ(FixedBaseWindow(BigInt(7), BigInt(1), 64).PowMod(BigInt(0)),
            BigInt(0));
}

TEST(FixedBaseWindowTest, OversizedAndNegativeExponentsFallBack) {
  Random rng(93);
  BigInt m = rng.Prime(64) * rng.Prime(64);
  BigInt base = rng.UnitModulo(m);  // invertible, so e < 0 is defined
  FixedBaseWindow window(base, m, 32);
  BigInt wide = rng.Bits(200);  // wider than the 32-bit table
  EXPECT_EQ(window.PowMod(wide), base.PowMod(wide, m));
  BigInt neg = BigInt(0) - BigInt(3);
  EXPECT_EQ(window.PowMod(neg), base.PowMod(neg, m));
}

TEST(FixedBaseWindowTest, RecommendedWindowWidensWithExponent) {
  EXPECT_EQ(FixedBaseWindow::RecommendedWindowBits(16), 2u);
  EXPECT_EQ(FixedBaseWindow::RecommendedWindowBits(64), 3u);
  EXPECT_EQ(FixedBaseWindow::RecommendedWindowBits(128), 4u);
  EXPECT_EQ(FixedBaseWindow::RecommendedWindowBits(256), 6u);
  EXPECT_EQ(FixedBaseWindow::RecommendedWindowBits(1024), 6u);
}

// -- MontgomeryModulus (bigint/modexp.h): the exponentiation kernel, held
// -- bitwise to an mpz_powm reference.

BigInt ReferencePowMod(const BigInt& base, const BigInt& e, const BigInt& m) {
  BigInt out;
  mpz_powm(out.raw(), base.raw(), e.raw(), m.raw());
  return out;
}

TEST(MontgomeryModulusTest, MatchesMpzPowmAtOddModuliUpTo2048Bits) {
  Random rng(95);
  for (unsigned bits : {64u, 65u, 127u, 256u, 521u, 1024u, 2048u}) {
    const BigInt drawn = rng.Bits(bits);  // exactly `bits` bits
    const BigInt odd = drawn.IsOdd() ? drawn : drawn + BigInt(1);
    const MontgomeryModulus mont(odd);
    EXPECT_EQ(mont.modulus(), odd);
    for (int i = 0; i < 4; ++i) {
      const BigInt b1 = rng.Below(odd), b2 = rng.Below(odd);
      const BigInt e1 = rng.Bits(1 + static_cast<unsigned>(
                                         rng.UniformUint64(bits)));
      const BigInt e2 = rng.Bits(bits);
      const BigInt want1 = ReferencePowMod(b1, e1, odd);
      EXPECT_EQ(mont.PowMod(b1, e1), want1) << bits << " bits";
      EXPECT_EQ(b1.PowMod(e1, odd), want1) << bits << " bits";
      EXPECT_EQ(mont.PowMod2(b1, e1, b2, e2),
                want1.MulMod(ReferencePowMod(b2, e2, odd), odd))
          << bits << " bits";
    }
  }
}

TEST(MontgomeryModulusTest, EdgeCasesMatchMpzPowm) {
  Random rng(96);
  const BigInt m = rng.Prime(96) * rng.Prime(96);
  const MontgomeryModulus mont(m);
  const BigInt e = rng.Bits(150);
  const std::vector<BigInt> bases = {BigInt(0),     BigInt(1),
                                     m - BigInt(1), m,
                                     m + BigInt(5), m * BigInt(3),
                                     rng.Below(m),  BigInt(-7)};
  for (const BigInt& b : bases) {
    for (const BigInt& x : {BigInt(0), BigInt(1), BigInt(2), e}) {
      EXPECT_EQ(mont.PowMod(b, x), ReferencePowMod(b, x, m))
          << b << "^" << x;
      EXPECT_EQ(b.PowMod(x, m), ReferencePowMod(b, x, m)) << b << "^" << x;
      // Every zero-exponent / zero-base combination of the double form.
      for (const BigInt& b2 : {BigInt(0), m - BigInt(1), rng.Below(m)}) {
        for (const BigInt& x2 : {BigInt(0), BigInt(3), e}) {
          EXPECT_EQ(mont.PowMod2(b, x, b2, x2),
                    ReferencePowMod(b, x, m)
                        .MulMod(ReferencePowMod(b2, x2, m), m))
              << b << "^" << x << " * " << b2 << "^" << x2;
        }
      }
    }
  }
  // Modulus 1: every residue is 0, including the empty product.
  const MontgomeryModulus one(BigInt(1));
  EXPECT_EQ(one.PowMod(BigInt(7), BigInt(0)), BigInt(0));
  EXPECT_EQ(one.PowMod(BigInt(7), BigInt(9)), BigInt(0));
  EXPECT_EQ(one.PowMod2(BigInt(7), BigInt(0), BigInt(3), BigInt(0)),
            BigInt(0));
  EXPECT_EQ(one.PowMod2(BigInt(7), BigInt(2), BigInt(3), BigInt(5)),
            BigInt(0));
  EXPECT_EQ(BigInt(7).PowMod(BigInt(9), BigInt(1)), BigInt(0));
}

TEST(MontgomeryModulusTest, NegativeExponentsInvertTheBase) {
  Random rng(97);
  const BigInt m = rng.Prime(80) * rng.Prime(80);
  const MontgomeryModulus mont(m);
  const BigInt b = rng.UnitModulo(m), b2 = rng.UnitModulo(m);
  const BigInt neg = BigInt(0) - rng.Bits(100);
  EXPECT_EQ(mont.PowMod(b, neg), ReferencePowMod(b, neg, m));
  EXPECT_EQ(mont.PowMod2(b, neg, b2, BigInt(5)),
            ReferencePowMod(b, neg, m)
                .MulMod(ReferencePowMod(b2, BigInt(5), m), m));
  // No inverse: 0 (mpz_powm would trap on the division by zero).
  EXPECT_EQ(mont.PowMod(BigInt(0), neg), BigInt(0));
}

TEST(MontgomeryModulusTest, EvenModulusFallsBackToMpzPowm) {
  Random rng(98);
  for (unsigned bits : {2u, 64u, 1024u}) {
    const BigInt m = rng.Bits(bits).ShiftLeft(1);  // even
    const MontgomeryModulus mont(m);
    for (int i = 0; i < 4; ++i) {
      const BigInt b1 = rng.Bits(bits + 8), b2 = rng.Below(m);
      const BigInt e1 = rng.Bits(bits), e2 = rng.Bits(bits);
      const BigInt want = ReferencePowMod(b1, e1, m);
      EXPECT_EQ(mont.PowMod(b1, e1), want);
      EXPECT_EQ(b1.PowMod(e1, m), want);
      EXPECT_EQ(mont.PowMod2(b1, e1, b2, e2),
                want.MulMod(ReferencePowMod(b2, e2, m), m));
    }
  }
}

TEST(MontgomeryModulusTest, SharedAcrossThreads) {
  Random rng(99);
  const BigInt m = rng.Prime(256) * rng.Prime(256);
  const MontgomeryModulus mont(m);
  std::vector<BigInt> bases, exps;
  for (int i = 0; i < 48; ++i) {
    bases.push_back(rng.Below(m));
    exps.push_back(rng.Bits(512));
  }
  ThreadPool pool(4);
  std::vector<BigInt> single(bases.size()), pair(bases.size());
  pool.ParallelFor(bases.size(), [&](std::size_t i) {
    single[i] = mont.PowMod(bases[i], exps[i]);
    const std::size_t j = (i + 1) % bases.size();
    pair[i] = mont.PowMod2(bases[i], exps[i], bases[j], exps[j]);
  });
  for (std::size_t i = 0; i < bases.size(); ++i) {
    const std::size_t j = (i + 1) % bases.size();
    EXPECT_EQ(single[i], ReferencePowMod(bases[i], exps[i], m)) << i;
    EXPECT_EQ(pair[i], single[i].MulMod(
                           ReferencePowMod(bases[j], exps[j], m), m))
        << i;
  }
}

// -- PowModSameBase: one base, many exponents, held bitwise to PowMod.

std::vector<BigInt> ElementwisePowMod(const MontgomeryModulus& mont,
                                      const BigInt& base,
                                      const std::vector<BigInt>& exps) {
  std::vector<BigInt> out;
  for (const BigInt& e : exps) out.push_back(mont.PowMod(base, e));
  return out;
}

TEST(PowModSameBaseTest, MatchesPowModAtOddModuli64To2048Bits) {
  Random rng(110);
  for (unsigned bits : {64u, 65u, 127u, 256u, 521u, 1024u, 2048u}) {
    const BigInt drawn = rng.Bits(bits);
    const MontgomeryModulus mont(drawn.IsOdd() ? drawn : drawn + BigInt(1));
    for (std::size_t count : {1u, 17u, 64u}) {
      const BigInt base = rng.Below(mont.modulus());
      std::vector<BigInt> exps;
      for (std::size_t i = 0; i < count; ++i) {
        exps.push_back(rng.Bits(1 + static_cast<unsigned>(
                                        rng.UniformUint64(bits))));
      }
      exps.back() = rng.Bits(bits);  // at least one full-width exponent
      EXPECT_EQ(mont.PowModSameBase(base, exps),
                ElementwisePowMod(mont, base, exps))
          << bits << " bits, " << count << " exponents";
    }
  }
}

TEST(PowModSameBaseTest, EdgeCasesMatchPowMod) {
  // The Paillier shape: m = N^2, exponents up to N - 1.
  Random rng(111);
  const BigInt p = rng.Prime(96), q = rng.Prime(96);
  const BigInt n = p * q;
  const BigInt m = n * n;
  const MontgomeryModulus mont(m);
  const BigInt big = rng.Bits(190);
  const std::vector<BigInt> exps = {
      BigInt(0), BigInt(1),         n - BigInt(1),      big,
      BigInt(2), BigInt(-1),        BigInt(0) - big,    BigInt(0),
      m + BigInt(3), BigInt(0) - (n - BigInt(1))};
  const std::vector<BigInt> bases = {
      BigInt(0), BigInt(1),      m - BigInt(1), m,
      m + BigInt(5), m * BigInt(3), p,  // p: not a unit mod N^2
      rng.Below(m), BigInt(-7)};
  for (const BigInt& b : bases) {
    EXPECT_EQ(mont.PowModSameBase(b, exps), ElementwisePowMod(mont, b, exps))
        << "base " << b;
    EXPECT_TRUE(mont.PowModSameBase(b, {}).empty());
  }
  // Modulus 1 and an even modulus take the same results as PowMod.
  for (const BigInt& odd_or_even : {BigInt(1), rng.Bits(200).ShiftLeft(1)}) {
    const MontgomeryModulus other(odd_or_even);
    const BigInt b = rng.Bits(150);
    EXPECT_EQ(other.PowModSameBase(b, exps), ElementwisePowMod(other, b, exps))
        << "modulus " << odd_or_even;
  }
}

TEST(PowModSameBaseTest, SharedAcrossThreads) {
  Random rng(112);
  const BigInt n = rng.Prime(256) * rng.Prime(256);
  const MontgomeryModulus mont(n * n);
  std::vector<BigInt> bases;
  std::vector<std::vector<BigInt>> exps(16);
  for (auto& list : exps) {
    bases.push_back(rng.Below(mont.modulus()));
    for (int i = 0; i < 17; ++i) list.push_back(rng.Below(n));
  }
  ThreadPool pool(4);
  std::vector<std::vector<BigInt>> got(bases.size());
  pool.ParallelFor(bases.size(), [&](std::size_t i) {
    got[i] = mont.PowModSameBase(bases[i], exps[i]);
  });
  for (std::size_t i = 0; i < bases.size(); ++i) {
    EXPECT_EQ(got[i], ElementwisePowMod(mont, bases[i], exps[i])) << i;
  }
}

}  // namespace
}  // namespace sknn
