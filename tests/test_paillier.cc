// Unit and property tests for the Paillier cryptosystem: key generation,
// encryption/decryption round trips, every homomorphic identity the
// protocols rely on (Section 2.3), CRT consistency, and signed decoding.
#include "crypto/paillier.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bigint/random.h"
#include "common/thread_pool.h"
#include "crypto/op_counters.h"
#include "proto/sbd.h"
#include "tests/proto_test_util.h"

namespace sknn {
namespace {

PaillierKeyPair MakeKeys(unsigned bits, uint64_t seed) {
  Random rng(seed);
  auto keys = GeneratePaillierKeyPair(bits, rng);
  EXPECT_TRUE(keys.ok()) << keys.status();
  return std::move(keys).value();
}

TEST(PaillierTest, KeyGenRejectsTinyKeys) {
  Random rng(1);
  EXPECT_FALSE(GeneratePaillierKeyPair(8, rng).ok());
}

TEST(PaillierTest, KeyHasRequestedSize) {
  for (unsigned bits : {256u, 512u}) {
    PaillierKeyPair keys = MakeKeys(bits, bits);
    EXPECT_EQ(keys.pk.n().BitLength(), bits);
    EXPECT_EQ(keys.pk.g(), keys.pk.n() + BigInt(1));
    EXPECT_EQ(keys.pk.n_squared(), keys.pk.n() * keys.pk.n());
  }
}

TEST(PaillierTest, EncryptDecryptRoundTrip) {
  PaillierKeyPair keys = MakeKeys(256, 7);
  Random rng(8);
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{255}, int64_t{1} << 40}) {
    Ciphertext c = keys.pk.Encrypt(BigInt(v), rng);
    EXPECT_EQ(keys.sk.Decrypt(c), BigInt(v)) << v;
  }
}

TEST(PaillierTest, EncryptReducesModN) {
  PaillierKeyPair keys = MakeKeys(256, 9);
  Random rng(10);
  BigInt big = keys.pk.n() + BigInt(5);
  Ciphertext c = keys.pk.Encrypt(big, rng);
  EXPECT_EQ(keys.sk.Decrypt(c), BigInt(5));
}

TEST(PaillierTest, EncryptionIsProbabilistic) {
  PaillierKeyPair keys = MakeKeys(256, 11);
  Random rng(12);
  Ciphertext c1 = keys.pk.Encrypt(BigInt(42), rng);
  Ciphertext c2 = keys.pk.Encrypt(BigInt(42), rng);
  EXPECT_NE(c1, c2) << "semantic security requires fresh randomness";
  EXPECT_EQ(keys.sk.Decrypt(c1), keys.sk.Decrypt(c2));
}

TEST(PaillierTest, DeterministicEncodingDecrypts) {
  PaillierKeyPair keys = MakeKeys(256, 13);
  Ciphertext c = keys.pk.EncodeDeterministic(BigInt(77));
  EXPECT_EQ(keys.sk.Decrypt(c), BigInt(77));
}

TEST(PaillierTest, HomomorphicAddition) {
  PaillierKeyPair keys = MakeKeys(256, 14);
  Random rng(15);
  Ciphertext ca = keys.pk.Encrypt(BigInt(1000), rng);
  Ciphertext cb = keys.pk.Encrypt(BigInt(2345), rng);
  EXPECT_EQ(keys.sk.Decrypt(keys.pk.Add(ca, cb)), BigInt(3345));
}

TEST(PaillierTest, HomomorphicScalarMultiply) {
  PaillierKeyPair keys = MakeKeys(256, 18);
  Random rng(19);
  Ciphertext ca = keys.pk.Encrypt(BigInt(111), rng);
  EXPECT_EQ(keys.sk.Decrypt(keys.pk.MulScalar(ca, BigInt(3))), BigInt(333));
}

TEST(PaillierTest, HomomorphicNegateAndSub) {
  PaillierKeyPair keys = MakeKeys(256, 20);
  Random rng(21);
  Ciphertext ca = keys.pk.Encrypt(BigInt(5), rng);
  Ciphertext cb = keys.pk.Encrypt(BigInt(8), rng);
  // 5 - 8 = -3, i.e. N - 3 in Z_N.
  BigInt raw = keys.sk.Decrypt(keys.pk.Sub(ca, cb));
  EXPECT_EQ(raw, keys.pk.n() - BigInt(3));
  EXPECT_EQ(DecodeSigned(raw, keys.pk.n()), BigInt(-3));
  EXPECT_EQ(keys.sk.DecryptSigned(keys.pk.Sub(ca, cb)), BigInt(-3));
}

TEST(PaillierTest, RerandomizePreservesPlaintext) {
  PaillierKeyPair keys = MakeKeys(256, 22);
  Random rng(23);
  Ciphertext c = keys.pk.Encrypt(BigInt(42), rng);
  Ciphertext r = keys.pk.Rerandomize(c, rng);
  EXPECT_NE(c, r);
  EXPECT_EQ(keys.sk.Decrypt(r), BigInt(42));
}

TEST(PaillierTest, CrtMatchesStandardDecryption) {
  PaillierKeyPair keys = MakeKeys(512, 24);
  Random rng(25);
  // The textbook decryption L(c^lambda mod N^2) * mu mod N, with
  // lambda = lcm(p-1, q-1) and, for g = N+1, mu = lambda^{-1} mod N.
  const BigInt& n = keys.pk.n();
  const BigInt one(1);
  const BigInt lambda = (keys.sk.p() - one).Lcm(keys.sk.q() - one);
  const BigInt mu = lambda.Mod(n).InvMod(n).value();
  for (int i = 0; i < 20; ++i) {
    BigInt m = rng.Below(n);
    Ciphertext c = keys.pk.Encrypt(m, rng);
    const BigInt u = c.value().PowMod(lambda, keys.pk.n_squared());
    const BigInt textbook = ((u - one) / n).MulMod(mu, n);
    EXPECT_EQ(keys.sk.Decrypt(c), m);
    EXPECT_EQ(keys.sk.Decrypt(c), textbook);
  }
}

TEST(PaillierTest, IsValidCiphertext) {
  PaillierKeyPair keys = MakeKeys(256, 26);
  Random rng(27);
  Ciphertext good = keys.pk.Encrypt(BigInt(1), rng);
  EXPECT_TRUE(keys.pk.IsValidCiphertext(good));
  EXPECT_FALSE(keys.pk.IsValidCiphertext(Ciphertext(keys.pk.n_squared())));
  EXPECT_FALSE(keys.pk.IsValidCiphertext(Ciphertext(-BigInt(1))));
}

TEST(PaillierTest, FromPrimesRejectsBadInput) {
  BigInt p(104729);
  EXPECT_FALSE(PaillierSecretKey::FromPrimes(p, p, 34).ok());       // p == q
  EXPECT_FALSE(
      PaillierSecretKey::FromPrimes(p, BigInt(100), 24).ok());      // composite
}

TEST(PaillierTest, EncryptVectorMatchesElementwise) {
  PaillierKeyPair keys = MakeKeys(256, 28);
  Random rng(29);
  std::vector<BigInt> values = {BigInt(1), BigInt(2), BigInt(3)};
  auto encrypted = EncryptVector(keys.pk, values, rng);
  ASSERT_EQ(encrypted.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(keys.sk.Decrypt(encrypted[i]), values[i]);
  }
}

TEST(PaillierTest, DecodeSignedBoundary) {
  BigInt n(101);
  EXPECT_EQ(DecodeSigned(BigInt(50), n), BigInt(50));   // n/2 = 50
  EXPECT_EQ(DecodeSigned(BigInt(51), n), BigInt(-50));
  EXPECT_EQ(DecodeSigned(BigInt(100), n), BigInt(-1));
  EXPECT_EQ(DecodeSigned(BigInt(0), n), BigInt(0));
}

TEST(PaillierTest, OpCountersTrackOperations) {
  PaillierKeyPair keys = MakeKeys(256, 30);
  Random rng(31);
  OpCounters::Reset();
  Ciphertext a = keys.pk.Encrypt(BigInt(1), rng);
  Ciphertext b = keys.pk.Encrypt(BigInt(2), rng);
  Ciphertext sum = keys.pk.Add(a, b);
  Ciphertext scaled = keys.pk.MulScalar(sum, BigInt(3));
  keys.sk.Decrypt(scaled);
  keys.pk.Negate(scaled);
  OpSnapshot snap = OpCounters::Snapshot();
  EXPECT_EQ(snap.encryptions, 2u);
  EXPECT_EQ(snap.multiplications, 1u);
  EXPECT_EQ(snap.exponentiations, 1u);
  EXPECT_EQ(snap.decryptions, 1u);
  EXPECT_EQ(snap.inversions, 1u);  // Negate inverts, it does not exponentiate
}

// -- Negation by inversion vs the paper's Epk(m)^(N-1) -----------------------

TEST(PaillierNegateTest, InverseMatchesPaperExponentiation) {
  PaillierKeyPair keys = MakeKeys(256, 41);
  Random rng(42);
  const BigInt& n = keys.pk.n();
  for (const BigInt& m :
       {BigInt(0), BigInt(1), n - BigInt(1), rng.Below(n), rng.Below(n)}) {
    Ciphertext c = keys.pk.Encrypt(m, rng);
    Ciphertext paper(c.value().PowMod(n - BigInt(1), keys.pk.n_squared()));
    Ciphertext negated = keys.pk.Negate(c);
    const BigInt want = (n - m).Mod(n);
    EXPECT_EQ(keys.sk.Decrypt(negated), want) << "m=" << m;
    EXPECT_EQ(keys.sk.Decrypt(paper), want) << "m=" << m;
    EXPECT_TRUE(keys.pk.IsValidCiphertext(negated));
  }
}

TEST(PaillierNegateTest, NegateIsAnInvolution) {
  PaillierKeyPair keys = MakeKeys(256, 43);
  Random rng(44);
  for (int i = 0; i < 8; ++i) {
    Ciphertext c = keys.pk.Encrypt(rng.Below(keys.pk.n()), rng);
    EXPECT_EQ(keys.pk.Negate(keys.pk.Negate(c)), c);  // bitwise
  }
}

TEST(PaillierNegateTest, NonUnitYieldsZeroNotUndefinedBehaviour) {
  PaillierKeyPair keys = MakeKeys(256, 45);
  const BigInt& n = keys.pk.n();
  for (const BigInt& v : {BigInt(0), n, keys.sk.p() * BigInt(7),
                          keys.pk.n_squared()}) {
    Ciphertext negated = keys.pk.Negate(Ciphertext(v));
    EXPECT_EQ(negated.value(), BigInt(0)) << v;
    EXPECT_FALSE(keys.pk.IsValidCiphertext(negated));
  }
}

TEST(PaillierNegateTest, SbdOpCountIsIndependentOfMaskParity) {
  // SBD negates C2's parity bit for every mask and selects by the mask's
  // parity, so what a decomposition costs does not depend on its secret
  // coins. Eight decompositions of one value draw 48 fresh masks and all
  // cost l times one bit: C1's mask and parity-bit encryptions, blinding,
  // selecting and subtracting multiplications, one t-bit power and two
  // negations, and C2's decryption and reply encryption.
  TwoPartyHarness harness;
  Random rng(46);
  Ciphertext z = harness.pk().Encrypt(BigInt(5), rng);
  SbdOptions opts;
  opts.l = 6;
  // 6 bits x {3 enc, 1 dec, 1 exp, 3 mul, 2 inv}.
  const std::string per_call = OpSnapshot{18, 6, 6, 18, 12}.ToString();
  for (int run = 0; run < 8; ++run) {
    const OpSnapshot before = OpCounters::Snapshot();
    ASSERT_TRUE(BitDecompose(harness.ctx(), z, opts).ok());
    EXPECT_EQ((OpCounters::Snapshot() - before).ToString(), per_call)
        << "run " << run;
  }
}

// -- Property sweeps over random plaintext pairs ------------------------------

class PaillierHomomorphismProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    keys_ = MakeKeys(256, GetParam());
    rng_ = std::make_unique<Random>(GetParam() * 31 + 1);
  }
  PaillierKeyPair keys_;
  std::unique_ptr<Random> rng_;
};

TEST_P(PaillierHomomorphismProperty, AddMatchesPlaintextAdd) {
  const BigInt& n = keys_.pk.n();
  for (int i = 0; i < 10; ++i) {
    BigInt a = rng_->Below(n), b = rng_->Below(n);
    Ciphertext c = keys_.pk.Add(keys_.pk.Encrypt(a, *rng_),
                                keys_.pk.Encrypt(b, *rng_));
    EXPECT_EQ(keys_.sk.Decrypt(c), a.AddMod(b, n));
  }
}

TEST_P(PaillierHomomorphismProperty, MulScalarMatchesPlaintextMul) {
  const BigInt& n = keys_.pk.n();
  for (int i = 0; i < 10; ++i) {
    BigInt a = rng_->Below(n), s = rng_->Below(n);
    Ciphertext c = keys_.pk.MulScalar(keys_.pk.Encrypt(a, *rng_), s);
    EXPECT_EQ(keys_.sk.Decrypt(c), a.MulMod(s, n));
  }
}

TEST_P(PaillierHomomorphismProperty, MulScalarPairIsTwoScalarMulsAndAnAdd) {
  const BigInt& n = keys_.pk.n();
  const std::vector<BigInt> scalars = {BigInt(0), BigInt(1), n - BigInt(1),
                                       n + BigInt(2), rng_->Below(n)};
  for (const BigInt& s : scalars) {
    for (const BigInt& t : scalars) {
      BigInt a = rng_->Below(n), b = rng_->Below(n);
      Ciphertext ca = keys_.pk.Encrypt(a, *rng_);
      Ciphertext cb = keys_.pk.Encrypt(b, *rng_);
      OpAccumulator ops;
      Ciphertext pair;
      {
        ScopedOpSink scoped(&ops);
        pair = keys_.pk.MulScalarPair(ca, s, cb, t);
      }
      const OpSnapshot snap = ops.snapshot();
      EXPECT_EQ(snap.exponentiations, 2u);
      EXPECT_EQ(snap.multiplications, 1u);
      EXPECT_EQ(pair, keys_.pk.Add(keys_.pk.MulScalar(ca, s),
                                   keys_.pk.MulScalar(cb, t)))
          << "s=" << s << " t=" << t;
      EXPECT_EQ(keys_.sk.Decrypt(pair),
                a.MulMod(s, n).AddMod(b.MulMod(t, n), n));
    }
  }
}

TEST_P(PaillierHomomorphismProperty, MulScalarSameBaseIsElementwiseMulScalar) {
  const BigInt& n = keys_.pk.n();
  std::vector<BigInt> scalars = {BigInt(0), BigInt(1), n - BigInt(1),
                                 n + BigInt(2)};
  while (scalars.size() < 17) scalars.push_back(rng_->Below(n));
  const BigInt a = rng_->Below(n);
  const Ciphertext ca = keys_.pk.Encrypt(a, *rng_);
  OpAccumulator ops;
  std::vector<Ciphertext> powers;
  {
    ScopedOpSink scoped(&ops);
    powers = keys_.pk.MulScalarSameBase(ca, scalars);
  }
  const OpSnapshot snap = ops.snapshot();
  EXPECT_EQ(snap.exponentiations, scalars.size());
  EXPECT_EQ(snap.encryptions + snap.decryptions + snap.multiplications +
                snap.inversions,
            0u);
  ASSERT_EQ(powers.size(), scalars.size());
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    EXPECT_EQ(powers[i], keys_.pk.MulScalar(ca, scalars[i])) << i;
    EXPECT_EQ(keys_.sk.Decrypt(powers[i]), a.MulMod(scalars[i], n)) << i;
  }
  EXPECT_TRUE(keys_.pk.MulScalarSameBase(ca, {}).empty());
}

TEST_P(PaillierHomomorphismProperty, NegateIsAdditiveInverse) {
  const BigInt& n = keys_.pk.n();
  for (int i = 0; i < 10; ++i) {
    BigInt a = rng_->Below(n);
    Ciphertext c = keys_.pk.Encrypt(a, *rng_);
    Ciphertext zero = keys_.pk.Add(c, keys_.pk.Negate(c));
    EXPECT_TRUE(keys_.sk.Decrypt(zero).IsZero());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaillierHomomorphismProperty,
                         ::testing::Values(101u, 202u, 303u));

// -- RandomizerPool (the PR 2 hot-path precomputation) --

TEST(RandomizerPoolTest, NeverHandsOutADuplicate) {
  PaillierKeyPair keys = MakeKeys(256, 404);
  // Capacity smaller than the draw count so both the pooled path and the
  // inline-compute fallback are exercised.
  RandomizerPool pool(keys.pk.n(), /*capacity=*/128);
  pool.WaitUntilFull();
  std::set<std::string> seen;
  for (int i = 0; i < 400; ++i) {
    EXPECT_TRUE(seen.insert(pool.Take().ToString()).second)
        << "duplicate r^N at draw " << i;
  }
  EXPECT_GT(pool.hits(), 0u);
}

TEST(RandomizerPoolTest, PooledEncryptionsDecryptAndStayProbabilistic) {
  PaillierKeyPair keys = MakeKeys(256, 405);
  RandomizerPool pool(keys.pk.n(), /*capacity=*/64);
  keys.pk.set_randomizer_pool(&pool);
  Random rng(406);
  std::set<std::string> ciphertexts;
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{12345}, int64_t{1} << 33}) {
    Ciphertext c = keys.pk.Encrypt(BigInt(v), rng);
    EXPECT_EQ(keys.sk.Decrypt(c), BigInt(v)) << v;
    EXPECT_TRUE(ciphertexts.insert(c.value().ToString()).second);
  }
  // Same plaintext twice: pooled randomizers are still fresh per encryption.
  Ciphertext a = keys.pk.Encrypt(BigInt(9), rng);
  Ciphertext b = keys.pk.Encrypt(BigInt(9), rng);
  EXPECT_NE(a, b);
  EXPECT_EQ(keys.sk.Decrypt(keys.pk.Rerandomize(a, rng)), BigInt(9));
}

TEST(RandomizerPoolTest, SafeUnderConcurrentEncrypt) {
  PaillierKeyPair keys = MakeKeys(256, 407);
  RandomizerPool pool(keys.pk.n(), /*capacity=*/256, /*workers=*/2);
  keys.pk.set_randomizer_pool(&pool);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::vector<Ciphertext>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        results[t].push_back(
            keys.pk.Encrypt(BigInt(t * kPerThread + i), Random::ThreadLocal()));
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<std::string> distinct;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_EQ(keys.sk.Decrypt(results[t][i]), BigInt(t * kPerThread + i));
      distinct.insert(results[t][i].value().ToString());
    }
  }
  // Distinct randomizers => distinct ciphertexts, even across threads.
  EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

// -- PR 8 batch APIs and the short-exponent randomizer source
// -- (docs/CRYPTO.md): batch calls must match the scalar loop in values,
// -- op accounting, and edge behavior, serial and fanned alike.

TEST(PaillierBatchTest, EncryptManyMatchesScalarSemantics) {
  PaillierKeyPair keys = MakeKeys(256, 501);
  ThreadPool pool(3);
  std::vector<BigInt> ms;
  for (int64_t i = 0; i < 17; ++i) ms.push_back(BigInt(i * 3 - 5));
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    OpCounters::Reset();
    std::vector<Ciphertext> cs = keys.pk.EncryptMany(ms, p);
    ASSERT_EQ(cs.size(), ms.size());
    // Same op attribution as 17 scalar Encrypts, even across pool workers.
    EXPECT_EQ(OpCounters::Snapshot().encryptions, ms.size());
    OpCounters::Reset();
    std::vector<BigInt> back = keys.sk.DecryptMany(cs, p);
    EXPECT_EQ(OpCounters::Snapshot().decryptions, ms.size());
    ASSERT_EQ(back.size(), ms.size());
    for (std::size_t i = 0; i < ms.size(); ++i) {
      EXPECT_EQ(back[i], ms[i].Mod(keys.pk.n())) << i;
    }
    // Fresh randomness per element: all ciphertexts distinct.
    std::set<std::string> distinct;
    for (const auto& c : cs) distinct.insert(c.value().ToString());
    EXPECT_EQ(distinct.size(), ms.size());
  }
  EXPECT_TRUE(keys.pk.EncryptMany({}, &pool).empty());
}

TEST(PaillierBatchTest, RerandomizeManyPreservesPlaintexts) {
  PaillierKeyPair keys = MakeKeys(256, 502);
  Random rng(503);
  ThreadPool pool(2);
  std::vector<Ciphertext> cs;
  for (int64_t i = 0; i < 9; ++i) cs.push_back(keys.pk.Encrypt(BigInt(i), rng));
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::vector<Ciphertext> fresh = keys.pk.RerandomizeMany(cs, p);
    ASSERT_EQ(fresh.size(), cs.size());
    for (std::size_t i = 0; i < cs.size(); ++i) {
      EXPECT_NE(fresh[i], cs[i]) << i;  // new blinding
      EXPECT_EQ(keys.sk.Decrypt(fresh[i]), BigInt(static_cast<int64_t>(i)));
    }
  }
}

TEST(RandomizerSourceTest, ShortAndFullWidthMintValidRandomizers) {
  // 512-bit key so the short path is genuinely short: s has
  // max(256, 512/4) = 256 bits against the 512-bit full-width draw.
  PaillierKeyPair keys = MakeKeys(512, 504);
  Random rng(505);
  for (bool short_exponents : {false, true}) {
    RandomizerPoolOptions options;
    options.short_exponents = short_exponents;
    RandomizerSource source(keys.pk.n(), options);
    EXPECT_EQ(source.short_exponents(), short_exponents);
    if (short_exponents) {
      EXPECT_EQ(source.short_exponent_bits(), 256u);
    }
    for (int i = 0; i < 6; ++i) {
      BigInt rn = source.Next(rng);
      // A valid randomizer is an N-th power that blinds without changing
      // the plaintext: (1 + 7N) * r^N must still decrypt to 7.
      Ciphertext blinded(keys.pk.EncodeDeterministic(BigInt(7)).value().MulMod(
          rn, keys.pk.n_squared()));
      EXPECT_EQ(keys.sk.Decrypt(blinded), BigInt(7)) << short_exponents;
    }
  }
}

TEST(RandomizerPoolTest, ShortExponentPoolBacksEncryptCorrectly) {
  PaillierKeyPair keys = MakeKeys(256, 506);
  RandomizerPoolOptions options;
  options.workers = 2;
  RandomizerPool pool(keys.pk.n(), /*capacity=*/64, options);
  pool.WaitUntilFull();
  keys.pk.set_randomizer_pool(&pool);
  EXPECT_EQ(pool.capacity(), 64u);
  for (int64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(
        keys.sk.Decrypt(keys.pk.Encrypt(BigInt(i), Random::ThreadLocal())),
        BigInt(i));
  }
  EXPECT_GT(pool.hits(), 0u);
}

}  // namespace
}  // namespace sknn
