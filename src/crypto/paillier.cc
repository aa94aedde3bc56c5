#include "crypto/paillier.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"
#include "crypto/op_counters.h"

namespace sknn {
namespace {

// L(u) = (u - 1) / d, defined on u = 1 mod d.
BigInt LFunction(const BigInt& u, const BigInt& d) {
  return (u - BigInt(1)) / d;
}

/// Runs fn(i) for i in [0, count) across `pool` (serial when null),
/// carrying the calling thread's op sink into the workers so per-query
/// attribution matches a scalar loop — the same contract C2Service's
/// intra-message fan-out keeps.
void ParallelWithOpSink(ThreadPool* pool, std::size_t count,
                        const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  OpAccumulator* sink = OpCounters::ThreadSink();
  if (sink != nullptr) {
    pool->ParallelFor(count, [&fn, sink](std::size_t i) {
      ScopedOpSink scoped(sink);
      fn(i);
    });
  } else {
    pool->ParallelFor(count, fn);
  }
}

}  // namespace

RandomizerSource::RandomizerSource(const BigInt& n,
                                   const RandomizerPoolOptions& options)
    : n_(n), n_squared_(n * n) {
  if (!options.short_exponents) return;
  const unsigned n_bits = static_cast<unsigned>(n.BitLength());
  short_exponent_bits_ = std::min(n_bits, std::max(256u, n_bits / 4));
  // h_N = h^N mod N^2 for a random unit h: every h_N^s is an N-th power
  // (r^N with r = h^s), i.e. a valid Paillier randomizer.
  BigInt h_n = n_squared_.PowMod(Random::ThreadLocal().UnitModulo(n_), n_);
  window_ = std::make_unique<FixedBaseWindow>(
      h_n, n_squared_.modulus(), short_exponent_bits_);
  exponent_bound_ = BigInt::PowerOfTwo(short_exponent_bits_);
}

BigInt RandomizerSource::Next(Random& rng) const {
  if (window_ != nullptr) {
    return window_->PowMod(rng.Below(exponent_bound_));
  }
  return n_squared_.PowMod(rng.UnitModulo(n_), n_);
}

RandomizerPool::RandomizerPool(const BigInt& n, std::size_t capacity,
                               std::size_t workers)
    : RandomizerPool(n, capacity, [workers] {
        RandomizerPoolOptions options;
        options.workers = workers;
        return options;
      }()) {}

RandomizerPool::RandomizerPool(const BigInt& n, std::size_t capacity,
                               const RandomizerPoolOptions& options)
    : source_(n, options),
      capacity_(std::max<std::size_t>(1, capacity)),
      low_watermark_(std::max<std::size_t>(1, capacity / 4)) {
  const std::size_t workers = std::max<std::size_t>(1, options.workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { FillLoop(); });
  }
}

RandomizerPool::~RandomizerPool() {
  {
    MutexLock lock(&mutex_);
    stop_ = true;
  }
  fill_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

BigInt RandomizerPool::ComputeOne(Random& rng) const {
  return source_.Next(rng);
}

void RandomizerPool::FillLoop() {
  Random& rng = Random::ThreadLocal();
  for (;;) {
    {
      MutexLock lock(&mutex_);
      while (!stop_ && stock_.size() >= capacity_) {
        fill_cv_.Wait(mutex_);
      }
      if (stop_) return;
    }
    // The modexp runs unlocked so consumers never wait on a producer.
    BigInt rn = ComputeOne(rng);
    bool full = false;
    {
      MutexLock lock(&mutex_);
      if (stock_.size() < capacity_) stock_.push_back(std::move(rn));
      full = stock_.size() >= capacity_;
    }
    if (full) full_cv_.NotifyAll();
  }
}

BigInt RandomizerPool::Take() {
  BigInt rn;
  bool hit = false;
  bool low = false;
  {
    MutexLock lock(&mutex_);
    if (!stock_.empty()) {
      rn = std::move(stock_.front());
      stock_.pop_front();
      low = stock_.size() < low_watermark_;
      hit = true;
    }
  }
  if (hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (low) fill_cv_.NotifyAll();
    return rn;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return ComputeOne(Random::ThreadLocal());
}

void RandomizerPool::WaitUntilFull() {
  fill_cv_.NotifyAll();
  MutexLock lock(&mutex_);
  while (!stop_ && stock_.size() < capacity_) {
    full_cv_.Wait(mutex_);
  }
}

std::size_t RandomizerPool::stock() const {
  MutexLock lock(&mutex_);
  return stock_.size();
}

PaillierPublicKey::PaillierPublicKey(BigInt n, unsigned key_bits)
    : n_(std::move(n)),
      n_squared_(n_ * n_),
      mont_n_squared_(std::make_shared<const MontgomeryModulus>(n_squared_)),
      g_(n_ + BigInt(1)),
      key_bits_(key_bits) {}

BigInt PaillierPublicKey::Randomizer(Random& rng) const {
  if (randomizer_pool_ != nullptr) return randomizer_pool_->Take();
  return mont_n_squared_->PowMod(rng.UnitModulo(n_), n_);
}

Ciphertext PaillierPublicKey::Encrypt(const BigInt& m, Random& rng) const {
  OpCounters::CountEncryption();
  BigInt reduced = m.Mod(n_);
  // (1 + mN) mod N^2 — binomial expansion of g^m with g = N+1.
  BigInt gm = (BigInt(1) + reduced * n_).Mod(n_squared_);
  BigInt rn = Randomizer(rng);
  return Ciphertext(gm.MulMod(rn, n_squared_));
}

Ciphertext PaillierPublicKey::EncodeDeterministic(const BigInt& m) const {
  BigInt reduced = m.Mod(n_);
  return Ciphertext((BigInt(1) + reduced * n_).Mod(n_squared_));
}

Ciphertext PaillierPublicKey::Add(const Ciphertext& a,
                                  const Ciphertext& b) const {
  OpCounters::CountMultiplication();
  return Ciphertext(a.value().MulMod(b.value(), n_squared_));
}

Ciphertext PaillierPublicKey::MulScalar(const Ciphertext& a,
                                        const BigInt& s) const {
  OpCounters::CountExponentiation();
  return Ciphertext(mont_n_squared_->PowMod(a.value(), s.Mod(n_)));
}

std::vector<Ciphertext> PaillierPublicKey::MulScalarSameBase(
    const Ciphertext& a, const std::vector<BigInt>& scalars) const {
  std::vector<BigInt> exponents;
  exponents.reserve(scalars.size());
  for (const BigInt& s : scalars) {
    OpCounters::CountExponentiation();
    exponents.push_back(s.Mod(n_));
  }
  std::vector<BigInt> powers =
      mont_n_squared_->PowModSameBase(a.value(), exponents);
  std::vector<Ciphertext> out;
  out.reserve(powers.size());
  for (BigInt& p : powers) out.emplace_back(std::move(p));
  return out;
}

Ciphertext PaillierPublicKey::MulScalarPair(const Ciphertext& a,
                                            const BigInt& s,
                                            const Ciphertext& b,
                                            const BigInt& t) const {
  OpCounters::CountExponentiation();
  OpCounters::CountExponentiation();
  OpCounters::CountMultiplication();
  return Ciphertext(
      mont_n_squared_->PowMod2(a.value(), s.Mod(n_), b.value(), t.Mod(n_)));
}

Ciphertext PaillierPublicKey::Negate(const Ciphertext& a) const {
  OpCounters::CountInversion();
  Result<BigInt> inverse = a.value().InvMod(n_squared_);
  // A non-unit is no ciphertext and has no inverse; map it to 0, which is
  // no ciphertext either, so the fault stays visible downstream.
  if (!inverse.ok()) return Ciphertext(BigInt(0));
  return Ciphertext(std::move(inverse).value());
}

Ciphertext PaillierPublicKey::Sub(const Ciphertext& a,
                                  const Ciphertext& b) const {
  return Add(a, Negate(b));
}

Ciphertext PaillierPublicKey::Rerandomize(const Ciphertext& a,
                                          Random& rng) const {
  OpCounters::CountEncryption();  // costs one r^N modexp, same as encryption
  BigInt rn = Randomizer(rng);
  return Ciphertext(a.value().MulMod(rn, n_squared_));
}

std::vector<Ciphertext> PaillierPublicKey::EncryptMany(
    const std::vector<BigInt>& ms, ThreadPool* pool) const {
  std::vector<Ciphertext> out(ms.size());
  ParallelWithOpSink(pool, ms.size(), [&](std::size_t i) {
    out[i] = Encrypt(ms[i], Random::ThreadLocal());
  });
  return out;
}

std::vector<Ciphertext> PaillierPublicKey::RerandomizeMany(
    const std::vector<Ciphertext>& cs, ThreadPool* pool) const {
  std::vector<Ciphertext> out(cs.size());
  ParallelWithOpSink(pool, cs.size(), [&](std::size_t i) {
    out[i] = Rerandomize(cs[i], Random::ThreadLocal());
  });
  return out;
}

bool PaillierPublicKey::IsValidCiphertext(const Ciphertext& c) const {
  const BigInt& v = c.value();
  if (v.IsNegative() || v >= n_squared_) return false;
  return v.Gcd(n_) == BigInt(1);
}

Result<PaillierSecretKey> PaillierSecretKey::FromPrimes(const BigInt& p,
                                                        const BigInt& q,
                                                        unsigned key_bits) {
  if (p == q) {
    return Status::CryptoError("Paillier: p and q must be distinct");
  }
  if (!p.IsProbablePrime() || !q.IsProbablePrime()) {
    return Status::CryptoError("Paillier: p and q must be prime");
  }
  PaillierSecretKey sk;
  sk.p_ = p;
  sk.q_ = q;
  BigInt n = p * q;
  // gcd(N, phi(N)) must be 1; holds whenever p, q are distinct primes of the
  // same bit length, but verify to be safe with caller-provided primes. It
  // also makes lambda = lcm(p-1, q-1) invertible mod N.
  BigInt phi = (p - BigInt(1)) * (q - BigInt(1));
  if (n.Gcd(phi) != BigInt(1)) {
    return Status::CryptoError("Paillier: gcd(N, phi(N)) != 1");
  }
  sk.pk_ = PaillierPublicKey(n, key_bits);

  // CRT precomputations (Paillier Section 7 / standard optimization).
  sk.p_squared_ = std::make_shared<const MontgomeryModulus>(p * p);
  sk.q_squared_ = std::make_shared<const MontgomeryModulus>(q * q);
  BigInt lp = LFunction(sk.p_squared_->PowMod(sk.pk_.g(), p - BigInt(1)), p);
  BigInt lq = LFunction(sk.q_squared_->PowMod(sk.pk_.g(), q - BigInt(1)), q);
  SKNN_ASSIGN_OR_RETURN(sk.hp_, lp.Mod(p).InvMod(p));
  SKNN_ASSIGN_OR_RETURN(sk.hq_, lq.Mod(q).InvMod(q));
  SKNN_ASSIGN_OR_RETURN(sk.p_inv_q_, p.Mod(q).InvMod(q));
  return sk;
}

BigInt PaillierSecretKey::Decrypt(const Ciphertext& c) const {
  OpCounters::CountDecryption();
  // m_p = L_p(c^{p-1} mod p^2) * hp mod p, likewise mod q; then CRT. The
  // kernel reduces c mod p^2 (q^2) itself.
  BigInt mp = LFunction(p_squared_->PowMod(c.value(), p_ - BigInt(1)), p_)
                  .MulMod(hp_, p_);
  BigInt mq = LFunction(q_squared_->PowMod(c.value(), q_ - BigInt(1)), q_)
                  .MulMod(hq_, q_);
  // Garner: m = mp + p * ((mq - mp) * p^{-1} mod q).
  BigInt diff = mq.SubMod(mp, q_);
  BigInt t = diff.MulMod(p_inv_q_, q_);
  return mp + p_ * t;
}

BigInt PaillierSecretKey::DecryptSigned(const Ciphertext& c) const {
  return DecodeSigned(Decrypt(c), pk_.n());
}

std::vector<BigInt> PaillierSecretKey::DecryptMany(
    const std::vector<Ciphertext>& cs, ThreadPool* pool) const {
  std::vector<BigInt> out(cs.size());
  ParallelWithOpSink(pool, cs.size(), [&](std::size_t i) {
    out[i] = Decrypt(cs[i]);
  });
  return out;
}

Result<PaillierKeyPair> GeneratePaillierKeyPair(unsigned key_bits,
                                                Random& rng) {
  if (key_bits < 16) {
    return Status::InvalidArgument(
        "Paillier key size must be >= 16 bits, got " +
        std::to_string(key_bits));
  }
  unsigned half = key_bits / 2;
  for (int attempt = 0; attempt < 64; ++attempt) {
    BigInt p = rng.Prime(half);
    BigInt q = rng.Prime(key_bits - half);
    if (p == q) continue;
    BigInt n = p * q;
    if (n.BitLength() != key_bits) continue;
    auto sk = PaillierSecretKey::FromPrimes(p, q, key_bits);
    if (!sk.ok()) continue;
    return PaillierKeyPair{sk->public_key(), std::move(sk).value()};
  }
  return Status::CryptoError("Paillier key generation failed to converge");
}

Result<PaillierKeyPair> GeneratePaillierKeyPair(unsigned key_bits) {
  return GeneratePaillierKeyPair(key_bits, Random::ThreadLocal());
}

BigInt DecodeSigned(const BigInt& value, const BigInt& n) {
  BigInt half = n.ShiftRight(1);
  if (value > half) return value - n;
  return value;
}

std::vector<Ciphertext> EncryptVector(const PaillierPublicKey& pk,
                                      const std::vector<BigInt>& values,
                                      Random& rng) {
  std::vector<Ciphertext> out;
  out.reserve(values.size());
  for (const auto& v : values) out.push_back(pk.Encrypt(v, rng));
  return out;
}

}  // namespace sknn
