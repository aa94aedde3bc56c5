// Paillier cryptosystem (Paillier, EUROCRYPT'99) — the additively
// homomorphic, semantically secure scheme the paper assumes (Section 2.3).
//
// Properties used throughout the protocols:
//   Epk(a+b) = Epk(a) * Epk(b)        mod N^2   (homomorphic addition)
//   Epk(a*b) = Epk(a)^b               mod N^2   (homomorphic scalar multiply)
//   Epk(-a)  = Epk(a)^(N-1)           mod N^2   ("N - x is -x under Z_N")
//            = Epk(a)^(-1)            mod N^2   (what Negate computes)
//
// Implementation notes:
//  * g = N + 1, so encryption is c = (1 + mN) * r^N mod N^2 — one modexp.
//  * Decryption runs through the CRT: two half-size exponentiations mod p^2
//    and q^2, recombined by Garner's formula.
//  * Plaintexts live in Z_N; DecodeSigned maps (N/2, N) to negatives.
#ifndef SKNN_CRYPTO_PAILLIER_H_
#define SKNN_CRYPTO_PAILLIER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/modexp.h"
#include "bigint/random.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace sknn {

/// \brief How a RandomizerPool (or a bare RandomizerSource) generates its
/// r^N mod N^2 values.
struct RandomizerPoolOptions {
  /// Background fill threads of the pool.
  std::size_t workers = 1;
  /// Short-exponent refill (docs/CRYPTO.md): precompute h_N = h^N mod N^2
  /// for one random unit h per key, then derive every randomizer as
  /// h_N^s for a short random s through a fixed-base window table —
  /// equivalently r = h^s, so r^N = h_N^s. Each refill costs ~bits(s)/w
  /// modmuls instead of a full |N|-bit modexp. Sound under the standard
  /// short-exponent indistinguishability assumption; set false for the
  /// assumption-free full-width reference path (r drawn uniformly from
  /// Z*_N, one |N|-bit exponentiation per refill). s has
  /// min(|N|, max(256, |N|/4)) bits — 256 at the paper's key sizes — and
  /// the window width is FixedBaseWindow::RecommendedWindowBits for it.
  bool short_exponents = true;
};

/// \brief The one refill sizing rule, for every pool behind `threads` query
/// or handler threads (C1's engine, a shard worker, C2): half of them, at
/// least one. A single refill thread cannot keep the stock up once misses
/// stop being exponentiation bound, and half keeps it warm under load
/// without starving the query threads of cores.
inline std::size_t RefillWorkersFor(std::size_t threads) {
  return std::max<std::size_t>(1, threads / 2);
}

/// \brief Generates Paillier randomizers r^N mod N^2 — the refill primitive
/// under RandomizerPool, exposed so benchmarks and tests can measure the
/// short-exponent fixed-base path against the full-width reference
/// directly. Immutable after construction; Next() is safe to call from many
/// threads concurrently (each with its own Random).
class RandomizerSource {
 public:
  RandomizerSource(const BigInt& n, const RandomizerPoolOptions& options);

  /// \brief One fresh r^N mod N^2.
  BigInt Next(Random& rng) const;

  bool short_exponents() const { return window_ != nullptr; }
  /// \brief Bits of the short exponent (0 on the full-width path).
  unsigned short_exponent_bits() const { return short_exponent_bits_; }

 private:
  BigInt n_;
  MontgomeryModulus n_squared_;
  /// Short path only: the 2^w-ary table over h_N, and the draw bound 2^s.
  std::unique_ptr<FixedBaseWindow> window_;
  BigInt exponent_bound_;
  unsigned short_exponent_bits_ = 0;
};

/// \brief Precomputed-randomizer pool: a thread-safe stock of r^N mod N^2
/// values backing Encrypt/Rerandomize.
///
/// The r^N modexp is the entire online cost of a Paillier encryption (with
/// g = N+1 the g^m part is a modmul), and the paper attributes essentially
/// all protocol cost to these exponentiations. The randomizer r is
/// independent of the message, so it can be computed *before* the message is
/// known: background workers keep the pool filled, and a pooled Encrypt pays
/// one modmul instead of a full-width modexp. Refills are triggered whenever
/// the stock falls below the low watermark (capacity / 4), so the workers
/// soak up exactly the idle time the protocol spends stalled on C1<->C2
/// round trips.
///
/// Semantics:
///  * Pooled randomizers are drawn by the pool's own RNG instead of the
///    Encrypt caller's, so ciphertext *values* differ from the unpooled path
///    (fresh uniform randomness either way — decryptions and protocol
///    results are unaffected).
///  * Operation counters still count a pooled Encrypt as one encryption:
///    the paper's Section 4.4 accounting is semantic, and the modexp was
///    still performed — just off the critical path. Complexity tests
///    therefore keep working with the pool on.
///  * A key with no pool attached computes every r^N inline; latency
///    microbenchmarks of Encrypt itself measure that unamortized cost.
///
/// Lifetime: PaillierPublicKey holds a non-owning pointer; the pool must
/// outlive every key copy that references it (the engine owns its pools and
/// destroys them last).
class RandomizerPool {
 public:
  /// \brief Starts `workers` background fill threads for a pool of up to
  /// `capacity` randomizers of the modulus `n`, with the default generation
  /// strategy (short-exponent fixed-base refill — see RandomizerPoolOptions).
  RandomizerPool(const BigInt& n, std::size_t capacity,
                 std::size_t workers = 1);
  /// \brief Full-control constructor: worker count AND generation strategy.
  RandomizerPool(const BigInt& n, std::size_t capacity,
                 const RandomizerPoolOptions& options);
  ~RandomizerPool();

  RandomizerPool(const RandomizerPool&) = delete;
  RandomizerPool& operator=(const RandomizerPool&) = delete;

  /// \brief Pops a precomputed r^N mod N^2; computes one inline (a fresh
  /// modexp, counted in misses()) if the pool is empty.
  BigInt Take();

  /// \brief Blocks until the pool is filled to capacity (benchmark /
  /// test setup; refills happen in the background afterwards).
  void WaitUntilFull();

  std::size_t capacity() const { return capacity_; }
  std::size_t stock() const;
  /// \brief Takes served from the precomputed stock / computed inline.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

  /// \brief The generation strategy behind this pool (benchmarks measure it
  /// directly; kServiceStats reports whether the short path is active).
  const RandomizerSource& source() const { return source_; }

 private:
  void FillLoop();
  BigInt ComputeOne(Random& rng) const;

  const RandomizerSource source_;
  const std::size_t capacity_;
  const std::size_t low_watermark_;

  mutable Mutex mutex_;
  CondVar fill_cv_;  // wakes workers (low stock / stop)
  CondVar full_cv_;  // wakes WaitUntilFull
  std::deque<BigInt> stock_ GUARDED_BY(mutex_);
  bool stop_ GUARDED_BY(mutex_) = false;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::vector<std::thread> workers_;
};

/// \brief A Paillier ciphertext: an element of Z*_{N^2}.
///
/// Distinct type (not a bare BigInt) so plaintexts and ciphertexts cannot be
/// mixed up in protocol code.
class Ciphertext {
 public:
  Ciphertext() = default;
  explicit Ciphertext(BigInt value) : value_(std::move(value)) {}

  const BigInt& value() const { return value_; }

  bool operator==(const Ciphertext& o) const { return value_ == o.value_; }
  bool operator!=(const Ciphertext& o) const { return value_ != o.value_; }

 private:
  BigInt value_;
};

/// \brief Public key (N, g) with cached N^2 and its Montgomery context
/// (built once per key, shared by every copy). Safe to share across
/// threads.
class PaillierPublicKey {
 public:
  PaillierPublicKey() = default;
  PaillierPublicKey(BigInt n, unsigned key_bits);

  const BigInt& n() const { return n_; }
  const BigInt& n_squared() const { return n_squared_; }
  /// \brief g = N + 1 (fixed by this implementation).
  const BigInt& g() const { return g_; }
  unsigned key_bits() const { return key_bits_; }

  /// \brief Epk(m) with fresh randomness. m is reduced mod N. When a
  /// RandomizerPool is attached, the r^N factor comes from the pool (one
  /// modmul online); otherwise it is computed from `rng` (one modexp).
  Ciphertext Encrypt(const BigInt& m, Random& rng) const;
  /// \brief Epk(m) using the calling thread's RNG.
  Ciphertext Encrypt(const BigInt& m) const {
    return Encrypt(m, Random::ThreadLocal());
  }

  /// \brief Epk(m_i) for every plaintext, fanned across `pool` (serial when
  /// null). Each element draws its randomness from the executing thread's
  /// RNG (and the attached RandomizerPool, when one is set) and counts one
  /// encryption; the caller's per-query op sink is carried into the pool
  /// workers, so attribution matches the scalar loop exactly.
  std::vector<Ciphertext> EncryptMany(const std::vector<BigInt>& ms,
                                      ThreadPool* pool = nullptr) const;

  /// \brief Rerandomize(c_i) for every ciphertext, fanned across `pool`.
  /// Same op accounting and randomness sourcing as EncryptMany.
  std::vector<Ciphertext> RerandomizeMany(const std::vector<Ciphertext>& cs,
                                          ThreadPool* pool = nullptr) const;

  /// \brief Deterministic "encryption" with fixed randomness r=1:
  /// c = 1 + mN. NOT semantically secure; used only where the protocol
  /// explicitly wants an unrandomized encoding (e.g. constant Epk(0) seeds
  /// that are immediately blinded). Exposed for tests.
  Ciphertext EncodeDeterministic(const BigInt& m) const;

  // -- Homomorphic operations (all O(1) modexp/modmul on N^2) --

  /// \brief Epk(a + b) from Epk(a), Epk(b).
  Ciphertext Add(const Ciphertext& a, const Ciphertext& b) const;
  /// \brief Epk(a * s) from Epk(a) and plaintext scalar s (reduced mod N).
  Ciphertext MulScalar(const Ciphertext& a, const BigInt& s) const;
  /// \brief Epk(s*a + t*b) = Epk(a)^s * Epk(b)^t from Epk(a), Epk(b) and
  /// plaintext scalars s, t (reduced mod N), as ONE double exponentiation
  /// sharing a squaring chain — about the cost of one MulScalar. Bitwise
  /// equal to Add(MulScalar(a, s), MulScalar(b, t)), and counted the same:
  /// two exponentiations and one multiplication, so the paper's op counts
  /// do not depend on the kernel.
  Ciphertext MulScalarPair(const Ciphertext& a, const BigInt& s,
                           const Ciphertext& b, const BigInt& t) const;
  /// \brief Epk(a * s_i) for every scalar (each reduced mod N): one base
  /// raised to many exponents through MontgomeryModulus::PowModSameBase,
  /// which pays the squaring chain once. Bitwise equal to MulScalar(a, s_i)
  /// element by element, and counted the same: one exponentiation each.
  std::vector<Ciphertext> MulScalarSameBase(
      const Ciphertext& a, const std::vector<BigInt>& scalars) const;
  /// \brief Epk(-a) as the inverse Epk(a)^(-1) mod N^2: one modular
  /// inversion (counted as an inversion), not the paper's |N|-bit
  /// exponentiation Epk(a)^(N-1). Both are public, deterministic functions
  /// of `a` that encrypt -a; the inverse's randomizer r^(-1) is uniform
  /// whenever r is (docs/CRYPTO.md, "Negation by inversion"). A value
  /// outside Z*_{N^2} has no inverse and yields the non-ciphertext 0.
  Ciphertext Negate(const Ciphertext& a) const;
  /// \brief Epk(a - b).
  Ciphertext Sub(const Ciphertext& a, const Ciphertext& b) const;
  /// \brief Fresh randomization of the same plaintext: c * r^N.
  Ciphertext Rerandomize(const Ciphertext& a, Random& rng) const;
  Ciphertext Rerandomize(const Ciphertext& a) const {
    return Rerandomize(a, Random::ThreadLocal());
  }

  /// \brief True if c is a structurally valid ciphertext (in [0, N^2),
  /// coprime to N).
  bool IsValidCiphertext(const Ciphertext& c) const;

  /// \brief Attaches (or detaches, with null) a precomputed-randomizer pool
  /// backing Encrypt/Rerandomize. Non-owning: the pool must outlive every
  /// copy of this key that carries the pointer. The pool must have been
  /// built for this key's modulus.
  void set_randomizer_pool(RandomizerPool* pool) { randomizer_pool_ = pool; }
  RandomizerPool* randomizer_pool() const { return randomizer_pool_; }

  bool operator==(const PaillierPublicKey& o) const { return n_ == o.n_; }

 private:
  /// \brief r^N mod N^2 — pooled when a pool is attached, else from rng.
  BigInt Randomizer(Random& rng) const;

  BigInt n_;
  BigInt n_squared_;
  /// Every exponentiation mod N^2 (MulScalar, MulScalarPair, unpooled r^N)
  /// goes through this one context.
  std::shared_ptr<const MontgomeryModulus> mont_n_squared_;
  BigInt g_;
  unsigned key_bits_ = 0;
  RandomizerPool* randomizer_pool_ = nullptr;
};

/// \brief Secret key: factorization of N plus precomputed CRT constants.
class PaillierSecretKey {
 public:
  PaillierSecretKey() = default;
  /// \brief Builds a secret key (and all precomputations) from the factors.
  static Result<PaillierSecretKey> FromPrimes(const BigInt& p, const BigInt& q,
                                              unsigned key_bits);

  const PaillierPublicKey& public_key() const { return pk_; }
  /// \brief Mutable access for attaching a RandomizerPool to the embedded
  /// public key (C2 encrypts through its secret key's pk copy).
  PaillierPublicKey& mutable_public_key() { return pk_; }

  /// \brief Dsk(c), in [0, N), through the CRT.
  BigInt Decrypt(const Ciphertext& c) const;

  /// \brief Dsk(c) decoded to a signed value in (-N/2, N/2].
  BigInt DecryptSigned(const Ciphertext& c) const;

  /// \brief Dsk(c_i) for every ciphertext, fanned across `pool` (serial
  /// when null). Counts one decryption per element and carries the
  /// caller's op sink into the pool workers, like EncryptMany.
  std::vector<BigInt> DecryptMany(const std::vector<Ciphertext>& cs,
                                  ThreadPool* pool = nullptr) const;

  /// \brief The prime factors (serialization only — handle with care).
  const BigInt& p() const { return p_; }
  const BigInt& q() const { return q_; }

 private:
  PaillierPublicKey pk_;
  BigInt p_, q_;
  // CRT precomputations; p^2 and q^2 in Montgomery form, built once per key
  // and shared by every copy.
  std::shared_ptr<const MontgomeryModulus> p_squared_, q_squared_;
  BigInt hp_, hq_;     // L_p(g^{p-1} mod p^2)^{-1} mod p, and q analogue
  BigInt p_inv_q_;     // p^{-1} mod q
};

struct PaillierKeyPair {
  PaillierPublicKey pk;
  PaillierSecretKey sk;
};

/// \brief Generates a fresh key pair with an N of `key_bits` bits.
///
/// key_bits must be >= 16 (tiny keys are allowed for tests; real deployments
/// use >= 1024 — the paper evaluates K in {512, 1024}).
Result<PaillierKeyPair> GeneratePaillierKeyPair(unsigned key_bits,
                                                Random& rng);
Result<PaillierKeyPair> GeneratePaillierKeyPair(unsigned key_bits);

/// \brief Maps a decrypted value in [0, N) to (-N/2, N/2].
BigInt DecodeSigned(const BigInt& value, const BigInt& n);

/// \brief Encrypts a vector attribute-wise, as Alice does with each record.
std::vector<Ciphertext> EncryptVector(const PaillierPublicKey& pk,
                                      const std::vector<BigInt>& values,
                                      Random& rng);

}  // namespace sknn

#endif  // SKNN_CRYPTO_PAILLIER_H_
