// Modular-exponentiation layer (ROADMAP item 2, "crypto raw speed"). Two
// tools live here:
//
//  * MontgomeryModulus — the one exponentiation kernel of the library. It
//    holds a modulus in Montgomery form (an OpenSSL BN_MONT_CTX, built once)
//    and computes b^e and b1^e1 * b2^e2 with OpenSSL's sliding-window
//    Montgomery exponentiation, ~1.5x faster than mpz_powm on the |N|-bit
//    exponents mod N^2 that Paillier spends its time in; the double form
//    shares one squaring chain between both powers (~2.5x over two
//    mpz_powm calls). BigInt::PowMod, Paillier's MulScalar / MulScalarPair /
//    unpooled r^N / decryption all route through it (docs/CRYPTO.md,
//    "Exponentiation backend"). Its shared-base form raises one base to a
//    list of exponents with one squaring chain (SMIN's lambda step).
//
//  * FixedBaseWindow — a 2^w-ary fixed-base exponentiator. When the SAME
//    base is raised to many exponents modulo the same modulus (the
//    randomizer-pool refill pattern: h_N^s over and over), precomputing the
//    table g_{i,j} = base^(j * 2^(w*i)) mod m turns every exponentiation
//    into ~ceil(bits/w) modular multiplications with NO squarings — the
//    squaring chain that dominates a generic modexp is paid once, at
//    table-build time.
//
// Everything here is bitwise-compatible with mpz_powm: same
// least-non-negative-residue semantics, same edge cases (e = 0 -> 1 mod m,
// base reduced mod m first, anything mod 1 is 0). Property tests in
// tests/test_bigint.cc hold every tool to that contract against mpz_powm.
#ifndef SKNN_BIGINT_MODEXP_H_
#define SKNN_BIGINT_MODEXP_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "bigint/bigint.h"

// OpenSSL's Montgomery context, kept out of this header (modexp.cc is the
// only translation unit that includes <openssl/bn.h>).
struct bignum_st;
struct bn_mont_ctx_st;

namespace sknn {

/// \brief A fixed modulus prepared for exponentiation: the Montgomery
/// context (R^2 mod m, -m^-1 mod 2^64) is computed once at construction, so
/// every PowMod / PowMod2 pays only the exponentiation itself.
///
/// Immutable after construction and safe to share across threads: each
/// calling thread uses its own OpenSSL scratch context (BN_CTX), and the
/// Montgomery context is only read. An even modulus has no Montgomery form;
/// it falls back to mpz_powm (no Paillier modulus is even). Variable-time,
/// like the mpz_powm it replaces.
class MontgomeryModulus {
 public:
  /// \brief Prepares |modulus|, which must be non-zero.
  explicit MontgomeryModulus(const BigInt& modulus);
  ~MontgomeryModulus();

  MontgomeryModulus(const MontgomeryModulus&) = delete;
  MontgomeryModulus& operator=(const MontgomeryModulus&) = delete;

  /// \brief base^e mod m, in [0, m). A negative e raises the inverse of the
  /// base; a base with no inverse then yields 0 (mpz_powm would trap).
  BigInt PowMod(const BigInt& base, const BigInt& e) const;

  /// \brief b1^e1 * b2^e2 mod m as one double exponentiation: a single
  /// shared squaring chain (BN_mod_exp2_mont), so two |m|-bit powers cost
  /// little more than one. Same edge-case semantics as PowMod.
  BigInt PowMod2(const BigInt& b1, const BigInt& e1, const BigInt& b2,
                 const BigInt& e2) const;

  /// \brief base^e_i mod m for every exponent, bitwise equal to PowMod
  /// element by element. One base, many exponents: the squaring chain
  /// base^(2^(w*j)) is paid once, and each exponent then costs about
  /// ceil(bits/w) + 2^w multiplications (Brickell-Gordon-McCurley-Wilson)
  /// instead of a full square-and-multiply. The window w is a fixed
  /// function of the exponent count and width. Negative exponents share one
  /// table over the inverse of the base.
  std::vector<BigInt> PowModSameBase(const BigInt& base,
                                     const std::vector<BigInt>& exponents) const;

  const BigInt& modulus() const { return modulus_; }

 private:
  struct OpenSslFree {
    void operator()(bignum_st* bn) const;
    void operator()(bn_mont_ctx_st* mont) const;
  };

  BigInt modulus_;  // |modulus| as passed
  /// Both null for an even modulus (the mpz_powm fallback).
  std::unique_ptr<bignum_st, OpenSslFree> modulus_bn_;
  std::unique_ptr<bn_mont_ctx_st, OpenSslFree> mont_;
};

/// \brief Precomputed 2^w-ary table for exponentiating one fixed base
/// modulo one fixed modulus. Immutable after construction, so concurrent
/// PowMod calls from many threads are safe.
class FixedBaseWindow {
 public:
  /// \brief Builds the table for exponents of up to `max_exponent_bits`
  /// bits. `window_bits` in [1, 16] selects the digit width w (table holds
  /// ceil(max_exponent_bits / w) * (2^w - 1) residues); 0 picks
  /// RecommendedWindowBits(max_exponent_bits). The modulus must be
  /// positive; the base is reduced mod m up front (mpz_powm semantics).
  FixedBaseWindow(const BigInt& base, const BigInt& modulus,
                  unsigned max_exponent_bits, unsigned window_bits = 0);

  /// \brief base^e mod m. Exponents wider than max_exponent_bits() (or
  /// negative ones) fall back to the generic BigInt::PowMod — correctness
  /// never depends on the caller respecting the sizing hint.
  BigInt PowMod(const BigInt& e) const;

  /// \brief The w that balances table cost against per-exponent cost for
  /// the refill workload (many thousand exponentiations per table): per-exp
  /// multiplications are ceil(bits/w), so w = 6 is already within ~15% of
  /// the asymptote while the table stays a few hundred KB for the moduli
  /// this repo uses. Small exponent budgets get a smaller w so the build
  /// cost (ceil(bits/w) * (2^w - 1) multiplications) cannot dwarf the use.
  static unsigned RecommendedWindowBits(unsigned max_exponent_bits);

  const BigInt& base() const { return base_; }
  const BigInt& modulus() const { return modulus_; }
  unsigned max_exponent_bits() const { return max_exponent_bits_; }
  unsigned window_bits() const { return window_bits_; }
  /// \brief Number of precomputed residues (digits * (2^w - 1)).
  std::size_t table_size() const { return table_.size(); }

 private:
  BigInt base_;     // reduced mod modulus_
  BigInt modulus_;
  BigInt one_mod_;  // 1 mod m (0 when m == 1), the product identity
  unsigned max_exponent_bits_;
  unsigned window_bits_;
  std::size_t digits_;
  /// table_[i * (2^w - 1) + (j - 1)] = base^(j * 2^(w*i)) mod m,
  /// j in [1, 2^w).
  std::vector<BigInt> table_;
};

}  // namespace sknn

#endif  // SKNN_BIGINT_MODEXP_H_
