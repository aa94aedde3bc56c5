// RAII arbitrary-precision integer over GMP's mpz_t.
//
// All Paillier and protocol arithmetic goes through this type; raw mpz_t
// never escapes this module. Semantics follow mathematical integers with
// explicit modular helpers (Mod always returns the least non-negative
// residue, as the protocols require values in Z_N).
#ifndef SKNN_BIGINT_BIGINT_H_
#define SKNN_BIGINT_BIGINT_H_

#include <gmp.h>

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"

namespace sknn {

class BigInt {
 public:
  BigInt() { mpz_init(value_); }
  BigInt(int v) { mpz_init_set_si(value_, v); }      // NOLINT: implicit
  BigInt(int64_t v) { mpz_init_set_si(value_, v); }  // NOLINT: implicit
  explicit BigInt(uint64_t v) { mpz_init_set_ui(value_, v); }

  BigInt(const BigInt& other) { mpz_init_set(value_, other.value_); }
  BigInt(BigInt&& other) noexcept {
    mpz_init(value_);
    mpz_swap(value_, other.value_);
  }
  BigInt& operator=(const BigInt& other) {
    if (this != &other) mpz_set(value_, other.value_);
    return *this;
  }
  BigInt& operator=(BigInt&& other) noexcept {
    if (this != &other) mpz_swap(value_, other.value_);
    return *this;
  }
  ~BigInt() { mpz_clear(value_); }

  /// \brief Parses from a string in the given base (10 or 16 typical).
  static Result<BigInt> FromString(const std::string& s, int base = 10);

  /// \brief Deserializes a non-negative integer from big-endian bytes.
  static BigInt FromBytes(const std::vector<uint8_t>& bytes);

  /// \brief 2^k.
  static BigInt PowerOfTwo(unsigned k);

  // -- Arithmetic (mathematical integers) --
  BigInt operator+(const BigInt& o) const;
  BigInt operator-(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;
  BigInt operator/(const BigInt& o) const;  // truncated toward zero
  BigInt operator-() const;
  BigInt& operator+=(const BigInt& o);
  BigInt& operator-=(const BigInt& o);
  BigInt& operator*=(const BigInt& o);

  // -- Modular arithmetic (results in [0, m)) --
  BigInt Mod(const BigInt& m) const;
  BigInt AddMod(const BigInt& o, const BigInt& m) const;
  BigInt SubMod(const BigInt& o, const BigInt& m) const;
  BigInt MulMod(const BigInt& o, const BigInt& m) const;
  /// \brief this^e mod m, through a temporary MontgomeryModulus
  /// (bigint/modexp.h); repeated use of one modulus should hold its own.
  /// A negative e raises the inverse (0 when there is none).
  BigInt PowMod(const BigInt& e, const BigInt& m) const;
  /// \brief Modular inverse; error if gcd(this, m) != 1.
  Result<BigInt> InvMod(const BigInt& m) const;

  BigInt Gcd(const BigInt& o) const;
  BigInt Lcm(const BigInt& o) const;
  BigInt Abs() const;

  // -- Bit manipulation --
  /// \brief Number of bits in |this| (0 for zero).
  std::size_t BitLength() const;
  /// \brief Bit i of |this| (i = 0 is the least significant bit).
  int Bit(std::size_t i) const;
  BigInt ShiftLeft(unsigned k) const;
  BigInt ShiftRight(unsigned k) const;
  bool IsOdd() const { return mpz_odd_p(value_) != 0; }
  bool IsEven() const { return mpz_even_p(value_) != 0; }
  bool IsZero() const { return mpz_sgn(value_) == 0; }
  bool IsNegative() const { return mpz_sgn(value_) < 0; }

  // -- Comparisons --
  int Compare(const BigInt& o) const { return mpz_cmp(value_, o.value_); }
  bool operator==(const BigInt& o) const { return Compare(o) == 0; }
  bool operator!=(const BigInt& o) const { return Compare(o) != 0; }
  bool operator<(const BigInt& o) const { return Compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return Compare(o) <= 0; }
  bool operator>(const BigInt& o) const { return Compare(o) > 0; }
  bool operator>=(const BigInt& o) const { return Compare(o) >= 0; }

  // -- Conversions --
  /// \brief Value as int64; error if out of range.
  Result<int64_t> ToInt64() const;
  /// \brief Value as uint64; error if negative or out of range.
  Result<uint64_t> ToUint64() const;
  std::string ToString(int base = 10) const;
  /// \brief Big-endian magnitude bytes (empty for zero). Sign is dropped;
  /// protocol values are always in [0, N).
  std::vector<uint8_t> ToBytes() const;

  // -- Number theory --
  /// \brief Miller-Rabin with `reps` rounds (GMP semantics: 2 = probably
  /// prime, 1 = maybe, 0 = composite). Returns true for probable primes.
  bool IsProbablePrime(int reps = 30) const;
  BigInt NextPrime() const;

  /// \brief Exposes the raw mpz_t to the Random and modexp modules only.
  const mpz_t& raw() const { return value_; }
  mpz_t& raw() { return value_; }

 private:
  mpz_t value_;
};

std::ostream& operator<<(std::ostream& os, const BigInt& v);

}  // namespace sknn

#endif  // SKNN_BIGINT_BIGINT_H_
