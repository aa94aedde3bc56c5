#include "bigint/bigint.h"

#include <ostream>

#include "bigint/modexp.h"

namespace sknn {

Result<BigInt> BigInt::FromString(const std::string& s, int base) {
  BigInt out;
  if (s.empty() || mpz_set_str(out.value_, s.c_str(), base) != 0) {
    return Status::InvalidArgument("BigInt::FromString: unparsable '" + s +
                                   "' in base " + std::to_string(base));
  }
  return out;
}

BigInt BigInt::FromBytes(const std::vector<uint8_t>& bytes) {
  BigInt out;
  if (!bytes.empty()) {
    mpz_import(out.value_, bytes.size(), /*order=*/1, /*size=*/1,
               /*endian=*/1, /*nails=*/0, bytes.data());
  }
  return out;
}

BigInt BigInt::PowerOfTwo(unsigned k) {
  BigInt out;
  mpz_setbit(out.value_, k);
  return out;
}

BigInt BigInt::operator+(const BigInt& o) const {
  BigInt out;
  mpz_add(out.value_, value_, o.value_);
  return out;
}

BigInt BigInt::operator-(const BigInt& o) const {
  BigInt out;
  mpz_sub(out.value_, value_, o.value_);
  return out;
}

BigInt BigInt::operator*(const BigInt& o) const {
  BigInt out;
  mpz_mul(out.value_, value_, o.value_);
  return out;
}

BigInt BigInt::operator/(const BigInt& o) const {
  BigInt out;
  mpz_tdiv_q(out.value_, value_, o.value_);
  return out;
}

BigInt BigInt::operator-() const {
  BigInt out;
  mpz_neg(out.value_, value_);
  return out;
}

BigInt& BigInt::operator+=(const BigInt& o) {
  mpz_add(value_, value_, o.value_);
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& o) {
  mpz_sub(value_, value_, o.value_);
  return *this;
}

BigInt& BigInt::operator*=(const BigInt& o) {
  mpz_mul(value_, value_, o.value_);
  return *this;
}

BigInt BigInt::Mod(const BigInt& m) const {
  BigInt out;
  mpz_mod(out.value_, value_, m.value_);  // mpz_mod is always non-negative
  return out;
}

BigInt BigInt::AddMod(const BigInt& o, const BigInt& m) const {
  BigInt out;
  mpz_add(out.value_, value_, o.value_);
  mpz_mod(out.value_, out.value_, m.value_);
  return out;
}

BigInt BigInt::SubMod(const BigInt& o, const BigInt& m) const {
  BigInt out;
  mpz_sub(out.value_, value_, o.value_);
  mpz_mod(out.value_, out.value_, m.value_);
  return out;
}

BigInt BigInt::MulMod(const BigInt& o, const BigInt& m) const {
  BigInt out;
  mpz_mul(out.value_, value_, o.value_);
  mpz_mod(out.value_, out.value_, m.value_);
  return out;
}

BigInt BigInt::PowMod(const BigInt& e, const BigInt& m) const {
  // A one-off Montgomery context (~10 us at 2048 bits): fine for cold
  // callers like keygen; hot paths hold a MontgomeryModulus per modulus.
  return MontgomeryModulus(m).PowMod(*this, e);
}

Result<BigInt> BigInt::InvMod(const BigInt& m) const {
  BigInt out;
  if (mpz_invert(out.value_, value_, m.value_) == 0) {
    return Status::CryptoError("BigInt::InvMod: not invertible (gcd != 1)");
  }
  return out;
}

BigInt BigInt::Gcd(const BigInt& o) const {
  BigInt out;
  mpz_gcd(out.value_, value_, o.value_);
  return out;
}

BigInt BigInt::Lcm(const BigInt& o) const {
  BigInt out;
  mpz_lcm(out.value_, value_, o.value_);
  return out;
}

BigInt BigInt::Abs() const {
  BigInt out;
  mpz_abs(out.value_, value_);
  return out;
}

std::size_t BigInt::BitLength() const {
  if (IsZero()) return 0;
  return mpz_sizeinbase(value_, 2);
}

int BigInt::Bit(std::size_t i) const {
  return mpz_tstbit(value_, i);
}

BigInt BigInt::ShiftLeft(unsigned k) const {
  BigInt out;
  mpz_mul_2exp(out.value_, value_, k);
  return out;
}

BigInt BigInt::ShiftRight(unsigned k) const {
  BigInt out;
  mpz_fdiv_q_2exp(out.value_, value_, k);
  return out;
}

Result<int64_t> BigInt::ToInt64() const {
  if (!mpz_fits_slong_p(value_)) {
    return Status::OutOfRange("BigInt::ToInt64: value does not fit");
  }
  return static_cast<int64_t>(mpz_get_si(value_));
}

Result<uint64_t> BigInt::ToUint64() const {
  if (IsNegative() || !mpz_fits_ulong_p(value_)) {
    return Status::OutOfRange("BigInt::ToUint64: value does not fit");
  }
  return static_cast<uint64_t>(mpz_get_ui(value_));
}

std::string BigInt::ToString(int base) const {
  char* raw = mpz_get_str(nullptr, base, value_);
  std::string out(raw);
  void (*free_fn)(void*, size_t);
  mp_get_memory_functions(nullptr, nullptr, &free_fn);
  free_fn(raw, out.size() + 1);
  return out;
}

std::vector<uint8_t> BigInt::ToBytes() const {
  if (IsZero()) return {};
  std::size_t count = (mpz_sizeinbase(value_, 2) + 7) / 8;
  std::vector<uint8_t> out(count);
  std::size_t written = 0;
  mpz_export(out.data(), &written, /*order=*/1, /*size=*/1, /*endian=*/1,
             /*nails=*/0, value_);
  out.resize(written);
  return out;
}

bool BigInt::IsProbablePrime(int reps) const {
  return mpz_probab_prime_p(value_, reps) > 0;
}

BigInt BigInt::NextPrime() const {
  BigInt out;
  mpz_nextprime(out.value_, value_);
  return out;
}

std::ostream& operator<<(std::ostream& os, const BigInt& v) {
  return os << v.ToString();
}

}  // namespace sknn
