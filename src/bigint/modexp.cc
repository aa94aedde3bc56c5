#include "bigint/modexp.h"

#include <openssl/bn.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>

#include "common/logging.h"

namespace sknn {
namespace {

// GMP limbs and OpenSSL's little-endian byte strings share one memory
// layout on a little-endian host, so conversion is a single copy each way.
static_assert(std::endian::native == std::endian::little,
              "mpz <-> BIGNUM conversion assumes a little-endian host");

/// OpenSSL fails these calls only on allocation failure (inputs are
/// checked before they reach it); there is no sensible result to return.
void RequireOpenSsl(bool ok, const char* what) {
  if (ok) return;
  SKNN_LOG(Error) << "OpenSSL " << what << " failed";
  std::abort();
}

/// The calling thread's OpenSSL scratch context, created on first use and
/// freed at thread exit. Never shared, so MontgomeryModulus needs no lock.
BN_CTX* ThreadBnContext() {
  struct Holder {
    BN_CTX* ctx = BN_CTX_new();
    ~Holder() { BN_CTX_free(ctx); }
  };
  thread_local Holder holder;
  RequireOpenSsl(holder.ctx != nullptr, "BN_CTX_new");
  return holder.ctx;
}

/// |v| into `out` (the sign is dropped; callers pass non-negative values).
void ToBignum(const BigInt& v, BIGNUM* out) {
  const std::size_t bytes = mpz_size(v.raw()) * sizeof(mp_limb_t);
  RequireOpenSsl(
      BN_lebin2bn(reinterpret_cast<const unsigned char*>(
                      mpz_limbs_read(v.raw())),
                  static_cast<int>(bytes), out) != nullptr,
      "BN_lebin2bn");
}

/// One BN_CTX_start / BN_CTX_end frame on the calling thread's context:
/// every BIGNUM it hands out is released when the frame ends.
class BnFrame {
 public:
  BnFrame() : ctx_(ThreadBnContext()) { BN_CTX_start(ctx_); }
  ~BnFrame() { BN_CTX_end(ctx_); }
  BnFrame(const BnFrame&) = delete;
  BnFrame& operator=(const BnFrame&) = delete;

  BN_CTX* ctx() const { return ctx_; }
  /// A scratch BIGNUM (zero).
  BIGNUM* Get() {
    BIGNUM* bn = BN_CTX_get(ctx_);
    RequireOpenSsl(bn != nullptr, "BN_CTX_get");
    return bn;
  }
  /// A scratch BIGNUM holding the non-negative v.
  BIGNUM* Get(const BigInt& v) {
    BIGNUM* bn = Get();
    ToBignum(v, bn);
    return bn;
  }

 private:
  BN_CTX* ctx_;
};

BigInt FromBignum(const BIGNUM* bn) {
  BigInt out;
  const std::size_t limbs =
      (static_cast<std::size_t>(BN_num_bytes(bn)) + sizeof(mp_limb_t) - 1) /
      sizeof(mp_limb_t);
  if (limbs == 0) return out;
  mp_limb_t* dst = mpz_limbs_write(out.raw(), static_cast<mp_size_t>(limbs));
  RequireOpenSsl(BN_bn2lebinpad(bn, reinterpret_cast<unsigned char*>(dst),
                                static_cast<int>(limbs * sizeof(mp_limb_t))) >=
                     0,
                 "BN_bn2lebinpad");
  mpz_limbs_finish(out.raw(), static_cast<mp_size_t>(limbs));
  return out;
}

/// Digit i (width w bits) of the non-negative exponent e.
std::size_t DigitAt(const BigInt& e, std::size_t i, unsigned w) {
  std::size_t digit = 0;
  const std::size_t lo = i * w;
  for (unsigned b = 0; b < w; ++b) {
    if (e.Bit(lo + b) != 0) digit |= std::size_t{1} << b;
  }
  return digit;
}

/// A base/exponent pair with the exponent made non-negative: b^-e is
/// (b^-1)^e. False when the base has no inverse mod m.
bool NormalizeNegativeExponent(BigInt& base, BigInt& e, const BigInt& m) {
  if (!e.IsNegative()) return true;
  Result<BigInt> inverse = base.InvMod(m);
  if (!inverse.ok()) return false;
  base = std::move(inverse).value();
  e = -e;
  return true;
}

struct BnFree {
  void operator()(BIGNUM* bn) const { BN_free(bn); }
};
using OwnedBn = std::unique_ptr<BIGNUM, BnFree>;

OwnedBn NewBn() {
  OwnedBn bn(BN_new());
  RequireOpenSsl(bn != nullptr, "BN_new");
  return bn;
}

void MontMul(BIGNUM* r, const BIGNUM* a, const BIGNUM* b,
             BN_MONT_CTX* mont, BN_CTX* ctx) {
  RequireOpenSsl(BN_mod_mul_montgomery(r, a, b, mont, ctx) == 1,
                 "BN_mod_mul_montgomery");
}

/// The window of SameBasePowers for `count` exponents of up to `bits` bits:
/// the w minimizing its multiplications.
unsigned SameBaseWindowBits(std::size_t count, unsigned bits) {
  // The squaring chain is (digits - 1) * w squarings; each exponent then
  // multiplies in at most one table entry per digit plus one run per digit
  // value.
  unsigned best = 1;
  uint64_t best_cost = UINT64_MAX;
  for (unsigned w = 1; w <= 12; ++w) {
    const uint64_t digits = (uint64_t{bits} + w - 1) / w;
    const uint64_t cost = (digits == 0 ? 0 : (digits - 1) * w) +
                          count * (digits + (uint64_t{1} << w) - 1);
    if (cost < best_cost) {
      best = w;
      best_cost = cost;
    }
  }
  return best;
}

/// out[i] = base^exponents[i] mod m for each i in `which`, by BGMW over
/// Montgomery residues. Those exponents are non-negative, `base` is reduced
/// mod m, and m is odd and above 1.
void SameBasePowers(const BigInt& base, const std::vector<BigInt>& exponents,
                    const std::vector<std::size_t>& which,
                    BN_MONT_CTX* mont, std::vector<BigInt>& out) {
  unsigned bits = 0;
  for (std::size_t i : which) {
    bits = std::max(bits, static_cast<unsigned>(exponents[i].BitLength()));
  }
  const unsigned w = SameBaseWindowBits(which.size(), bits);
  const std::size_t digits = (bits + w - 1) / w;
  BnFrame frame;
  BN_CTX* ctx = frame.ctx();
  // table[j] = base^(2^(w*j)), Montgomery form: the one squaring chain.
  std::vector<OwnedBn> table;
  table.reserve(digits);
  table.push_back(NewBn());
  RequireOpenSsl(
      BN_to_montgomery(table[0].get(), frame.Get(base), mont, ctx) == 1,
      "BN_to_montgomery");
  for (std::size_t j = 1; j < digits; ++j) {
    table.push_back(NewBn());
    RequireOpenSsl(BN_copy(table[j].get(), table[j - 1].get()) != nullptr,
                   "BN_copy");
    for (unsigned s = 0; s < w; ++s) {
      MontMul(table[j].get(), table[j].get(), table[j].get(), mont, ctx);
    }
  }
  // e = sum_j d_j 2^(w*j) gives base^e = prod_{k>=1} (prod_{d_j >= k}
  // table[j]): run over k from the top digit value down, `run` collecting
  // the table entries whose digit is >= k and `acc` multiplying each run in.
  std::vector<std::vector<std::size_t>> by_digit(std::size_t{1} << w);
  BIGNUM* run = frame.Get();
  BIGNUM* acc = frame.Get();
  BIGNUM* plain = frame.Get();
  for (std::size_t i : which) {
    const BigInt& e = exponents[i];
    for (auto& positions : by_digit) positions.clear();
    std::size_t top = 0;
    const std::size_t used = (e.BitLength() + w - 1) / w;
    for (std::size_t j = 0; j < used; ++j) {
      const std::size_t d = DigitAt(e, j, w);
      by_digit[d].push_back(j);
      top = std::max(top, d);
    }
    if (top == 0) {
      out[i] = BigInt(1);
      continue;
    }
    bool run_set = false, acc_set = false;
    for (std::size_t k = top; k >= 1; --k) {
      for (std::size_t j : by_digit[k]) {
        if (run_set) {
          MontMul(run, run, table[j].get(), mont, ctx);
        } else {
          RequireOpenSsl(BN_copy(run, table[j].get()) != nullptr, "BN_copy");
          run_set = true;
        }
      }
      if (acc_set) {
        MontMul(acc, acc, run, mont, ctx);
      } else {
        RequireOpenSsl(BN_copy(acc, run) != nullptr, "BN_copy");
        acc_set = true;
      }
    }
    RequireOpenSsl(BN_from_montgomery(plain, acc, mont, ctx) == 1,
                   "BN_from_montgomery");
    out[i] = FromBignum(plain);
  }
}

}  // namespace

void MontgomeryModulus::OpenSslFree::operator()(bignum_st* bn) const {
  BN_free(bn);
}

void MontgomeryModulus::OpenSslFree::operator()(bn_mont_ctx_st* mont) const {
  BN_MONT_CTX_free(mont);
}

MontgomeryModulus::MontgomeryModulus(const BigInt& modulus)
    : modulus_(modulus.Abs()) {
  if (modulus_.IsEven()) return;
  modulus_bn_.reset(BN_new());
  mont_.reset(BN_MONT_CTX_new());
  RequireOpenSsl(modulus_bn_ != nullptr && mont_ != nullptr, "BN_new");
  ToBignum(modulus_, modulus_bn_.get());
  RequireOpenSsl(
      BN_MONT_CTX_set(mont_.get(), modulus_bn_.get(), ThreadBnContext()) == 1,
      "BN_MONT_CTX_set");
}

MontgomeryModulus::~MontgomeryModulus() = default;

BigInt MontgomeryModulus::PowMod(const BigInt& base, const BigInt& e) const {
  BigInt b = base.Mod(modulus_);
  BigInt x = e;
  if (!NormalizeNegativeExponent(b, x, modulus_)) return BigInt(0);
  if (mont_ == nullptr) {
    // Even modulus: no Montgomery form exists.
    BigInt out;
    mpz_powm(out.raw(), b.raw(), x.raw(), modulus_.raw());
    return out;
  }
  BnFrame frame;
  BIGNUM* r = frame.Get();
  RequireOpenSsl(BN_mod_exp_mont(r, frame.Get(b), frame.Get(x),
                                 modulus_bn_.get(), frame.ctx(),
                                 mont_.get()) == 1,
                 "BN_mod_exp_mont");
  return FromBignum(r);
}

BigInt MontgomeryModulus::PowMod2(const BigInt& b1, const BigInt& e1,
                                  const BigInt& b2, const BigInt& e2) const {
  // A zero exponent leaves one plain power. BN_mod_exp2_mont needs both
  // exponents non-zero: it returns 0 for a zero base whatever its exponent.
  if (e1.IsZero()) return PowMod(b2, e2);
  if (e2.IsZero()) return PowMod(b1, e1);
  BigInt x1 = b1.Mod(modulus_), y1 = e1;
  BigInt x2 = b2.Mod(modulus_), y2 = e2;
  if (!NormalizeNegativeExponent(x1, y1, modulus_) ||
      !NormalizeNegativeExponent(x2, y2, modulus_)) {
    return BigInt(0);
  }
  if (mont_ == nullptr) {
    return PowMod(x1, y1).MulMod(PowMod(x2, y2), modulus_);
  }
  BnFrame frame;
  BIGNUM* r = frame.Get();
  RequireOpenSsl(
      BN_mod_exp2_mont(r, frame.Get(x1), frame.Get(y1), frame.Get(x2),
                       frame.Get(y2), modulus_bn_.get(), frame.ctx(),
                       mont_.get()) == 1,
      "BN_mod_exp2_mont");
  return FromBignum(r);
}

std::vector<BigInt> MontgomeryModulus::PowModSameBase(
    const BigInt& base, const std::vector<BigInt>& exponents) const {
  std::vector<BigInt> out(exponents.size());
  if (mont_ == nullptr) {
    for (std::size_t i = 0; i < exponents.size(); ++i) {
      out[i] = PowMod(base, exponents[i]);
    }
    return out;
  }
  if (modulus_ == BigInt(1)) return out;  // every residue mod 1 is 0
  std::vector<std::size_t> positive, negative;
  for (std::size_t i = 0; i < exponents.size(); ++i) {
    (exponents[i].IsNegative() ? negative : positive).push_back(i);
  }
  const BigInt b = base.Mod(modulus_);
  if (!positive.empty()) {
    SameBasePowers(b, exponents, positive, mont_.get(), out);
  }
  if (!negative.empty()) {
    // b^-e = (b^-1)^e; with no inverse the results stay 0, as in PowMod.
    Result<BigInt> inverse = b.InvMod(modulus_);
    if (inverse.ok()) {
      std::vector<BigInt> magnitudes(exponents.size());
      for (std::size_t i : negative) magnitudes[i] = exponents[i].Abs();
      SameBasePowers(*inverse, magnitudes, negative, mont_.get(), out);
    }
  }
  return out;
}

unsigned FixedBaseWindow::RecommendedWindowBits(unsigned max_exponent_bits) {
  // Per-exponent cost is ceil(bits/w) multiplications; build cost is
  // ceil(bits/w) * (2^w - 1). The refill workload amortizes the build over
  // thousands of exponentiations, so wide windows win once the exponent is
  // long enough to feed them.
  if (max_exponent_bits <= 16) return 2;
  if (max_exponent_bits <= 64) return 3;
  if (max_exponent_bits <= 128) return 4;
  return 6;
}

FixedBaseWindow::FixedBaseWindow(const BigInt& base, const BigInt& modulus,
                                 unsigned max_exponent_bits,
                                 unsigned window_bits)
    : base_(base.Mod(modulus)),
      modulus_(modulus),
      one_mod_(BigInt(1).Mod(modulus)),
      max_exponent_bits_(max_exponent_bits),
      window_bits_(window_bits == 0 ? RecommendedWindowBits(max_exponent_bits)
                                    : std::min(window_bits, 16u)),
      digits_((max_exponent_bits + window_bits_ - 1) / window_bits_) {
  const std::size_t per_digit = (std::size_t{1} << window_bits_) - 1;
  table_.reserve(digits_ * per_digit);
  // g_i = base^(2^(w*i)): the digit-position base, advanced by w squarings
  // per row. Row i holds g_i^j for j in [1, 2^w).
  BigInt g = base_;
  for (std::size_t i = 0; i < digits_; ++i) {
    table_.push_back(g);
    for (std::size_t j = 2; j <= per_digit; ++j) {
      table_.push_back(table_.back().MulMod(g, modulus_));
    }
    if (i + 1 < digits_) {
      for (unsigned s = 0; s < window_bits_; ++s) g = g.MulMod(g, modulus_);
    }
  }
}

BigInt FixedBaseWindow::PowMod(const BigInt& e) const {
  if (e.IsNegative() || e.BitLength() > max_exponent_bits_) {
    // Oversized (or pathological) exponent: correctness over speed.
    return base_.PowMod(e, modulus_);
  }
  const std::size_t per_digit = (std::size_t{1} << window_bits_) - 1;
  BigInt result = one_mod_;
  const std::size_t used = (e.BitLength() + window_bits_ - 1) / window_bits_;
  for (std::size_t i = 0; i < used; ++i) {
    const std::size_t digit = DigitAt(e, i, window_bits_);
    if (digit == 0) continue;
    result = result.MulMod(table_[i * per_digit + (digit - 1)], modulus_);
  }
  return result;
}

}  // namespace sknn
