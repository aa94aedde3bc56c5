// Global operation counters for the complexity accounting of Section 4.4:
// the paper states costs in numbers of encryptions, decryptions and
// exponentiations. Benchmarks enable these to verify e.g. that SkNN_m is
// bounded by O(n * (l + m + k*l*log2 n)) encryptions/exponentiations.
// The paper negates by an exponentiation, Epk(x)^(N-1); this library
// negates by a modular inversion and counts it as one, so the paper's
// exponentiation count is exponentiations + inversions.
#ifndef SKNN_CRYPTO_OP_COUNTERS_H_
#define SKNN_CRYPTO_OP_COUNTERS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace sknn {

struct OpSnapshot {
  uint64_t encryptions = 0;
  uint64_t decryptions = 0;
  uint64_t exponentiations = 0;  // ciphertext^scalar (homomorphic scalar mul)
  uint64_t multiplications = 0;  // ciphertext*ciphertext (homomorphic add)
  uint64_t inversions = 0;       // ciphertext^-1 mod N^2 (homomorphic negate)

  OpSnapshot operator-(const OpSnapshot& o) const {
    return {encryptions - o.encryptions, decryptions - o.decryptions,
            exponentiations - o.exponentiations,
            multiplications - o.multiplications, inversions - o.inversions};
  }
  OpSnapshot operator+(const OpSnapshot& o) const {
    return {encryptions + o.encryptions, decryptions + o.decryptions,
            exponentiations + o.exponentiations,
            multiplications + o.multiplications, inversions + o.inversions};
  }
  std::string ToString() const;
};

/// \brief Thread-safe accumulator for attributing operations to one scope
/// (one query, one RPC) while other scopes run concurrently on other
/// threads. Installed per-thread via ScopedOpSink; many threads may share
/// one accumulator (the per-query fan-out workers all sink into the query's
/// meter).
class OpAccumulator {
 public:
  OpSnapshot snapshot() const {
    return {enc_.load(kOrder), dec_.load(kOrder), exp_.load(kOrder),
            mul_.load(kOrder), inv_.load(kOrder)};
  }

 private:
  friend class OpCounters;
  static constexpr std::memory_order kOrder = std::memory_order_relaxed;
  std::atomic<uint64_t> enc_{0};
  std::atomic<uint64_t> dec_{0};
  std::atomic<uint64_t> exp_{0};
  std::atomic<uint64_t> mul_{0};
  std::atomic<uint64_t> inv_{0};
};

/// \brief Process-wide relaxed-atomic counters; negligible overhead next to
/// the modular exponentiations they count. Each count additionally lands in
/// the calling thread's sink accumulator, if one is installed — this is how
/// concurrent queries get exact per-query operation accounting without
/// engine-level snapshot deltas.
class OpCounters {
 public:
  static void CountEncryption() {
    enc_.fetch_add(1, kOrder);
    if (sink_ != nullptr) sink_->enc_.fetch_add(1, kOrder);
  }
  static void CountDecryption() {
    dec_.fetch_add(1, kOrder);
    if (sink_ != nullptr) sink_->dec_.fetch_add(1, kOrder);
  }
  static void CountExponentiation() {
    exp_.fetch_add(1, kOrder);
    if (sink_ != nullptr) sink_->exp_.fetch_add(1, kOrder);
  }
  static void CountMultiplication() {
    mul_.fetch_add(1, kOrder);
    if (sink_ != nullptr) sink_->mul_.fetch_add(1, kOrder);
  }
  static void CountInversion() {
    inv_.fetch_add(1, kOrder);
    if (sink_ != nullptr) sink_->inv_.fetch_add(1, kOrder);
  }

  static OpSnapshot Snapshot() {
    return {enc_.load(kOrder), dec_.load(kOrder), exp_.load(kOrder),
            mul_.load(kOrder), inv_.load(kOrder)};
  }
  static void Reset();

  /// \brief This thread's current sink (null if none) — capture it before
  /// fanning work out to a pool, re-install inside the workers.
  static OpAccumulator* ThreadSink() { return sink_; }
  /// \brief Installs `sink` on this thread, returns the previous one.
  /// Defined out of line: gcc 12's -fsanitize=null misfires on an inlined
  /// store to this thread_local at -O1 and above (the TLS slot is reported
  /// as a null pointer), and the swap is nowhere near a hot path.
  static OpAccumulator* SwapThreadSink(OpAccumulator* sink);

 private:
  static constexpr std::memory_order kOrder = std::memory_order_relaxed;
  static std::atomic<uint64_t> enc_;
  static std::atomic<uint64_t> dec_;
  static std::atomic<uint64_t> exp_;
  static std::atomic<uint64_t> mul_;
  static std::atomic<uint64_t> inv_;
  static thread_local OpAccumulator* sink_;
};

/// \brief RAII sink installer: ops counted on this thread while the scope is
/// alive are also attributed to `sink` (pass null to detach the thread).
class ScopedOpSink {
 public:
  explicit ScopedOpSink(OpAccumulator* sink)
      : prev_(OpCounters::SwapThreadSink(sink)) {}
  ~ScopedOpSink() { OpCounters::SwapThreadSink(prev_); }

  ScopedOpSink(const ScopedOpSink&) = delete;
  ScopedOpSink& operator=(const ScopedOpSink&) = delete;

 private:
  OpAccumulator* prev_;
};

}  // namespace sknn

#endif  // SKNN_CRYPTO_OP_COUNTERS_H_
