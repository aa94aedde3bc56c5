// C2: the cloud that holds the Paillier secret key (Section 4, federated
// cloud model). C2 never sees the encrypted database; it answers the
// randomized sub-protocol requests issued by C1 and forwards decrypted,
// still-masked query results to Bob.
//
// Security instrumentation: when view recording is enabled, every plaintext
// C2 decrypts is captured. The property test suite uses this to check the
// central claim of Section 4.3 — everything C2 sees is either a uniformly
// random residue or a value the protocol explicitly allows it to learn.
#ifndef SKNN_PROTO_C2_SERVICE_H_
#define SKNN_PROTO_C2_SERVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "crypto/op_counters.h"
#include "crypto/paillier.h"
#include "net/message.h"
#include "proto/opcodes.h"

namespace sknn {

/// \brief One decrypted value observed by C2, tagged with the opcode that
/// produced it (for the simulation-paradigm security tests).
struct C2View {
  Op op;
  BigInt plaintext;
};

class C2Service {
 public:
  explicit C2Service(PaillierSecretKey sk) : sk_(std::move(sk)) {}

  /// \brief RPC dispatch entry point; thread-safe. Requests tagged with a
  /// non-zero query id get their Paillier work attributed to that query's
  /// ledger entry and their Bob-bound output keyed to that query.
  Result<Message> Handle(const Message& request);

  /// \brief Drains one query's Bob-bound records — the demux that lets many
  /// queries be in flight without interleaving their results. In a real
  /// deployment this is a direct C2 -> Bob message (kFetchBobOutbox); the
  /// in-process engine hands it to the QueryClient. Never routed through C1.
  std::vector<BigInt> TakeBobOutbox(uint64_t query_id);

  /// \brief Removes and returns the Paillier operations C2 performed for
  /// `query_id` (zeros if unknown).
  OpSnapshot TakeQueryOps(uint64_t query_id);

  /// \brief Spins up `threads` workers that fan the independent instances of
  /// one batched request out in parallel — the C2 half of the within-query
  /// record parallelism. Without this, each message is processed serially
  /// (still correct, just one core).
  void EnableIntraMessageParallelism(std::size_t threads);

  /// \brief Creates (and owns) a randomizer pool of `capacity` r^N values
  /// backing every encryption C2 performs — the response re-encryptions of
  /// the sub-protocol handlers are its hottest loop. See RandomizerPool in
  /// crypto/paillier.h. The options form selects the refill strategy
  /// (short-exponent fixed-base vs the full-width reference —
  /// docs/CRYPTO.md); the workers form keeps the default strategy.
  void EnableRandomizerPool(std::size_t capacity, std::size_t workers = 1);
  void EnableRandomizerPool(std::size_t capacity,
                            const RandomizerPoolOptions& options);
  RandomizerPool* randomizer_pool() { return rand_pool_.get(); }

  // -- Security-test instrumentation --
  void set_record_views(bool record) {
    MutexLock lock(&mutex_);
    record_views_ = record;
    if (!record) views_.clear();
  }
  std::vector<C2View> TakeViews();
  /// \brief Drains every query's Bob-bound records, in query-id order, so a
  /// test can assert nothing is left queued.
  std::vector<BigInt> TakeBobOutbox();

  const PaillierPublicKey& public_key() const { return sk_.public_key(); }
  PaillierSecretKey& secret_key() { return sk_; }

 private:
  /// Refuses aux on a row that takes none, checks the request's ints when
  /// `spec` decrypts, then calls its row's Serve specialization.
  Result<Message> Dispatch(const OpSpec& spec, const Message& request);
  void RecordQueryOps(uint64_t query_id, const OpSnapshot& ops);

  /// The handler of `op`'s kOpTable row, one explicit specialization per
  /// row in c2_service.cc. `cts` is req.ints as checked ciphertexts when the
  /// row decrypts, and empty otherwise; each handler parses and checks its
  /// own aux.
  template <Op op>
  Result<Message> Serve(const Message& req, std::vector<Ciphertext> cts);

  /// kSqVec and kLsbShiftVec: answers each ciphertext c with a fresh
  /// Epk(f(D(c))), recording D(c) as a view under `view_op`.
  Result<Message> UnaryBatch(const std::vector<Ciphertext>& cts, Op view_op,
                             const std::function<BigInt(const BigInt&)>& f);

  void RecordView(Op op, const BigInt& plaintext);

  PaillierSecretKey sk_;
  std::unique_ptr<ThreadPool> intra_pool_;
  std::unique_ptr<RandomizerPool> rand_pool_;
  Mutex mutex_;  // guards views_, bob_outbox_ and the op ledger
  bool record_views_ GUARDED_BY(mutex_) = false;
  std::vector<C2View> views_ GUARDED_BY(mutex_);
  /// Bob-bound plaintexts, keyed by the query id that produced them
  /// (0 = untagged traffic). FIFO-bounded like the op ledger: a
  /// front end that vanishes before fetching must not leak its bucket on a
  /// standing server.
  std::map<uint64_t, std::vector<BigInt>> bob_outbox_ GUARDED_BY(mutex_);
  std::deque<uint64_t> outbox_order_ GUARDED_BY(mutex_);
  /// Per-query operation accounting, FIFO-bounded so an abandoned query on
  /// a long-running server cannot leak ledger entries forever.
  static constexpr std::size_t kMaxLedgerEntries = 4096;
  std::map<uint64_t, OpSnapshot> op_ledger_ GUARDED_BY(mutex_);
  std::deque<uint64_t> op_ledger_order_ GUARDED_BY(mutex_);
};

}  // namespace sknn

#endif  // SKNN_PROTO_C2_SERVICE_H_
