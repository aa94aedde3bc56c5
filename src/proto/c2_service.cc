#include "proto/c2_service.h"

#include <array>
#include <numeric>
#include <string>
#include <utility>

#include "bigint/random.h"

namespace sknn {

Result<Message> C2Service::Handle(const Message& request) {
  const OpSpec* spec = FindOpSpec(request.type);
  if (spec == nullptr) {
    return Status::ProtocolError("C2Service: unknown opcode " +
                                 std::to_string(request.type));
  }
  if (request.query_id == 0 || spec->meta) return Dispatch(*spec, request);
  // Attribute every Paillier operation this request causes to its query, so
  // C1 can report exact per-query cost even with many queries in flight.
  OpAccumulator local;
  Result<Message> resp = [&] {
    ScopedOpSink sink(&local);
    return Dispatch(*spec, request);
  }();
  RecordQueryOps(request.query_id, local.snapshot());
  return resp;
}

void C2Service::EnableIntraMessageParallelism(std::size_t threads) {
  if (threads > 1) intra_pool_ = std::make_unique<ThreadPool>(threads);
}

void C2Service::EnableRandomizerPool(std::size_t capacity,
                                     std::size_t workers) {
  RandomizerPoolOptions options;
  options.workers = workers;
  EnableRandomizerPool(capacity, options);
}

void C2Service::EnableRandomizerPool(std::size_t capacity,
                                     const RandomizerPoolOptions& options) {
  rand_pool_ = std::make_unique<RandomizerPool>(sk_.public_key().n(),
                                                capacity, options);
  sk_.mutable_public_key().set_randomizer_pool(rand_pool_.get());
}

void C2Service::StartPools(std::size_t threads, std::size_t pool_capacity,
                           bool short_exponents) {
  EnableIntraMessageParallelism(threads);
  RandomizerPoolOptions options;
  options.workers = RefillWorkersFor(threads);
  options.short_exponents = short_exponents;
  EnableRandomizerPool(pool_capacity, options);
}

std::vector<BigInt> C2Service::TakeBobOutbox(uint64_t query_id) {
  MutexLock lock(&mutex_);
  return bob_outbox_.Take(query_id);
}

OpSnapshot C2Service::TakeQueryOps(uint64_t query_id) {
  MutexLock lock(&mutex_);
  return op_ledger_.Take(query_id);
}

void C2Service::RecordQueryOps(uint64_t query_id, const OpSnapshot& ops) {
  MutexLock lock(&mutex_);
  OpSnapshot& entry = op_ledger_.Entry(query_id);
  entry = entry + ops;
}

std::vector<C2View> C2Service::TakeViews() {
  MutexLock lock(&mutex_);
  std::vector<C2View> out;
  out.swap(views_);
  return out;
}

std::vector<BigInt> C2Service::TakeBobOutbox() {
  MutexLock lock(&mutex_);
  std::vector<BigInt> out;
  for (auto& bucket : bob_outbox_.TakeAll()) {
    for (auto& v : bucket) out.push_back(std::move(v));
  }
  return out;
}

void C2Service::RecordView(Op op, const BigInt& plaintext) {
  MutexLock lock(&mutex_);
  if (record_views_) views_.push_back({op, plaintext});
}

// -- One Serve specialization per kOpTable row (proto/opcodes.h) --

template <>
Result<Message> C2Service::Serve<Op::kPing>(const Message& /*req*/,
                                            std::vector<Ciphertext> /*cts*/) {
  Message resp;
  resp.type = OpCode(Op::kPing);
  return resp;
}

// SM, Algorithm 1 step 2: h_i = D(a'_i) * D(b'_i) mod N, returned encrypted.
// The whole message runs through the batched crypto API: one DecryptMany
// over both operand columns, the cheap modmuls in the middle, one
// EncryptMany for the response, both fanned across the intra-message pool.
// Views are still recorded in instance order.
template <>
Result<Message> C2Service::Serve<Op::kSmVec>(const Message& req,
                                             std::vector<Ciphertext> cts) {
  if (cts.size() % 2 != 0) {
    return Status::ProtocolError("kSmVec: odd number of ciphertexts");
  }
  const std::size_t count = cts.size() / 2;
  const PaillierPublicKey& pk = sk_.public_key();
  ThreadPool* fan = intra_pool_.get();
  std::vector<BigInt> plain = sk_.DecryptMany(cts, fan);
  std::vector<BigInt> hs(count);
  for (std::size_t i = 0; i < count; ++i) {
    hs[i] = plain[2 * i].MulMod(plain[2 * i + 1], pk.n());
  }
  std::vector<Ciphertext> enc = pk.EncryptMany(hs, fan);
  Message resp;
  resp.type = req.type;
  resp.ints.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    resp.ints[i] = enc[i].value();
    RecordView(Op::kSmVec, plain[2 * i]);
    RecordView(Op::kSmVec, plain[2 * i + 1]);
  }
  return resp;
}

// One DecryptMany, f per plaintext, one EncryptMany; views in instance order.
Result<Message> C2Service::UnaryBatch(
    const std::vector<Ciphertext>& cts, Op view_op,
    const std::function<BigInt(const BigInt&)>& f) {
  const PaillierPublicKey& pk = sk_.public_key();
  ThreadPool* fan = intra_pool_.get();
  std::vector<BigInt> plain = sk_.DecryptMany(cts, fan);
  std::vector<BigInt> mapped(plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) mapped[i] = f(plain[i]);
  std::vector<Ciphertext> enc = pk.EncryptMany(mapped, fan);
  Message resp;
  resp.type = OpCode(view_op);
  resp.ints.resize(enc.size());
  for (std::size_t i = 0; i < enc.size(); ++i) {
    resp.ints[i] = enc[i].value();
    RecordView(view_op, plain[i]);
  }
  return resp;
}

// Secure squaring: h_i = D(a'_i)^2 mod N.
template <>
Result<Message> C2Service::Serve<Op::kSqVec>(const Message& /*req*/,
                                             std::vector<Ciphertext> cts) {
  const BigInt& n = sk_.public_key().n();
  return UnaryBatch(cts, Op::kSqVec,
                    [&n](const BigInt& a) { return a.MulMod(a, n); });
}

// SSED's packed squares: u = N - D(c) holds the slots r_j - d_j, least
// significant first. One DecryptMany, the slot sums, one EncryptMany.
template <>
Result<Message> C2Service::Serve<Op::kSqSumVec>(const Message& req,
                                                std::vector<Ciphertext> cts) {
  FrameReader r(req.aux);
  const uint32_t slot_bits = r.U32();
  const uint32_t slots = r.U32();
  SKNN_RETURN_NOT_OK(r.Done("kSqSumVec: bad aux header"));
  const PaillierPublicKey& pk = sk_.public_key();
  // Every slot lies below key_bits, so no header makes C2 read past one
  // plaintext; a zero width names the whole plaintext as one slot.
  if (slots == 0 || (slot_bits == 0 && slots != 1) ||
      uint64_t{slot_bits} * slots >= pk.key_bits()) {
    return Status::ProtocolError("kSqSumVec: slot layout out of range");
  }
  const BigInt& n = pk.n();
  ThreadPool* fan = intra_pool_.get();
  std::vector<BigInt> plain = sk_.DecryptMany(cts, fan);
  const BigInt slot_modulus = BigInt::PowerOfTwo(slot_bits);
  std::vector<BigInt> sums(plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const BigInt u = plain[i].IsZero() ? BigInt(0) : n - plain[i];
    BigInt sum(0);
    for (uint32_t s = 0; s < slots; ++s) {
      const BigInt slot =
          slot_bits == 0 ? u : u.ShiftRight(s * slot_bits).Mod(slot_modulus);
      sum += slot * slot;
      RecordView(Op::kSqSumVec, slot);
    }
    sums[i] = sum.Mod(n);
  }
  std::vector<Ciphertext> enc = pk.EncryptMany(sums, fan);
  Message resp;
  resp.type = req.type;
  resp.ints.resize(enc.size());
  for (std::size_t i = 0; i < enc.size(); ++i) resp.ints[i] = enc[i].value();
  return resp;
}

// SBD Encrypted-LSB step at bit round t: a fresh encryption of
// parity(D(Y_i) * 2^(-t) mod N). 2^t is a unit mod the odd N, so the
// unshifted y_i + r_i mod N is a public bijection of D(Y_i), which is the
// view recorded.
template <>
Result<Message> C2Service::Serve<Op::kLsbShiftVec>(
    const Message& req, std::vector<Ciphertext> cts) {
  FrameReader r(req.aux);
  const uint32_t t = r.U32();
  SKNN_RETURN_NOT_OK(r.Done("kLsbShiftVec: bad aux header"));
  const BigInt& n = sk_.public_key().n();
  if (t >= sk_.public_key().key_bits()) {
    return Status::ProtocolError("kLsbShiftVec: shift out of range");
  }
  SKNN_ASSIGN_OR_RETURN(BigInt unshift, BigInt::PowerOfTwo(t).InvMod(n));
  return UnaryBatch(cts, Op::kLsbShiftVec, [&](const BigInt& y) {
    return BigInt(y.MulMod(unshift, n).IsOdd() ? 1 : 0);
  });
}

// SMIN, Algorithm 3 step 2. Per block: decrypt L', derive alpha, raise each
// Gamma' to alpha and RE-RANDOMIZE it (the re-encryption keeps alpha hidden
// from C1 when alpha = 0 — Gamma'^0 would otherwise be the identity
// ciphertext, a visible giveaway; the paper's security argument assumes all
// values C1 receives are fresh randomized encryptions, Section 4.3).
//
// Batched shape: one DecryptMany over every block's L' column, then ONE
// RerandomizeMany over the whole response. An alpha=0 slot rerandomizes
// the deterministic encoding of 0 (1 * r^N) and the trailing alpha slot
// rerandomizes EncodeDeterministic(alpha) ((1 + alpha*N) * r^N) — value
// for value what Encrypt would have produced, with identical op counts
// (Rerandomize and Encrypt both cost/count one encryption).
//
// The table's ciphertext check covers the Gamma' values C2 passes back as
// well as the L' it decrypts.
template <>
Result<Message> C2Service::Serve<Op::kSminPhase2Vec>(
    const Message& req, std::vector<Ciphertext> cts) {
  FrameReader r(req.aux);
  const std::size_t l = r.U32();
  const std::size_t count = r.U32();
  SKNN_RETURN_NOT_OK(r.Done("kSminPhase2Vec: bad aux header"));
  // Divide rather than multiply: l * count comes from the peer and may
  // overflow, and a header that claims more than the ints present must be
  // refused before anything is sized from it.
  if (l == 0 || cts.size() % (2 * l) != 0 || cts.size() / (2 * l) != count) {
    return Status::ProtocolError("kSminPhase2Vec: bad block geometry");
  }
  const PaillierPublicKey& pk = sk_.public_key();
  const BigInt one(1);
  ThreadPool* fan = intra_pool_.get();
  // Decrypt the permuted L' vectors of every block in one batch.
  std::vector<Ciphertext> l_cts;
  l_cts.reserve(l * count);
  for (std::size_t b = 0; b < count; ++b) {
    const std::size_t base = b * 2 * l;
    for (std::size_t i = 0; i < l; ++i) l_cts.push_back(cts[base + l + i]);
  }
  std::vector<BigInt> plain = sk_.DecryptMany(l_cts, fan);
  // alpha_b = 1 iff some decrypted entry of block b equals 1.
  const Ciphertext zero_seed = pk.EncodeDeterministic(BigInt(0));
  std::vector<Ciphertext> carriers((l + 1) * count);
  for (std::size_t b = 0; b < count; ++b) {
    bool alpha = false;
    for (std::size_t i = 0; i < l; ++i) {
      if (plain[b * l + i] == one) alpha = true;
    }
    const std::size_t base = b * 2 * l;
    const std::size_t out_base = b * (l + 1);
    for (std::size_t i = 0; i < l; ++i) {
      carriers[out_base + i] = alpha ? cts[base + i] : zero_seed;
    }
    carriers[out_base + l] = pk.EncodeDeterministic(BigInt(alpha ? 1 : 0));
  }
  std::vector<Ciphertext> randomized = pk.RerandomizeMany(carriers, fan);
  Message resp;
  resp.type = req.type;
  resp.ints.resize(randomized.size());
  for (std::size_t i = 0; i < randomized.size(); ++i) {
    resp.ints[i] = randomized[i].value();
  }
  for (const BigInt& m : plain) RecordView(Op::kSminPhase2Vec, m);
  return resp;
}

// SkNN_m step 3(c): U has Epk(1) at (one of) the zero position(s) of the
// decrypted beta, Epk(0) elsewhere. One DecryptMany over beta, one
// EncryptMany for the one-hot response.
template <>
Result<Message> C2Service::Serve<Op::kMinPointerBatch>(
    const Message& /*req*/, std::vector<Ciphertext> cts) {
  const PaillierPublicKey& pk = sk_.public_key();
  const std::size_t n = cts.size();
  ThreadPool* fan = intra_pool_.get();
  std::vector<BigInt> plain = sk_.DecryptMany(cts, fan);
  std::vector<std::size_t> zero_positions;
  for (std::size_t i = 0; i < n; ++i) {
    RecordView(Op::kMinPointerBatch, plain[i]);
    if (plain[i].IsZero()) zero_positions.push_back(i);
  }
  if (zero_positions.empty()) {
    return Status::ProtocolError(
        "kMinPointerBatch: no zero entry in beta (protocol violation)");
  }
  // Ties (several records at the global minimum distance) are broken by a
  // random pick, exactly as prescribed in Section 4.2.
  std::size_t chosen =
      zero_positions[Random::ThreadLocal().UniformUint64(
          zero_positions.size())];
  std::vector<BigInt> one_hot(n);
  for (std::size_t i = 0; i < n; ++i) one_hot[i] = BigInt(i == chosen ? 1 : 0);
  std::vector<Ciphertext> enc = pk.EncryptMany(one_hot, fan);
  Message resp;
  resp.type = OpCode(Op::kMinPointerBatch);
  resp.ints.resize(n);
  for (std::size_t i = 0; i < n; ++i) resp.ints[i] = enc[i].value();
  return resp;
}

// SkNN_b step 3: decrypt all distances, return the k smallest indices.
template <>
Result<Message> C2Service::Serve<Op::kTopKIndices>(
    const Message& req, std::vector<Ciphertext> cts) {
  FrameReader r(req.aux);
  const uint32_t k = r.U32();
  SKNN_RETURN_NOT_OK(r.Done("kTopKIndices: bad aux header"));
  if (k == 0 || k > cts.size()) {
    return Status::ProtocolError("kTopKIndices: k out of range");
  }
  std::vector<BigInt> dist = sk_.DecryptMany(cts, intra_pool_.get());
  for (const auto& d : dist) RecordView(Op::kTopKIndices, d);
  std::vector<uint32_t> idx(dist.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                    [&](uint32_t a, uint32_t b) {
                      int c = dist[a].Compare(dist[b]);
                      return c != 0 ? c < 0 : a < b;  // deterministic ties
                    });
  Message resp;
  resp.type = OpCode(Op::kTopKIndices);
  FrameWriter w(resp.aux);
  for (uint32_t j = 0; j < k; ++j) w.U32(idx[j]);
  return resp;
}

// Final step of both protocols: decrypt the randomized records and queue the
// plaintexts for Bob (C2 -> Bob leg; never sent back to C1).
template <>
Result<Message> C2Service::Serve<Op::kMaskedDecryptToBob>(
    const Message& req, std::vector<Ciphertext> cts) {
  std::vector<BigInt> decrypted = sk_.DecryptMany(cts, intra_pool_.get());
  for (const auto& v : decrypted) RecordView(Op::kMaskedDecryptToBob, v);
  {
    MutexLock lock(&mutex_);
    std::vector<BigInt>& bucket = bob_outbox_.Entry(req.query_id);
    for (auto& v : decrypted) bucket.push_back(std::move(v));
  }
  Message resp;
  resp.type = OpCode(Op::kMaskedDecryptToBob);
  return resp;
}

// Bob's pickup on his own connection: a fetch returns exactly the bucket of
// its own query id (0 included), so no connection can take another
// in-flight query's results.
template <>
Result<Message> C2Service::Serve<Op::kFetchBobOutbox>(
    const Message& req, std::vector<Ciphertext> /*cts*/) {
  Message resp;
  resp.type = OpCode(Op::kFetchBobOutbox);
  resp.ints = TakeBobOutbox(req.query_id);
  return resp;
}

// A C1 engine collecting this query's C2-side Paillier cost.
template <>
Result<Message> C2Service::Serve<Op::kFetchQueryOps>(
    const Message& req, std::vector<Ciphertext> /*cts*/) {
  Message resp;
  resp.type = OpCode(Op::kFetchQueryOps);
  FrameWriter(resp.aux).Ops(TakeQueryOps(req.query_id));
  return resp;
}

// A C1 front end answering a kServiceStats control-plane frame: report this
// cloud's randomizer-pool effectiveness (capacity 0 = no pool attached).
template <>
Result<Message> C2Service::Serve<Op::kFetchPoolStats>(
    const Message& /*req*/, std::vector<Ciphertext> /*cts*/) {
  Message resp;
  resp.type = OpCode(Op::kFetchPoolStats);
  FrameWriter(resp.aux)
      .U64(rand_pool_ != nullptr ? rand_pool_->hits() : 0)
      .U64(rand_pool_ != nullptr ? rand_pool_->misses() : 0)
      .U64(rand_pool_ != nullptr ? rand_pool_->stock() : 0)
      .U64(rand_pool_ != nullptr ? rand_pool_->capacity() : 0);
  return resp;
}

Result<Message> C2Service::Dispatch(const OpSpec& spec,
                                    const Message& request) {
  // Row i is served by Serve<kOpTable[i].op>; a row without a
  // specialization fails to link.
  using Handler = Result<Message> (C2Service::*)(const Message&,
                                                 std::vector<Ciphertext>);
  static constexpr auto kHandlers =
      []<std::size_t... Row>(std::index_sequence<Row...>) {
        return std::array<Handler, sizeof...(Row)>{
            &C2Service::Serve<kOpTable[Row].op>...};
      }(std::make_index_sequence<std::size(kOpTable)>());
  if (!spec.takes_aux && !request.aux.empty()) {
    return Status::ProtocolError(std::string(spec.name) + ": unexpected aux");
  }
  std::vector<Ciphertext> cts;
  if (spec.decrypts) {
    // Any value outside Z*_{N^2} is refused before anything is decrypted:
    // C1 is a peer, and a non-unit is no ciphertext of anything.
    cts.reserve(request.ints.size());
    for (const BigInt& v : request.ints) {
      cts.emplace_back(v);
      if (!sk_.public_key().IsValidCiphertext(cts.back())) {
        return Status::CryptoError(std::string(spec.name) +
                                   ": ciphertext outside Z*_{N^2}");
      }
    }
  }
  return (this->*kHandlers[&spec - kOpTable])(request, std::move(cts));
}

}  // namespace sknn
