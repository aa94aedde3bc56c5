// Shared fixture utilities for protocol tests: spins up the two-cloud
// topology (C2 service behind the RPC server, C1-side context) around a
// fresh key pair. Small keys (256 bit) keep the suites fast; protocol
// correctness is key-size independent.
#ifndef SKNN_TESTS_PROTO_TEST_UTIL_H_
#define SKNN_TESTS_PROTO_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>

#include "bigint/random.h"
#include "crypto/paillier.h"
#include "net/message.h"
#include "net/rpc.h"
#include "proto/c2_service.h"
#include "proto/context.h"
#include "proto/opcodes.h"

namespace sknn {

class TwoPartyHarness {
 public:
  explicit TwoPartyHarness(unsigned key_bits = 256, uint64_t seed = 42,
                           std::size_t c1_threads = 1,
                           std::size_t c2_threads = 1) {
    Random rng(seed);
    auto keys = GeneratePaillierKeyPair(key_bits, rng);
    EXPECT_TRUE(keys.ok()) << keys.status();
    pk_ = keys->pk;
    c2_ = std::make_unique<C2Service>(std::move(keys->sk));

    Channel::EndpointPair link = Channel::CreatePair();
    C2Service* c2_raw = c2_.get();
    server_ = std::make_unique<RpcServer>(
        std::move(link.b),
        [c2_raw](const Message& req) { return c2_raw->Handle(req); },
        c2_threads);
    client_ = std::make_unique<RpcClient>(std::move(link.a));
    if (c1_threads > 1) pool_ = std::make_unique<ThreadPool>(c1_threads);
    ctx_ = std::make_unique<ProtoContext>(&pk_, client_.get(), pool_.get());
  }

  const PaillierPublicKey& pk() const { return pk_; }
  ProtoContext& ctx() { return *ctx_; }
  C2Service& c2() { return *c2_; }

  /// \brief Decrypt helper for assertions ("the test plays both parties").
  BigInt Decrypt(const Ciphertext& c) { return c2_->secret_key().Decrypt(c); }
  BigInt DecryptSigned(const Ciphertext& c) {
    return c2_->secret_key().DecryptSigned(c);
  }

  /// \brief Encrypts the l-bit binary expansion of `value`, MSB first — the
  /// paper's [value] notation.
  std::vector<Ciphertext> EncryptBits(uint64_t value, unsigned l) {
    Random& rng = Random::ThreadLocal();
    std::vector<Ciphertext> out(l);
    for (unsigned i = 0; i < l; ++i) {
      int bit = (value >> (l - 1 - i)) & 1;
      out[i] = pk_.Encrypt(BigInt(bit), rng);
    }
    return out;
  }

  /// \brief Decrypts an encrypted MSB-first bit vector back to an integer,
  /// failing the test if any entry is not a bit.
  uint64_t DecryptBits(const std::vector<Ciphertext>& bits) {
    uint64_t out = 0;
    for (const auto& b : bits) {
      BigInt v = Decrypt(b);
      EXPECT_TRUE(v == BigInt(0) || v == BigInt(1))
          << "non-bit plaintext: " << v;
      out = (out << 1) | v.ToUint64().value();
    }
    return out;
  }

 private:
  PaillierPublicKey pk_;
  std::unique_ptr<C2Service> c2_;
  std::unique_ptr<RpcServer> server_;
  std::unique_ptr<RpcClient> client_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ProtoContext> ctx_;
};

/// \brief A request C2 answers successfully for `op`'s kOpTable row, over
/// fresh encryptions under `pk`. Fails the calling test for an opcode with
/// no sample here, so tests that iterate the table cover a new row only
/// once it has one.
inline Message WellFormedRequest(Op op, const PaillierPublicKey& pk,
                                 Random& rng) {
  Message msg;
  msg.type = OpCode(op);
  auto enc = [&](std::initializer_list<int64_t> values) {
    for (int64_t v : values) {
      msg.ints.push_back(pk.Encrypt(BigInt(v), rng).value());
    }
  };
  FrameWriter aux(msg.aux);
  switch (op) {
    case Op::kPing:
    case Op::kFetchBobOutbox:
    case Op::kFetchQueryOps:
    case Op::kFetchPoolStats:
      break;
    case Op::kMinPointerBatch:  // beta needs a zero entry
      enc({4, 0, 7});
      break;
    case Op::kTopKIndices:
      enc({9, 5, 7});
      aux.U32(2);  // k
      break;
    case Op::kMaskedDecryptToBob:
      enc({11, 12});
      break;
    case Op::kSmVec:
      enc({6, 7});
      break;
    case Op::kSminPhase2Vec:  // one block of l = 1: Gamma' = 1, L' = 5
      enc({1, 5});
      aux.U32(1).U32(1);
      break;
    case Op::kSqVec:
      enc({7});
      break;
    case Op::kLsbShiftVec:  // Epk(2 * 7) at t = 1
      enc({14});
      aux.U32(1);
      break;
    case Op::kSqSumVec:  // two values read as four 60-bit slots each
      enc({-5, -9});
      aux.U32(60).U32(4);
      break;
    default:
      ADD_FAILURE() << "no well-formed request for opcode " << OpCode(op);
  }
  return msg;
}

}  // namespace sknn

#endif  // SKNN_TESTS_PROTO_TEST_UTIL_H_
