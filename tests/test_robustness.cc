// Robustness tests: C2Service under malformed or adversarial requests, and
// the batch-call plumbing's edge cases. A semi-honest C2 still receives
// requests over a real link — bad geometry must produce a clean protocol
// error, never a crash or a silent wrong answer.
#include <gtest/gtest.h>

#include "net/message.h"
#include "proto/sm.h"
#include "tests/proto_test_util.h"

namespace sknn {
namespace {

class RobustnessTest : public ::testing::Test {
 protected:
  // Sends a raw request and expects a clean error response.
  void ExpectError(Op op, std::vector<BigInt> ints,
                   std::vector<uint8_t> aux = {}) {
    auto resp = harness_.ctx().Call(op, std::move(ints), std::move(aux));
    EXPECT_FALSE(resp.ok()) << "opcode " << OpCode(op)
                            << " accepted malformed input";
    EXPECT_EQ(resp.status().code(), StatusCode::kProtocolError);
  }

  // As ExpectError, and the refusal is C2's own, not C1's check of what C2
  // sent back.
  void ExpectRefusedByC2(Op op, std::vector<BigInt> ints,
                         std::vector<uint8_t> aux = {}) {
    auto resp = harness_.ctx().Call(op, std::move(ints), std::move(aux));
    ASSERT_FALSE(resp.ok()) << "opcode " << OpCode(op)
                            << " accepted malformed input";
    EXPECT_EQ(resp.status().code(), StatusCode::kProtocolError);
    EXPECT_NE(resp.status().message().find("C2 error"), std::string::npos)
        << "opcode " << OpCode(op) << ": " << resp.status();
  }

  TwoPartyHarness harness_;
  Random rng_{12321};
};

TEST_F(RobustnessTest, UnknownOpcodeIsRejected) {
  ExpectError(static_cast<Op>(0x7777), {});
  // The retired chunked forms of SM (2), SBD's LSB step (3) and SMIN phase 2
  // (5) are unknown opcodes too, even carrying a request their one-message
  // forms would answer.
  const auto& pk = harness_.pk();
  auto enc = [&](int64_t v) { return pk.Encrypt(BigInt(v), rng_).value(); };
  ExpectRefusedByC2(static_cast<Op>(2), {enc(1), enc(2)});
  ExpectRefusedByC2(static_cast<Op>(3), {enc(1)});
  ExpectRefusedByC2(static_cast<Op>(5), {enc(1), enc(5)},
                    {1, 0, 0, 0, 1, 0, 0, 0});
}

TEST_F(RobustnessTest, SmBatchOddOperandCount) {
  ExpectError(Op::kSmVec, {harness_.pk().Encrypt(BigInt(1), rng_).value()});
}

TEST_F(RobustnessTest, SminPhase2BadAux) {
  const auto& pk = harness_.pk();
  // Missing aux entirely.
  ExpectError(Op::kSminPhase2Vec, {pk.Encrypt(BigInt(1), rng_).value()});
  // Aux present but geometry inconsistent: l=4, count=1 needs 8 ints.
  std::vector<uint8_t> aux = {4, 0, 0, 0, 1, 0, 0, 0};
  ExpectError(Op::kSminPhase2Vec, {pk.Encrypt(BigInt(1), rng_).value()},
              aux);
  // l = 0.
  std::vector<uint8_t> zero_l = {0, 0, 0, 0, 1, 0, 0, 0};
  ExpectError(Op::kSminPhase2Vec, {}, zero_l);
}

TEST_F(RobustnessTest, SminPhase2OverflowingGeometryIsRejected) {
  // l = 2^31 and count = 1 with no ints: 2*l wraps to 0 in 32 bits, so a
  // 32-bit geometry check would accept the frame and size a 2^31-entry
  // vector from the header.
  std::vector<uint8_t> aux = {0, 0, 0, 0x80, 1, 0, 0, 0};
  ExpectError(Op::kSminPhase2Vec, {}, aux);
  // l = count = 2^32 - 1: l * count overflows 64 bits as well.
  std::vector<uint8_t> huge = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  ExpectError(Op::kSminPhase2Vec, {}, huge);
  // C2 is still serving.
  auto ping = harness_.ctx().Call(Op::kPing, {});
  EXPECT_TRUE(ping.ok()) << ping.status();
}

TEST_F(RobustnessTest, LsbShiftRejectsHostileFrames) {
  // kLsbShiftVec carries the bit round t as exactly one u32 in aux. A wrong
  // aux length and a t at or past key_bits (C2 would size 2^t from it) are
  // refused by C2 before it decrypts; EveryDecryptingOpcodeRejectsNonUnits
  // covers its ciphertext check.
  const auto& pk = harness_.pk();
  auto enc = [&](int64_t v) { return pk.Encrypt(BigInt(v), rng_).value(); };
  auto aux_for = [](uint32_t t) {
    std::vector<uint8_t> aux;
    FrameWriter(aux).U32(t);
    return aux;
  };
  ExpectRefusedByC2(Op::kLsbShiftVec, {enc(3)}, {1, 0, 0, 0, 0, 0, 0, 0});
  ExpectRefusedByC2(Op::kLsbShiftVec, {enc(3)}, {1, 0, 0});
  ExpectRefusedByC2(Op::kLsbShiftVec, {enc(3)});
  for (uint32_t t : {pk.key_bits(), pk.key_bits() + 1, 1u << 20}) {
    ExpectRefusedByC2(Op::kLsbShiftVec, {enc(3)}, aux_for(t));
  }
  // C2 is still serving: Epk(2 * 7) at t = 1 has parity(7) = 1.
  auto resp = harness_.ctx().Call(Op::kLsbShiftVec, {enc(14)}, aux_for(1));
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_EQ(resp->ints.size(), 1u);
  EXPECT_EQ(harness_.Decrypt(Ciphertext(resp->ints[0])), BigInt(1));
}

TEST_F(RobustnessTest, SqSumRejectsHostileLayouts) {
  // kSqSumVec's aux is [slot_bits:u32][slots:u32]. No slots, slots that
  // reach key_bits, zero-width slots beyond the one whole-plaintext slot,
  // and a short or missing aux are refused by C2 before it decrypts or
  // sizes anything. 2^31 slots of one bit would have C2 read 2^31 slots.
  const auto& pk = harness_.pk();
  auto enc = [&](int64_t v) { return pk.Encrypt(BigInt(v), rng_).value(); };
  auto layout = [](uint32_t slot_bits, uint32_t slots) {
    std::vector<uint8_t> aux;
    FrameWriter(aux).U32(slot_bits).U32(slots);
    return aux;
  };
  const uint32_t key_bits = pk.key_bits();
  ExpectRefusedByC2(Op::kSqSumVec, {enc(3)}, layout(134, 0));
  ExpectRefusedByC2(Op::kSqSumVec, {enc(3)}, layout(key_bits / 2, 2));
  ExpectRefusedByC2(Op::kSqSumVec, {enc(3)}, layout(1, key_bits));
  ExpectRefusedByC2(Op::kSqSumVec, {enc(3)}, layout(key_bits, 1));
  ExpectRefusedByC2(Op::kSqSumVec, {enc(3)}, layout(1, 1u << 31));
  ExpectRefusedByC2(Op::kSqSumVec, {enc(3)}, layout(0xFFFFFFFFu, 0xFFFFFFFFu));
  ExpectRefusedByC2(Op::kSqSumVec, {enc(3)}, layout(0, 2));
  ExpectRefusedByC2(Op::kSqSumVec, {enc(3)}, {60, 0, 0});
  ExpectRefusedByC2(Op::kSqSumVec, {enc(3)});
  // C2 is still serving. Four 60-bit slots u = 3, 5, 7, 11 sent as
  // Epk(-U) come back as Epk(9 + 25 + 49 + 121); the whole-plaintext slot
  // squares D(c) itself.
  const BigInt u = BigInt(3) + BigInt(5).ShiftLeft(60) +
                   BigInt(7).ShiftLeft(120) + BigInt(11).ShiftLeft(180);
  auto packed = harness_.ctx().Call(
      Op::kSqSumVec, {pk.Encrypt(pk.n() - u, rng_).value()}, layout(60, 4));
  ASSERT_TRUE(packed.ok()) << packed.status();
  ASSERT_EQ(packed->ints.size(), 1u);
  EXPECT_EQ(harness_.Decrypt(Ciphertext(packed->ints[0])), BigInt(204));
  auto whole = harness_.ctx().Call(Op::kSqSumVec, {enc(-12)}, layout(0, 1));
  ASSERT_TRUE(whole.ok()) << whole.status();
  ASSERT_EQ(whole->ints.size(), 1u);
  EXPECT_EQ(harness_.Decrypt(Ciphertext(whole->ints[0])), BigInt(144));
}

TEST_F(RobustnessTest, EveryDecryptingOpcodeRejectsNonUnits) {
  // 0, N, a multiple of the secret prime p, and N^2 are not in Z*_{N^2}.
  // Each decrypting opcode gets a request that is well formed except for
  // one such value, and must refuse it before decrypting; C2 then goes on
  // serving honest requests.
  const auto& pk = harness_.pk();
  auto enc = [&](int64_t v) { return pk.Encrypt(BigInt(v), rng_).value(); };
  const std::vector<BigInt> hostile = {
      BigInt(0), pk.n(), harness_.c2().secret_key().p() * BigInt(3),
      pk.n_squared()};
  const std::vector<uint8_t> one_block = {1, 0, 0, 0, 1, 0, 0, 0};
  const std::vector<uint8_t> k1 = {1, 0, 0, 0};
  const std::vector<uint8_t> t5 = {5, 0, 0, 0};
  const std::vector<uint8_t> whole = {0, 0, 0, 0, 1, 0, 0, 0};
  for (const BigInt& bad : hostile) {
    ExpectRefusedByC2(Op::kSmVec, {enc(3), bad});
    ExpectRefusedByC2(Op::kSqVec, {bad});
    ExpectRefusedByC2(Op::kSqSumVec, {enc(2), bad}, whole);
    ExpectRefusedByC2(Op::kLsbVec, {bad});
    ExpectRefusedByC2(Op::kLsbShiftVec, {enc(4), bad}, t5);
    ExpectRefusedByC2(Op::kSvrCheckBatch, {bad});
    // Gamma' (passed back to C1) and L' (decrypted) are both checked. L' = 5
    // gives alpha = 0, so a bad Gamma' would otherwise be dropped silently.
    ExpectRefusedByC2(Op::kSminPhase2Vec, {bad, enc(5)}, one_block);
    ExpectRefusedByC2(Op::kSminPhase2Vec, {enc(1), bad}, one_block);
    ExpectRefusedByC2(Op::kMinPointerBatch, {bad, enc(0)});
    ExpectRefusedByC2(Op::kTopKIndices, {enc(4), bad}, k1);
    ExpectRefusedByC2(Op::kMaskedDecryptToBob, {bad});
  }
  EXPECT_TRUE(harness_.c2().TakeBobOutbox().empty());
  auto squares =
      SecureSquareBatch(harness_.ctx(), {pk.Encrypt(BigInt(7), rng_)});
  ASSERT_TRUE(squares.ok()) << squares.status();
  EXPECT_EQ(harness_.Decrypt((*squares)[0]), BigInt(49));
  auto products = SecureMultiplyBatch(harness_.ctx(),
                                      {pk.Encrypt(BigInt(6), rng_)},
                                      {pk.Encrypt(BigInt(7), rng_)});
  ASSERT_TRUE(products.ok()) << products.status();
  EXPECT_EQ(harness_.Decrypt((*products)[0]), BigInt(42));
}

TEST_F(RobustnessTest, MinPointerWithNoZeroEntry) {
  // A beta vector with no zero is a protocol violation (the minimum always
  // matches itself); C2 must flag it rather than fabricate a pointer.
  const auto& pk = harness_.pk();
  std::vector<BigInt> beta;
  for (int i = 1; i <= 4; ++i) {
    beta.push_back(pk.Encrypt(BigInt(i), rng_).value());
  }
  ExpectError(Op::kMinPointerBatch, std::move(beta));
}

TEST_F(RobustnessTest, TopKBadK) {
  const auto& pk = harness_.pk();
  std::vector<BigInt> dists = {pk.Encrypt(BigInt(5), rng_).value(),
                               pk.Encrypt(BigInt(9), rng_).value()};
  std::vector<uint8_t> k0 = {0, 0, 0, 0};
  ExpectError(Op::kTopKIndices, dists, k0);
  std::vector<uint8_t> k3 = {3, 0, 0, 0};  // k > n
  ExpectError(Op::kTopKIndices, dists, k3);
  ExpectError(Op::kTopKIndices, dists, {});  // no aux at all
}

TEST_F(RobustnessTest, TopKHappyPathStillWorks) {
  const auto& pk = harness_.pk();
  std::vector<BigInt> dists = {pk.Encrypt(BigInt(9), rng_).value(),
                               pk.Encrypt(BigInt(5), rng_).value(),
                               pk.Encrypt(BigInt(7), rng_).value()};
  std::vector<uint8_t> k2 = {2, 0, 0, 0};
  auto resp = harness_.ctx().Call(Op::kTopKIndices, dists, k2);
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_EQ(resp->aux.size(), 8u);
  EXPECT_EQ(resp->aux[0], 1);  // index of distance 5
  EXPECT_EQ(resp->aux[4], 2);  // index of distance 7
}

TEST_F(RobustnessTest, PingRoundTrip) {
  auto resp = harness_.ctx().Call(Op::kPing, {});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->type, OpCode(Op::kPing));
}

TEST_F(RobustnessTest, CallBatchRejectsBadArity) {
  std::vector<BigInt> three = {BigInt(1), BigInt(2), BigInt(3)};
  auto r = harness_.ctx().CallBatch(Op::kSmVec, three, 2, 1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  auto zero = harness_.ctx().CallBatch(Op::kSmVec, three, 0, 1);
  EXPECT_FALSE(zero.ok());
}

TEST_F(RobustnessTest, CallBatchEmptyInputShortCircuits) {
  auto r = harness_.ctx().CallBatch(Op::kSmVec, {}, 2, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST_F(RobustnessTest, GarbageCiphertextsFailCleanly) {
  // Values that are not valid ciphertexts (not units mod N^2) still decrypt
  // to *something* under Paillier math or error out; either way the call
  // must return, and the protocol layer never crashes.
  std::vector<BigInt> garbage = {BigInt(0), harness_.pk().n_squared(),
                                 BigInt(12345), BigInt(1)};
  auto resp = harness_.ctx().Call(Op::kLsbVec, garbage);
  // Accept either a clean error or a response of the right shape.
  if (resp.ok()) {
    EXPECT_EQ(resp->ints.size(), garbage.size());
  }
}

TEST_F(RobustnessTest, SmSurvivesManySequentialBatches) {
  // Soak: repeated batches over one connection (correlation ids keep
  // increasing, allocations recycle).
  const auto& pk = harness_.pk();
  for (int round = 0; round < 20; ++round) {
    std::vector<Ciphertext> as, bs;
    for (int i = 0; i < 5; ++i) {
      as.push_back(pk.Encrypt(BigInt(round + i), rng_));
      bs.push_back(pk.Encrypt(BigInt(2 * i + 1), rng_));
    }
    auto r = SecureMultiplyBatch(harness_.ctx(), as, bs);
    ASSERT_TRUE(r.ok()) << "round " << round;
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(harness_.Decrypt((*r)[i]),
                BigInt((round + i) * (2 * i + 1)));
    }
  }
}

// A frame's int count is the peer's claim, not a size to allocate: a
// 26-byte frame announcing 0xFFFFFFFF ints (~64 GB of BigInt slots) must be
// refused as truncated, without reserving memory for the claim first.
TEST(HostileFrameTest, HugeIntCountInTinyFrameIsRejected) {
  Message msg;
  msg.type = 1;
  std::vector<uint8_t> frame = WireCodec::Encode(msg);
  ASSERT_EQ(frame.size(), 26u);  // 22-byte header + empty aux length
  for (std::size_t i = 18; i < 22; ++i) frame[i] = 0xFF;  // n_ints
  Result<Message> decoded = WireCodec::Decode(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kProtocolError)
      << decoded.status();
}

// A hostile C2 answers every SM round with one value outside Z*_{N^2}:
// zero, N, a multiple of the secret prime p, or N^2 itself. None has an
// inverse mod N^2, so C1 must refuse the reply with a typed error before
// it computes with (and negates) it.
TEST(HostileC2Test, SmReplyOutsideUnitGroupIsRejected) {
  Random rng(777);
  auto keys = GeneratePaillierKeyPair(256, rng);
  ASSERT_TRUE(keys.ok()) << keys.status();
  const PaillierPublicKey& pk = keys->pk;
  const std::vector<BigInt> hostile = {BigInt(0), pk.n(),
                                       keys->sk.p() * BigInt(3),
                                       pk.n_squared()};
  for (const BigInt& bad : hostile) {
    Channel::EndpointPair link = Channel::CreatePair();
    RpcServer server(std::move(link.b),
                     [&bad](const Message& req) -> Result<Message> {
                       Message resp;
                       resp.type = req.type;
                       resp.ints.assign(req.ints.size() / 2, bad);
                       return resp;
                     });
    RpcClient client(std::move(link.a));
    ProtoContext ctx(&pk, &client);
    std::vector<Ciphertext> as = {pk.Encrypt(BigInt(3), rng),
                                  pk.Encrypt(BigInt(4), rng)};
    auto r = SecureMultiplyBatch(ctx, as, as);
    ASSERT_FALSE(r.ok()) << "accepted C2 reply " << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kProtocolError) << r.status();
  }
}

// The same for the squaring round: a C2 that answers kSqVec with a non-unit
// must be refused by C1 before the value enters the homomorphic sum.
TEST(HostileC2Test, SquareReplyOutsideUnitGroupIsRejected) {
  Random rng(778);
  auto keys = GeneratePaillierKeyPair(256, rng);
  ASSERT_TRUE(keys.ok()) << keys.status();
  const PaillierPublicKey& pk = keys->pk;
  const std::vector<BigInt> hostile = {BigInt(0), pk.n(),
                                       keys->sk.p() * BigInt(3),
                                       pk.n_squared()};
  for (const BigInt& bad : hostile) {
    Channel::EndpointPair link = Channel::CreatePair();
    RpcServer server(std::move(link.b),
                     [&bad](const Message& req) -> Result<Message> {
                       Message resp;
                       resp.type = req.type;
                       resp.ints.assign(req.ints.size(), bad);
                       return resp;
                     });
    RpcClient client(std::move(link.a));
    ProtoContext ctx(&pk, &client);
    auto r = SecureSquareBatch(ctx, {pk.Encrypt(BigInt(3), rng),
                                     pk.Encrypt(BigInt(4), rng)});
    ASSERT_FALSE(r.ok()) << "accepted C2 reply " << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kProtocolError) << r.status();
  }
}

}  // namespace
}  // namespace sknn
