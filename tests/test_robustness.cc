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
  // (5), SBD's verification round (4) and the halving LSB step (11) are
  // unknown opcodes too, even carrying a request they or their successors
  // would answer.
  const auto& pk = harness_.pk();
  auto enc = [&](int64_t v) { return pk.Encrypt(BigInt(v), rng_).value(); };
  ExpectRefusedByC2(static_cast<Op>(2), {enc(1), enc(2)});
  ExpectRefusedByC2(static_cast<Op>(3), {enc(1)});
  ExpectRefusedByC2(static_cast<Op>(4), {enc(0), enc(3)});
  ExpectRefusedByC2(static_cast<Op>(5), {enc(1), enc(5)},
                    {1, 0, 0, 0, 1, 0, 0, 0});
  ExpectRefusedByC2(static_cast<Op>(11), {enc(6)});
}

TEST_F(RobustnessTest, EveryNumberWithoutARowIsUnknown) {
  // Every u16 that has no kOpTable row, the reserved numbers and kError
  // included, is answered "unknown opcode", tagged or not; C2 then still
  // answers a ping.
  for (uint16_t type : kReservedOpcodes) {
    EXPECT_EQ(FindOpSpec(type), nullptr) << type;
  }
  EXPECT_EQ(FindOpSpec(OpCode(Op::kError)), nullptr);
  std::size_t unknown = 0;
  for (uint32_t type = 0; type <= 0xFFFF; ++type) {
    if (FindOpSpec(static_cast<uint16_t>(type)) != nullptr) continue;
    ++unknown;
    Message req;
    req.type = static_cast<uint16_t>(type);
    req.query_id = type % 2;
    Result<Message> resp = harness_.c2().Handle(req);
    ASSERT_FALSE(resp.ok()) << "opcode " << type;
    EXPECT_EQ(resp.status().code(), StatusCode::kProtocolError) << type;
    EXPECT_NE(resp.status().message().find("unknown opcode"),
              std::string::npos)
        << "opcode " << type << ": " << resp.status();
  }
  EXPECT_EQ(unknown, 0x10000 - std::size(kOpTable));
  auto ping = harness_.ctx().Call(Op::kPing, {});
  ASSERT_TRUE(ping.ok()) << ping.status();
  EXPECT_EQ(ping->type, OpCode(Op::kPing));
}

TEST_F(RobustnessTest, RowsWithoutAuxRefuseAnyAux) {
  // A row's sample carries aux exactly when the row takes it. One byte of
  // aux on a row that takes none is refused, and the sample itself is
  // still served.
  for (const OpSpec& spec : kOpTable) {
    const Message sample = WellFormedRequest(spec.op, harness_.pk(), rng_);
    EXPECT_EQ(!sample.aux.empty(), spec.takes_aux) << spec.name;
    if (spec.takes_aux) continue;
    Message padded = sample;
    padded.aux.push_back(0);
    Result<Message> resp = harness_.c2().Handle(padded);
    ASSERT_FALSE(resp.ok()) << spec.name << " accepted aux";
    EXPECT_EQ(resp.status().code(), StatusCode::kProtocolError);
    EXPECT_NE(resp.status().message().find(std::string(spec.name) +
                                           ": unexpected aux"),
              std::string::npos)
        << resp.status();
    EXPECT_TRUE(harness_.c2().Handle(sample).ok()) << spec.name;
  }
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
  // Every row's well-formed request, with one int at a time replaced by
  // such a value, must be refused by C2's table check before anything is
  // decrypted; C2 then goes on serving honest requests. SMIN phase 2's
  // sample has L' = 5, so alpha = 0 and a bad Gamma' (passed back, not
  // decrypted) would otherwise be dropped silently.
  const auto& pk = harness_.pk();
  const std::vector<BigInt> hostile = {
      BigInt(0), pk.n(), harness_.c2().secret_key().p() * BigInt(3),
      pk.n_squared()};
  std::vector<Message> samples;
  for (const OpSpec& spec : kOpTable) {
    Message sample = WellFormedRequest(spec.op, pk, rng_);
    if (spec.decrypts) {
      ASSERT_FALSE(sample.ints.empty()) << spec.name;
    }
    for (std::size_t at = 0; at < sample.ints.size(); ++at) {
      for (const BigInt& bad : hostile) {
        std::vector<BigInt> ints = sample.ints;
        ints[at] = bad;
        auto resp = harness_.ctx().Call(spec.op, std::move(ints), sample.aux);
        ASSERT_FALSE(resp.ok()) << spec.name << " accepted a non-unit";
        EXPECT_NE(resp.status().message().find(
                      std::string(spec.name) + ": ciphertext outside"),
                  std::string::npos)
            << resp.status();
      }
    }
    samples.push_back(std::move(sample));
  }
  EXPECT_TRUE(harness_.c2().TakeBobOutbox().empty());
  for (const Message& sample : samples) {
    auto resp = harness_.ctx().Call(static_cast<Op>(sample.type),
                                    sample.ints, sample.aux);
    EXPECT_TRUE(resp.ok()) << "opcode " << sample.type << ": "
                           << resp.status();
  }
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
  // A request that mixes non-units (0, N^2) with units is refused whole by
  // C2 with a protocol error, before anything is decrypted.
  std::vector<BigInt> garbage = {BigInt(0), harness_.pk().n_squared(),
                                 BigInt(12345), BigInt(1)};
  std::vector<uint8_t> t0;
  FrameWriter(t0).U32(0);
  ExpectRefusedByC2(Op::kLsbShiftVec, garbage, t0);
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
