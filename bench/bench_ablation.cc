// Ablation of the design choices DESIGN.md calls out:
//   1. SBD's verification round (SVR) on vs off — the cost of converting
//      the probabilistic protocol into an (almost surely) exact one;
//   2. SMIN_n tournament (batched, log-depth) vs the naive sequential
//      linear scan — same SMIN count, very different round-trip structure.
#include "bench/bench_util.h"
#include "net/rpc.h"
#include "proto/c2_service.h"
#include "proto/sbd.h"
#include "proto/smin.h"

namespace sknn {
namespace {

struct Harness {
  explicit Harness(unsigned key_bits) {
    Random rng(key_bits + 1);
    auto keys = GeneratePaillierKeyPair(key_bits, rng).value();
    pk = keys.pk;
    c2 = std::make_unique<C2Service>(std::move(keys.sk));
    auto link = Channel::CreatePair();
    channel = &link.a->channel();
    server = std::make_unique<RpcServer>(
        std::move(link.b),
        [this](const Message& req) { return c2->Handle(req); }, 1);
    client = std::make_unique<RpcClient>(std::move(link.a));
    ctx = std::make_unique<ProtoContext>(&pk, client.get(), nullptr);
  }

  std::vector<Ciphertext> EncryptBits(uint64_t value, unsigned l) {
    Random& rng = Random::ThreadLocal();
    std::vector<Ciphertext> out(l);
    for (unsigned i = 0; i < l; ++i) {
      out[i] = pk.Encrypt(BigInt((value >> (l - 1 - i)) & 1), rng);
    }
    return out;
  }

  PaillierPublicKey pk;
  Channel* channel = nullptr;
  std::unique_ptr<C2Service> c2;
  std::unique_ptr<RpcServer> server;
  std::unique_ptr<RpcClient> client;
  std::unique_ptr<ProtoContext> ctx;
};

void AblateSbdVerification(Harness& h) {
  Random rng(4);
  const unsigned l = 12;
  const int batch = 64;
  std::vector<Ciphertext> zs;
  for (int i = 0; i < batch; ++i) {
    zs.push_back(h.pk.Encrypt(BigInt(static_cast<int64_t>(
                                  rng.UniformUint64(1 << l))),
                              rng));
  }
  SbdOptions with;
  with.l = l;
  with.verify = true;
  SbdOptions without = with;
  without.verify = false;

  Stopwatch sw;
  auto r1 = BitDecomposeBatch(*h.ctx, zs, with);
  double with_s = sw.ElapsedSeconds();
  sw.Reset();
  auto r2 = BitDecomposeBatch(*h.ctx, zs, without);
  double without_s = sw.ElapsedSeconds();
  if (!r1.ok() || !r2.ok()) {
    std::fprintf(stderr, "SBD ablation failed\n");
    std::exit(1);
  }
  std::printf("%-34s l=%-5u verify=%8.2f ms/val  unverified=%8.2f ms/val  "
              "overhead=%.1f%%\n",
              "1. SBD verification round", l, 1e3 * with_s / batch,
              1e3 * without_s / batch, 100.0 * (with_s / without_s - 1.0));
}

void AblateTournamentVsLinear(Harness& h) {
  Random rng(5);
  const unsigned l = 6;
  // The two orderings issue the same n-1 SMINs; the tournament batches a
  // whole round into 2 messages while the scan serializes 2(n-1) round
  // trips. On a zero-latency in-process link both look alike, so measure
  // at 0 and at a LAN-like 2 ms one-way latency.
  for (auto latency : {std::chrono::microseconds(0),
                       std::chrono::microseconds(2000)}) {
    h.channel->set_latency(latency);
    for (std::size_t n : {8u, 32u}) {
      std::vector<std::vector<Ciphertext>> ds;
      for (std::size_t i = 0; i < n; ++i) {
        ds.push_back(h.EncryptBits(rng.UniformUint64(1 << l), l));
      }
      Stopwatch sw;
      auto t = SecureMinN(*h.ctx, ds);
      double tour_s = sw.ElapsedSeconds();
      sw.Reset();
      auto lin = SecureMinNLinear(*h.ctx, ds);
      double lin_s = sw.ElapsedSeconds();
      if (!t.ok() || !lin.ok()) {
        std::fprintf(stderr, "SMIN_n ablation failed\n");
        std::exit(1);
      }
      std::printf("%-34s n=%-3zu latency=%4lldus  tournament=%7.2f s  "
                  "linear-scan=%7.2f s  speedup=%.2fx\n",
                  "2. SMIN_n tournament vs linear", n,
                  static_cast<long long>(latency.count()), tour_s, lin_s,
                  lin_s / tour_s);
    }
  }
  h.channel->set_latency(std::chrono::microseconds(0));
}

}  // namespace
}  // namespace sknn

int main() {
  using namespace sknn;
  std::printf("# Ablation of DESIGN.md design choices (key size 512)\n");
  Harness h512(512);
  AblateSbdVerification(h512);
  AblateTournamentVsLinear(h512);
  return 0;
}
