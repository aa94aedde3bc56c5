// sknn_c2_server — the standalone key-holder cloud C2.
//
//   sknn_c2_server --secret sk.txt --port 9000 [--workers 2]
//                  [--connections N] [--pool-capacity N]
//                  [--no-short-randomizers]
//
// Serves the C2 side of every sub-protocol over TCP, one RpcServer per
// link (net/rpc_listener.h). Each C1 front end, shard worker and table
// reload dials its own link, and a closed link's session is freed on the
// next accept. Bob's masked results leave C2 on C1's link too: C1's engine
// fetches them with kFetchBobOutbox and unmasks them as Bob's agent, since
// it holds Bob's masks (docs/DEPLOY.md, "Trust model of the thin-client
// split"). With --connections N the server exits once N links were
// accepted and all have closed (for scripted runs); otherwise it serves
// until SIGINT/SIGTERM, either of which stops accepting, drains in-flight
// handlers and exits 0. --workers sizes each link's handler pool and also
// enables intra-message fan-out for the batched opcodes. Response
// encryptions draw from a randomizer pool that holds --pool-capacity
// precomputed r^N values and refills on background threads sized from
// --workers. Refills use the short-exponent fixed-base path
// (docs/CRYPTO.md); --no-short-randomizers selects the
// assumption-free full-width reference generation instead.
#include <cstdio>

#include "crypto/serialization.h"
#include "net/rpc_listener.h"
#include "proto/c2_service.h"
#include "tools/tool_util.h"

int main(int argc, char** argv) {
  using namespace sknn;
  using namespace sknn::tools;
  const char* usage =
      "sknn_c2_server --secret <sk-file> --port <p> [--workers N] "
      "[--connections N] [--pool-capacity N] [--no-short-randomizers]";
  auto flags = ParseFlags(argc, argv,
                          {"secret", "port", "workers", "connections",
                           "pool-capacity", "no-short-randomizers"},
                          usage);
  std::string sk_path = RequireFlag(flags, "secret", usage);
  uint16_t port = ParsePortOrDie(RequireFlag(flags, "port", usage), "port",
                                 usage);
  std::size_t workers = static_cast<std::size_t>(ParseUint64OrDie(
      FlagOr(flags, "workers", "1"), "workers", usage, 1, 4096));
  long connections = static_cast<long>(ParseInt64OrDie(
      FlagOr(flags, "connections", "-1"), "connections", usage, -1));
  std::size_t pool_capacity = static_cast<std::size_t>(
      ParseUint64OrDie(FlagOr(flags, "pool-capacity", "4096"),
                       "pool-capacity", usage, 1, uint64_t{1} << 30));

  auto sk = ReadSecretKeyFile(sk_path);
  if (!sk.ok()) {
    std::fprintf(stderr, "%s\n", sk.status().ToString().c_str());
    return 1;
  }
  C2Service c2(std::move(sk).value());
  c2.StartPools(workers, pool_capacity, !flags.count("no-short-randomizers"));

  auto listener = RpcListener::Start(
      port,
      [&c2]() -> RpcServer::Handler {
        return [&c2](const Message& req) { return c2.Handle(req); };
      },
      workers);
  if (!listener.ok()) {
    std::fprintf(stderr, "%s\n", listener.status().ToString().c_str());
    return 1;
  }
  InstallShutdownHandler();
  std::printf("C2 key-holder serving on 127.0.0.1:%u (workers=%zu)\n",
              (*listener)->port(), workers);
  std::fflush(stdout);

  ServeUntilDone(**listener, connections, "connection");
  return 0;
}
