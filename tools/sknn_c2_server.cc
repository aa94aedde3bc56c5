// sknn_c2_server — the standalone key-holder cloud C2.
//
//   sknn_c2_server --secret sk.txt --port 9000 [--workers 2]
//                  [--connections N] [--pool-capacity N]
//                  [--no-short-randomizers]
//
// Serves the C2 side of every sub-protocol over TCP. C1 connects with one
// link; each querying user (Bob) connects with his own link to pick up
// results — C2 never routes Bob's data through C1. With --connections N the
// server exits after N links close (for scripted runs); otherwise it serves
// until SIGINT/SIGTERM, either of which stops accepting, drains in-flight
// handlers and exits 0. --workers also enables intra-message fan-out for
// the batched opcodes. Response encryptions draw from a randomizer pool
// that holds --pool-capacity precomputed r^N values and refills on
// background threads sized from --workers. Refills use the short-exponent
// fixed-base path (docs/CRYPTO.md); --no-short-randomizers selects the
// assumption-free full-width reference generation instead.
#include <cstdio>
#include <vector>

#include "crypto/serialization.h"
#include "net/rpc.h"
#include "net/socket.h"
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

  auto listener = TcpListener::Bind(port);
  if (!listener.ok()) {
    std::fprintf(stderr, "%s\n", listener.status().ToString().c_str());
    return 1;
  }
  // SIGINT/SIGTERM: the handler shutdown(2)s the listening fd, so the
  // blocked Accept below returns and the drain path runs.
  InstallShutdownHandler(listener->native_handle());
  std::printf("C2 key-holder serving on 127.0.0.1:%u (workers=%zu)\n",
              listener->port(), workers);
  std::fflush(stdout);

  std::vector<std::unique_ptr<RpcServer>> sessions;
  for (long served = 0; connections < 0 || served < connections; ++served) {
    auto endpoint = listener->Accept();
    if (ShutdownRequested()) break;
    if (!endpoint.ok()) {
      std::fprintf(stderr, "accept failed: %s\n",
                   endpoint.status().ToString().c_str());
      break;
    }
    std::printf("connection %ld established\n", served + 1);
    std::fflush(stdout);
    sessions.push_back(std::make_unique<RpcServer>(
        std::move(endpoint).value(),
        [&c2](const Message& req) { return c2.Handle(req); }, workers));
  }
  if (ShutdownRequested()) {
    // Signal: unbind (done — the handler killed the listener), finish any
    // in-flight handlers, close the links, exit clean.
    listener->Close();
    for (auto& session : sessions) session->Shutdown();
    std::printf("signal received; drained %zu connection%s and shut down\n",
                sessions.size(), sessions.size() == 1 ? "" : "s");
    return 0;
  }
  // Scripted mode: serve every accepted link to completion, then exit.
  for (auto& session : sessions) session->WaitForClose();
  std::printf("all connections closed; shutting down\n");
  return 0;
}
