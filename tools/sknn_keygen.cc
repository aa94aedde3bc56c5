// sknn_keygen — Alice's key ceremony.
//
//   sknn_keygen --bits 1024 --public pk.txt --secret sk.txt
//
// The public key file travels with the encrypted database to C1 (and to
// every authorized user); the secret key file goes to C2 only.
#include <cstdio>

#include "crypto/serialization.h"
#include "tools/tool_util.h"

int main(int argc, char** argv) {
  using namespace sknn;
  using namespace sknn::tools;
  const char* usage =
      "sknn_keygen --bits <N> --public <pk-file> --secret <sk-file>";
  auto flags = ParseFlags(argc, argv, {"bits", "public", "secret"}, usage);
  unsigned bits = static_cast<unsigned>(ParseUint64OrDie(
      FlagOr(flags, "bits", "1024"), "bits", usage, 16, 1u << 20));
  std::string pk_path = RequireFlag(flags, "public", usage);
  std::string sk_path = RequireFlag(flags, "secret", usage);

  auto keys = GeneratePaillierKeyPair(bits);
  if (!keys.ok()) {
    std::fprintf(stderr, "keygen failed: %s\n",
                 keys.status().ToString().c_str());
    return 1;
  }
  Status s = WritePublicKeyFile(pk_path, keys->pk);
  if (s.ok()) s = WriteSecretKeyFile(sk_path, keys->sk);
  if (!s.ok()) {
    std::fprintf(stderr, "write failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("generated %u-bit Paillier key pair\n  public: %s\n  secret: %s"
              "\n(ship the secret key to C2 only)\n",
              bits, pk_path.c_str(), sk_path.c_str());
  return 0;
}
