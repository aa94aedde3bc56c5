#include "common/sha256.h"

#include <openssl/evp.h>

#include "common/logging.h"

namespace sknn {
namespace {

/// SHA-256 fetched once: EVP_DigestInit_ex with the legacy EVP_sha256()
/// would fetch the implementation again on every hash.
const EVP_MD* Sha256Md() {
  static const EVP_MD* const md = EVP_MD_fetch(nullptr, "SHA256", nullptr);
  return md;
}

}  // namespace

// OpenSSL fails these calls only on allocation failure; the interface has
// no error to return, so that is fatal.
Sha256::Sha256() : ctx_(EVP_MD_CTX_new()) {
  SKNN_CHECK(ctx_ != nullptr && Sha256Md() != nullptr &&
             EVP_DigestInit_ex(ctx_, Sha256Md(), nullptr) == 1);
}

Sha256::~Sha256() { EVP_MD_CTX_free(ctx_); }

void Sha256::Update(const void* data, std::size_t len) {
  SKNN_CHECK(EVP_DigestUpdate(ctx_, data, len) == 1);
}

std::array<uint8_t, Sha256::kDigestLen> Sha256::Finish() {
  std::array<uint8_t, kDigestLen> digest;
  SKNN_CHECK(EVP_DigestFinal_ex(ctx_, digest.data(), nullptr) == 1);
  return digest;
}

std::array<uint8_t, Sha256::kDigestLen> Sha256::Digest(const void* data,
                                                       std::size_t len) {
  Sha256 hasher;
  hasher.Update(data, len);
  return hasher.Finish();
}

std::string Sha256::HexDigest(const std::string& text) {
  const auto digest = Digest(text.data(), text.size());
  static constexpr char kHex[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(2 * kDigestLen);
  for (uint8_t byte : digest) {
    hex.push_back(kHex[byte >> 4]);
    hex.push_back(kHex[byte & 0xf]);
  }
  return hex;
}

}  // namespace sknn
