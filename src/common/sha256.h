// SHA-256 (FIPS 180-4) over OpenSSL's EVP digest interface, the libcrypto
// the Montgomery kernel (bigint/modexp.h) already links.
//
// Two consumers, neither of which needs a general-purpose hash API:
//  - serve/qos/api_key_auth.h stores salted digests of API keys so the keys
//    file on disk never holds a raw credential, and
//  - serve/qos/result_cache.h fingerprints (table, query, knobs) tuples into
//    fixed-size cache keys.
// Both want a one-shot "bytes in, 32 bytes out" function; the streaming
// Update/Finish shape exists so callers can hash several fields without
// concatenating them into a temporary buffer first.
#ifndef SKNN_COMMON_SHA256_H_
#define SKNN_COMMON_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

struct evp_md_ctx_st;  // OpenSSL's EVP_MD_CTX

namespace sknn {

/// \brief Streaming SHA-256. Update() any number of times, then Finish()
/// exactly once; the object is single-use.
class Sha256 {
 public:
  static constexpr std::size_t kDigestLen = 32;

  Sha256();
  ~Sha256();

  Sha256(const Sha256&) = delete;
  Sha256& operator=(const Sha256&) = delete;

  void Update(const void* data, std::size_t len);
  void Update(const std::string& text) { Update(text.data(), text.size()); }

  /// \brief Finalizes padding and returns the 32-byte digest.
  std::array<uint8_t, kDigestLen> Finish();

  /// \brief One-shot convenience: digest of a single buffer.
  static std::array<uint8_t, kDigestLen> Digest(const void* data,
                                                std::size_t len);

  /// \brief One-shot digest rendered as 64 lowercase hex characters — the
  /// format the API-keys file stores.
  static std::string HexDigest(const std::string& text);

 private:
  evp_md_ctx_st* ctx_;
};

}  // namespace sknn

#endif  // SKNN_COMMON_SHA256_H_
