// Shared vocabulary types of the SkNN system.
#ifndef SKNN_CORE_TYPES_H_
#define SKNN_CORE_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/op_counters.h"
#include "crypto/paillier.h"
#include "net/message.h"

namespace sknn {

/// \brief A plaintext record: m attribute values (the paper's t_i).
using PlainRecord = std::vector<int64_t>;
/// \brief A plaintext table: n records (the paper's T).
using PlainTable = std::vector<PlainRecord>;

/// \brief Alice's attribute-wise encrypted table Epk(T), as hosted by C1.
struct EncryptedDatabase {
  /// records[i][j] = Epk(t_{i,j}).
  std::vector<std::vector<Ciphertext>> records;
  /// Bit width l of the squared-distance domain: every |t_i - Q|^2 < 2^l.
  unsigned distance_bits = 0;

  std::size_t num_records() const { return records.size(); }
  std::size_t num_attributes() const {
    return records.empty() ? 0 : records[0].size();
  }
};

/// \brief Per-phase wall-clock breakdown of one SkNN_m query. Section 5.2
/// reports SMIN_n at >= 69.7% of total cost; this struct reproduces that
/// accounting.
struct SkNNmBreakdown {
  double ssed_seconds = 0;      ///< step 2: encrypted distances
  double sbd_seconds = 0;       ///< step 2: bit decomposition
  double sminn_seconds = 0;     ///< step 3(a): k SMIN_n tournaments
  double extract_seconds = 0;   ///< steps 3(b)-(d): pointer + record fetch
  double update_seconds = 0;    ///< step 3(e): setting the winner's flag bit
  double finalize_seconds = 0;  ///< steps 4-6: masked hand-off to Bob

  double total() const {
    return ssed_seconds + sbd_seconds + sminn_seconds + extract_seconds +
           update_seconds + finalize_seconds;
  }
};

}  // namespace sknn

#endif  // SKNN_CORE_TYPES_H_
