// Fixed-point attribute encoding. The protocols operate on non-negative
// integers in [0, 2^attr_bits); real-world attributes (cholesterol in mg/dl,
// normalized lab values, coordinates) are mapped onto that grid with a
// per-attribute affine transform. Squared distances in the encoded domain
// are squared distances in the original domain scaled by `scale`^2, so kNN
// order is preserved per attribute weighting.
#ifndef SKNN_DATA_ENCODING_H_
#define SKNN_DATA_ENCODING_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/types.h"

namespace sknn {

/// \brief Affine quantizer for one attribute: encoded = round((x-min)*scale).
class FixedPointEncoder {
 public:
  /// \brief Encoder mapping [min_value, max_value] onto [0, 2^bits).
  static Result<FixedPointEncoder> Create(double min_value, double max_value,
                                          unsigned bits);

  Result<int64_t> Encode(double value) const;
  double Decode(int64_t encoded) const;

  double min_value() const { return min_; }
  double max_value() const { return max_; }
  double scale() const { return scale_; }
  unsigned bits() const { return bits_; }

 private:
  FixedPointEncoder(double min_value, double max_value, double scale,
                    unsigned bits)
      : min_(min_value), max_(max_value), scale_(scale), bits_(bits) {}

  double min_;
  double max_;
  double scale_;
  unsigned bits_;
};

/// \brief Column-wise encoder for whole tables of doubles.
class TableEncoder {
 public:
  /// \brief Fits one encoder per column from the observed ranges (queries
  /// outside the range are clamped by Encode's error, not silently wrapped).
  static Result<TableEncoder> Fit(
      const std::vector<std::vector<double>>& table, unsigned bits);

  Result<PlainTable> Encode(
      const std::vector<std::vector<double>>& table) const;
  Result<PlainRecord> EncodeRow(const std::vector<double>& row) const;
  std::vector<std::vector<double>> Decode(const PlainTable& table) const;

  unsigned bits() const { return bits_; }

 private:
  TableEncoder(std::vector<FixedPointEncoder> columns, unsigned bits)
      : columns_(std::move(columns)), bits_(bits) {}

  std::vector<FixedPointEncoder> columns_;
  unsigned bits_;
};

}  // namespace sknn

#endif  // SKNN_DATA_ENCODING_H_
