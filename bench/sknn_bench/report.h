// Statistics, metric records and the JSON the benchmark prints: percentiles
// over latency samples, the {name, value, unit} metric list, and the
// provenance block (seed, git SHA, key sizes, host) every output carries.
#ifndef SKNN_BENCH_SKNN_BENCH_REPORT_H_
#define SKNN_BENCH_SKNN_BENCH_REPORT_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace sknn {
namespace bench {

/// \brief Nearest-rank percentile, p in [0, 1]; 0 for an empty sample.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(values.size() - 1, idx)];
}

/// \brief Middle value (mean of the two middle ones for an even count).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : (values[mid - 1] + values[mid]) / 2;
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// \brief Shortest round-trip decimal form of `v` (all its digits).
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";  // the smoke check flags it
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

inline std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + JsonString(metrics[i].name) +
           ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// \brief The one-line result the benchmark ends its standard output with.
inline std::string ResultLine(bool correct, uint64_t attempted,
                              uint64_t failed,
                              const std::vector<Metric>& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + MetricsJson(metrics) + "}";
}

/// \brief Whether `flag` appears as a whole word in /proc/cpuinfo's flags.
inline bool CpuHasFlag(const std::string& cpuinfo, const std::string& flag) {
  std::istringstream in(cpuinfo);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line.substr(line.find(':') + 1));
    std::string word;
    while (words >> word) {
      if (word == flag) return true;
    }
    return false;
  }
  return false;
}

/// \brief What every output records about how it was produced.
struct Provenance {
  uint64_t seed = 0;
  std::string git_sha = "unknown";
  std::string workload;
  unsigned workload_key_bits = 0;
  std::vector<unsigned> layer_key_bits;
  bool traced = false;
  bool smoke = false;

  std::string ToJson() const {
    std::ifstream cpuinfo_file("/proc/cpuinfo");
    std::stringstream cpuinfo;
    cpuinfo << cpuinfo_file.rdbuf();
    std::string layer_bits = "[";
    for (std::size_t i = 0; i < layer_key_bits.size(); ++i) {
      layer_bits += (i ? ", " : "") + std::to_string(layer_key_bits[i]);
    }
    layer_bits += "]";
    return "{\"seed\": " + std::to_string(seed) +
           ", \"git_sha\": " + JsonString(git_sha) +
           ", \"workload\": " + JsonString(workload) +
           ", \"traced\": " + (traced ? "true" : "false") +
           ", \"smoke\": " + (smoke ? "true" : "false") +
           ", \"workload_key_bits\": " + std::to_string(workload_key_bits) +
           ", \"layer_key_bits\": " + layer_bits +
           ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"cpu_flags\": {\"avx2\": " +
           (CpuHasFlag(cpuinfo.str(), "avx2") ? "true" : "false") +
           ", \"avx512ifma\": " +
           (CpuHasFlag(cpuinfo.str(), "avx512ifma") ? "true" : "false") +
           "}, \"compiler\": " + JsonString(__VERSION__) +
           ", \"build_type\": " + JsonString(SKNN_BENCH_BUILD_TYPE) + "}";
  }
};

}  // namespace bench
}  // namespace sknn

#endif  // SKNN_BENCH_SKNN_BENCH_REPORT_H_
