// The table-spec grammar of tools/sknn_c1_server: one served table as
//
//   <name>=<db.bin>[,clusters=<file>][,public=<pk>][,c2-host=<ip>]
//         [,c2-port=<p>][,workers=<host:port>|<host:port>...]
//         [,weight=<w>][,rate=<qps>][,burst=<b>][,cache=<bytes>]
//
// The same text is the --table flag and the rebuild spec the server records
// per table, so a spec-less kReloadTable parses back what FormatTableSpec
// wrote. A db of "-" means none: the table's records live in its
// sknn_c1_shard workers. Malformed text is a Status (InvalidArgument),
// never an exception: at startup the caller dies with usage, at reload time
// the admin gets the error and the server keeps serving.
#ifndef SKNN_TOOLS_TABLE_SPEC_H_
#define SKNN_TOOLS_TABLE_SPEC_H_

#include <charconv>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/qos/result_cache.h"

namespace sknn {
namespace tools {

// One table spec, defaults already resolved against the global flags.
struct TableSpec {
  std::string name;
  std::string db_path;        // empty allowed when worker_addrs is set
  std::string clusters_path;  // empty = exact-only table
  std::string pk_path;
  std::string c2_host;
  uint16_t c2_port = 0;
  // Standing sknn_c1_shard workers ("host:port"); duplicates of a shard
  // index are replicas. '|'-separated in the spec string (the item
  // separator is ',').
  std::vector<std::string> worker_addrs;
  // QoS knobs (serve/qos/): fair-admission weight, token-bucket rate/burst
  // (0 = unlimited), and the result-cache byte budget — the TOOL's default
  // is cache ON, so operators opt OUT with cache=0 (the library default is
  // off so unconfigured embedders keep the pre-revision-6 behavior).
  uint32_t weight = 1;
  double rate = 0;
  double burst = 0;
  std::size_t cache_bytes = ResultCache::kDefaultMaxBytes;

  bool operator==(const TableSpec&) const = default;
};

// Strict whole-string unsigned parse.
template <typename T>
bool ParseSpecUint(const std::string& value, T* out) {
  const char* begin = value.data();
  const char* end = begin + value.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

// Strict whole-string non-negative double parse (rate=/burst= values).
inline bool ParseSpecDouble(const std::string& value, double* out) {
  const char* begin = value.data();
  const char* end = begin + value.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end && *out >= 0;
}

// The shortest text that parses back to exactly `value`.
inline std::string FormatSpecDouble(double value) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, ec == std::errc() ? ptr : buf);
}

inline Result<TableSpec> TryParseTableSpec(const std::string& text) {
  auto malformed = [&text](const std::string& why) {
    return Status::InvalidArgument("table spec '" + text + "': " + why);
  };
  TableSpec spec;
  std::stringstream ss(text);
  std::string item;
  bool first = true;
  while (std::getline(ss, item, ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
      return malformed("item '" + item + "' is not key=value");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (first) {
      spec.name = key;
      if (value != "-") spec.db_path = value;
      first = false;
      continue;
    }
    if (key == "clusters") {
      spec.clusters_path = value;
    } else if (key == "public") {
      spec.pk_path = value;
    } else if (key == "c2-host") {
      spec.c2_host = value;
    } else if (key == "c2-port") {
      if (!ParseSpecUint(value, &spec.c2_port) || spec.c2_port == 0) {
        return malformed("bad c2-port '" + value + "'");
      }
    } else if (key == "weight") {
      if (!ParseSpecUint(value, &spec.weight) || spec.weight == 0) {
        return malformed("bad weight '" + value + "' (want >= 1)");
      }
    } else if (key == "rate" || key == "burst") {
      double parsed = 0;
      if (!ParseSpecDouble(value, &parsed)) {
        return malformed("bad " + key + " '" + value + "'");
      }
      (key == "rate" ? spec.rate : spec.burst) = parsed;
    } else if (key == "cache") {
      if (!ParseSpecUint(value, &spec.cache_bytes)) {
        return malformed("bad cache '" + value + "' (bytes; 0 disables)");
      }
    } else if (key == "workers") {
      std::stringstream ws(value);
      std::string addr;
      while (std::getline(ws, addr, '|')) {
        if (!addr.empty()) spec.worker_addrs.push_back(addr);
      }
      if (spec.worker_addrs.empty()) {
        return malformed("empty workers list");
      }
    } else {
      return malformed("unknown key '" + key + "'");
    }
  }
  if (spec.name.empty()) return malformed("missing table name");
  if (spec.db_path.empty() && spec.worker_addrs.empty()) {
    return malformed("a database file (or workers=...) is required");
  }
  return spec;
}

// The inverse of TryParseTableSpec: the canonical rebuild spec recorded at
// registration, which a spec-less kReloadTable parses back.
inline std::string FormatTableSpec(const TableSpec& spec) {
  std::string out =
      spec.name + "=" + (spec.db_path.empty() ? "-" : spec.db_path);
  if (!spec.clusters_path.empty()) out += ",clusters=" + spec.clusters_path;
  out += ",public=" + spec.pk_path;
  out += ",c2-host=" + spec.c2_host;
  out += ",c2-port=" + std::to_string(spec.c2_port);
  // QoS keys only when off-default, so pre-revision-6 recorded specs and
  // new default ones stay byte-identical.
  if (spec.weight != 1) out += ",weight=" + std::to_string(spec.weight);
  if (spec.rate > 0) out += ",rate=" + FormatSpecDouble(spec.rate);
  if (spec.burst > 0) out += ",burst=" + FormatSpecDouble(spec.burst);
  if (spec.cache_bytes != ResultCache::kDefaultMaxBytes) {
    out += ",cache=" + std::to_string(spec.cache_bytes);
  }
  if (!spec.worker_addrs.empty()) {
    out += ",workers=";
    for (std::size_t i = 0; i < spec.worker_addrs.size(); ++i) {
      if (i) out += "|";
      out += spec.worker_addrs[i];
    }
  }
  return out;
}

}  // namespace tools
}  // namespace sknn

#endif  // SKNN_TOOLS_TABLE_SPEC_H_
