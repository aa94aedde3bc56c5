// Shared utilities for the figure-reproduction harnesses.
//
// Every bench binary prints the same series the corresponding paper figure
// plots, one row per parameter point. Two grids exist per figure:
//   * default ("smoke"): a scaled-down grid that finishes in minutes on a
//     laptop and still exhibits the paper's shape (linearity, flatness,
//     ratios);
//   * SKNN_BENCH_SCALE=paper: the paper's exact grid (n up to 10000,
//     K up to 1024) — hours of wall clock, matching Section 5's setup.
// EXPERIMENTS.md records measured-vs-paper series for the default grid.
#ifndef SKNN_BENCH_BENCH_UTIL_H_
#define SKNN_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "core/engine.h"
#include "data/synthetic.h"

namespace sknn {
namespace bench {

/// \brief True if `flag` (e.g. "--json") is among the args; removes it so
/// downstream parsers (Google Benchmark) never see it.
inline bool ConsumeFlag(int* argc, char** argv, const char* flag) {
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      for (int j = i; j + 1 < *argc; ++j) argv[j] = argv[j + 1];
      --*argc;
      return true;
    }
  }
  return false;
}

/// \brief Consumes "--json [path]" / "--json=path" from the args (so
/// downstream parsers never see it). Returns true if the flag was present;
/// `*path` receives the explicit path when one was given and is left
/// untouched otherwise (BenchJsonPath then falls back to the environment /
/// location heuristic).
inline bool ConsumeJsonFlag(int* argc, char** argv, std::string* path) {
  for (int i = 1; i < *argc; ++i) {
    int remove = 0;
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      *path = argv[i] + 7;
      remove = 1;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      remove = 1;
      if (i + 1 < *argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        *path = argv[i + 1];
        remove = 2;
      }
    }
    if (remove == 0) continue;
    for (int j = i; j + remove < *argc; ++j) argv[j] = argv[j + remove];
    *argc -= remove;
    return true;
  }
  return false;
}

/// \brief Where a bench writes its machine-readable artifact: the explicit
/// `--json <path>` value when given, else $SKNN_BENCH_JSON, else
/// `default_name` at the repo root (when running from a build/
/// subdirectory) or in the working directory.
inline std::string BenchJsonPath(const std::string& explicit_path,
                                 const char* default_name) {
  if (!explicit_path.empty()) return explicit_path;
  const char* env = std::getenv("SKNN_BENCH_JSON");
  if (env != nullptr && *env != '\0') return env;
  // Heuristic: benches are usually run from build/; the artifact belongs
  // next to the sources.
  std::ifstream probe("../CMakeLists.txt");
  return probe.good() ? std::string("../") + default_name : default_name;
}

/// \brief Replaces (or adds) the top-level member `section` of the JSON
/// object in `path` with `value_json`, preserving the other sections — so
/// bench_primitives and bench_batch can each own a section of the same
/// artifact. An existing section is replaced IN PLACE (same position, other
/// members byte-identical), so re-running a bench neither reorders the
/// artifact nor perturbs its neighbors; a new section is appended. The
/// scanner only needs to split well-formed top-level members, which is all
/// this emitter ever writes.
inline void MergeJsonSection(const std::string& path,
                             const std::string& section,
                             const std::string& value_json) {
  std::string content;
  {
    std::ifstream in(path);
    if (in.good()) {
      std::ostringstream ss;
      ss << in.rdbuf();
      content = ss.str();
    }
  }
  std::vector<std::pair<std::string, std::string>> members;
  std::size_t open = content.find('{');
  if (open != std::string::npos) {
    int depth = 1;  // inside the document brace
    bool in_string = false, escaped = false;
    bool in_key = false, in_value = false;
    std::string key, value;
    auto finish_member = [&] {
      // Trim the whitespace the scanner swept up with the value, so a
      // rewrite emits exactly one "key: value" separator — re-running must
      // not grow untouched sections by one space per pass.
      std::size_t first = value.find_first_not_of(" \t\r\n");
      std::size_t last = value.find_last_not_of(" \t\r\n");
      if (first == std::string::npos) {
        value.clear();
      } else {
        value = value.substr(first, last - first + 1);
      }
      if (!key.empty() && !value.empty()) members.emplace_back(key, value);
      key.clear();
      value.clear();
      in_value = false;
    };
    for (std::size_t i = open + 1; i < content.size() && depth > 0; ++i) {
      char c = content[i];
      if (in_string) {
        bool closes = !escaped && c == '"';
        escaped = !escaped && c == '\\';
        if (closes) in_string = false;
        if (in_key) {
          if (closes) in_key = false;
          else key.push_back(c);
        }
        if (in_value) value.push_back(c);
        continue;
      }
      if (c == '"') {
        in_string = true;
        if (depth == 1 && !in_value) {
          in_key = true;
        } else if (in_value) {
          value.push_back(c);
        }
        continue;
      }
      if (depth == 1 && !in_value) {
        if (c == ':') in_value = true;
        if (c == '}') --depth;
        continue;  // whitespace / comma between members
      }
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') {
        --depth;
        if (depth == 0) {  // the document's closing brace
          finish_member();
          break;
        }
      }
      if (depth == 1 && c == ',') {
        finish_member();
        continue;
      }
      value.push_back(c);
    }
    finish_member();
  }
  // Replace in place; append only if the section is new.
  bool replaced = false;
  for (auto& [k, v] : members) {
    if (k == section) {
      v = value_json;
      replaced = true;
    }
  }
  if (!replaced) members.emplace_back(section, value_json);
  std::ofstream out(path, std::ios::trunc);
  out << "{\n";
  bool first = true;
  for (const auto& [k, v] : members) {
    if (!first) out << ",\n";
    first = false;
    out << "  \"" << k << "\": " << v;
  }
  out << "\n}\n";
  std::fprintf(stderr, "wrote section \"%s\" to %s\n", section.c_str(),
               path.c_str());
}

inline bool PaperScale() {
  const char* env = std::getenv("SKNN_BENCH_SCALE");
  return env != nullptr && std::strcmp(env, "paper") == 0;
}

/// \brief Threads used by the parallel variants (the paper's machine had 6
/// cores; we use what the host offers).
inline std::size_t BenchThreads() {
  return ThreadPool::HardwareConcurrency();
}

struct EngineSetup {
  std::unique_ptr<SknnEngine> engine;
  PlainRecord query;
  double setup_seconds = 0;
};

/// \brief Builds a uniform synthetic database whose squared distances fit
/// in `l` bits (the paper's parameterization) and the matching engine.
/// `latency` simulates the C1<->C2 WAN (zero = colocated clouds).
inline EngineSetup MakeEngine(std::size_t n, std::size_t m, unsigned l,
                              unsigned key_bits, std::size_t threads,
                              uint64_t seed,
                              std::chrono::microseconds latency =
                                  std::chrono::microseconds{0}) {
  int64_t max_value = MaxValueForDistanceBits(m, l);
  PlainTable table = GenerateUniformTable(n, m, max_value, seed);
  PlainRecord query = GenerateUniformQuery(m, max_value, seed + 1);
  SknnEngine::Options opts;
  opts.key_bits = key_bits;
  opts.attr_bits = BitsForMaxValue(max_value);
  opts.c1_threads = threads;
  opts.c2_threads = threads;
  opts.c1_c2_latency = latency;
  Stopwatch sw;
  auto engine = SknnEngine::Create(table, opts);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine setup failed: %s\n",
                 engine.status().ToString().c_str());
    std::exit(1);
  }
  return {std::move(engine).value(), std::move(query), sw.ElapsedSeconds()};
}

/// \brief Runs one request through the engine's query API; dies with a
/// message if it failed.
inline QueryResponse MustQuery(SknnEngine& engine, const PlainRecord& query,
                               unsigned k, QueryProtocol protocol,
                               const char* what) {
  QueryRequest request;
  request.record = query;
  request.k = k;
  request.protocol = protocol;
  Result<QueryResponse> r = engine.Query(request);
  if (!r.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

inline void PrintHeader(const char* figure, const char* paper_series,
                        const char* note) {
  std::printf("# %s — %s\n", figure, paper_series);
  std::printf("# scale=%s  threads=%zu  %s\n", PaperScale() ? "paper" : "smoke",
              BenchThreads(), note);
}

}  // namespace bench
}  // namespace sknn

#endif  // SKNN_BENCH_BENCH_UTIL_H_
