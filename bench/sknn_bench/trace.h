// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent, query id). The harness opens one
// around every layer call it makes; for a served query it also derives
// child spans from the response's own timing fields (Bob, cloud, and the
// SkNN_m phases), laid end to end from the query's start because the
// response carries durations, not timestamps. Spans stay in memory and are
// written once, at exit. A span's self time is its duration minus the part
// of it that its children cover; a layer's self time is the sum over the
// spans whose name starts with "<layer>.".
#ifndef SKNN_BENCH_SKNN_BENCH_TRACE_H_
#define SKNN_BENCH_SKNN_BENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/sknn_bench/report.h"
#include "common/mutex.h"

namespace sknn {
namespace bench {

class Tracer {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = a root span
    std::string name;
    double start_s = 0;  // seconds since the tracer was created
    double end_s = 0;
    uint64_t query = 0;  // 0 = not part of a served query
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  uint64_t Begin(std::string name, uint64_t parent, uint64_t query) {
    const double now = Now();
    MutexLock lock(&mutex_);
    spans_.push_back({spans_.size() + 1, parent, std::move(name), now, now,
                      query});
    return spans_.size();
  }

  void End(uint64_t id) {
    const double now = Now();
    MutexLock lock(&mutex_);
    if (id >= 1 && id <= spans_.size()) spans_[id - 1].end_s = now;
  }

  /// \brief A span whose interval is already known (derived spans).
  uint64_t Add(std::string name, uint64_t parent, double start_s,
               double end_s, uint64_t query) {
    MutexLock lock(&mutex_);
    spans_.push_back({spans_.size() + 1, parent, std::move(name), start_s,
                      end_s, query});
    return spans_.size();
  }

  /// \brief Self time summed per span name and per layer (name prefix).
  std::pair<std::map<std::string, double>, std::map<std::string, double>>
  SelfTimes() const {
    std::vector<Span> spans;
    {
      MutexLock lock(&mutex_);
      spans = spans_;
    }
    std::map<uint64_t, std::vector<std::pair<double, double>>> children;
    for (const Span& s : spans) {
      if (s.parent != 0) children[s.parent].emplace_back(s.start_s, s.end_s);
    }
    std::map<std::string, double> by_name, by_layer;
    for (const Span& s : spans) {
      double covered = 0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        std::vector<std::pair<double, double>> iv = it->second;
        std::sort(iv.begin(), iv.end());
        double cur_start = 0, cur_end = -1;
        for (auto [a, b] : iv) {
          a = std::max(a, s.start_s);
          b = std::min(b, s.end_s);
          if (b <= a) continue;
          if (a > cur_end) {
            if (cur_end > cur_start) covered += cur_end - cur_start;
            cur_start = a;
            cur_end = b;
          } else {
            cur_end = std::max(cur_end, b);
          }
        }
        if (cur_end > cur_start) covered += cur_end - cur_start;
      }
      const double self = std::max(0.0, s.end_s - s.start_s - covered);
      by_name[s.name] += self;
      by_layer[s.name.substr(0, s.name.find('.'))] += self;
    }
    return {by_name, by_layer};
  }

  bool Write(const std::string& path, const std::string& provenance_json) const {
    auto [by_name, by_layer] = SelfTimes();
    std::ofstream out(path, std::ios::trunc);
    out << "{\"provenance\": " << provenance_json << ",\n\"self_time_s\": {";
    auto emit = [&out](const std::map<std::string, double>& m) {
      out << "{";
      bool first = true;
      for (const auto& [k, v] : m) {
        out << (first ? "" : ", ") << JsonString(k) << ": " << JsonNumber(v);
        first = false;
      }
      out << "}";
    };
    out << "\"by_layer\": ";
    emit(by_layer);
    out << ", \"by_name\": ";
    emit(by_name);
    out << "},\n\"spans\": [";
    MutexLock lock(&mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"name\": "
          << JsonString(s.name) << ", \"start_s\": " << JsonNumber(s.start_s)
          << ", \"end_s\": " << JsonNumber(s.end_s)
          << ", \"query\": " << s.query << "}";
    }
    out << "\n]}\n";
    return out.good();
  }

 private:
  const std::chrono::steady_clock::time_point origin_;
  mutable Mutex mutex_;
  std::vector<Span> spans_ GUARDED_BY(mutex_);
};

/// \brief Opens a span for its lifetime; a no-op without a tracer. Spans
/// opened on one thread nest under the innermost open one unless a parent
/// is given.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, uint64_t query = 0)
      : ScopedSpan(tracer, std::move(name), current_, query) {}
  ScopedSpan(Tracer* tracer, std::string name, uint64_t parent,
             uint64_t query)
      : tracer_(tracer), saved_(current_) {
    if (tracer_ == nullptr) return;
    id_ = tracer_->Begin(std::move(name), parent, query);
    current_ = id_;
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    tracer_->End(id_);
    current_ = saved_;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_ = 0;
  uint64_t saved_;
  static inline thread_local uint64_t current_ = 0;
};

}  // namespace bench
}  // namespace sknn

#endif  // SKNN_BENCH_SKNN_BENCH_TRACE_H_
