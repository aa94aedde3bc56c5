// Wall-clock stopwatch used by the benchmark harnesses and the per-phase
// cost breakdown the paper reports (e.g. SMIN_n share of SkNN_m, Section 5.2).
#ifndef SKNN_COMMON_STOPWATCH_H_
#define SKNN_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace sknn {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  int64_t ElapsedMillis() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace sknn

#endif  // SKNN_COMMON_STOPWATCH_H_
