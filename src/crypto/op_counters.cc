#include "crypto/op_counters.h"

#include <sstream>

namespace sknn {

std::atomic<uint64_t> OpCounters::enc_{0};
std::atomic<uint64_t> OpCounters::dec_{0};
std::atomic<uint64_t> OpCounters::exp_{0};
std::atomic<uint64_t> OpCounters::mul_{0};
std::atomic<uint64_t> OpCounters::inv_{0};
thread_local OpAccumulator* OpCounters::sink_ = nullptr;

OpAccumulator* OpCounters::SwapThreadSink(OpAccumulator* sink) {
  OpAccumulator* prev = sink_;
  sink_ = sink;
  return prev;
}

void OpCounters::Reset() {
  enc_.store(0, kOrder);
  dec_.store(0, kOrder);
  exp_.store(0, kOrder);
  mul_.store(0, kOrder);
  inv_.store(0, kOrder);
}

std::string OpSnapshot::ToString() const {
  std::ostringstream os;
  os << "enc=" << encryptions << " dec=" << decryptions
     << " exp=" << exponentiations << " mul=" << multiplications
     << " inv=" << inversions;
  return os.str();
}

}  // namespace sknn
