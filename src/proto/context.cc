#include "proto/context.h"

#include <string>

namespace sknn {

Result<Message> ProtoContext::Exchange(Message request) {
  request.query_id = query_id_;
  const OpSpec* spec = FindOpSpec(request.type);
  const std::size_t request_bytes = request.WireSize();
  std::chrono::milliseconds timeout{0};  // 0 = wait forever
  if (has_deadline_) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline_ - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      return Status::DeadlineExceeded("query deadline elapsed before the "
                                      "next protocol round");
    }
    timeout = remaining;
  }
  SKNN_ASSIGN_OR_RETURN(Message resp,
                        client_->Call(std::move(request), timeout));
  if (meter_ != nullptr) meter_->CountExchange(request_bytes, resp.WireSize());
  if (spec != nullptr && spec->returns_ciphertexts) {
    for (const BigInt& c : resp.ints) {
      if (!pk_->IsValidCiphertext(Ciphertext(c))) {
        return Status::ProtocolError(
            std::string("C2 returned a value outside Z*_{N^2} for ") +
            spec->name);
      }
    }
  }
  return resp;
}

Result<Message> ProtoContext::Call(Op op, std::vector<BigInt> ints,
                                   std::vector<uint8_t> aux) {
  Message req;
  req.type = OpCode(op);
  req.ints = std::move(ints);
  req.aux = std::move(aux);
  return Exchange(std::move(req));
}

void ProtoContext::ForEach(std::size_t count,
                           const std::function<void(std::size_t)>& fn) const {
  if (pool_ != nullptr) {
    // Pool workers run iterations on behalf of this thread's query: carry
    // the caller's op sink across so per-query attribution stays exact.
    OpAccumulator* sink = OpCounters::ThreadSink();
    if (sink != nullptr) {
      pool_->ParallelFor(count, [&fn, sink](std::size_t i) {
        ScopedOpSink scoped(sink);
        fn(i);
      });
    } else {
      pool_->ParallelFor(count, fn);
    }
  } else {
    for (std::size_t i = 0; i < count; ++i) fn(i);
  }
}

Result<std::vector<BigInt>> ProtoContext::CallBatch(
    Op op, std::vector<BigInt> ints, std::size_t in_arity,
    std::size_t out_arity, std::vector<uint8_t> aux) {
  if (in_arity == 0 || ints.size() % in_arity != 0) {
    return Status::InvalidArgument("CallBatch: size not divisible by arity");
  }
  const std::size_t count = ints.size() / in_arity;
  if (count == 0) return std::vector<BigInt>{};
  SKNN_ASSIGN_OR_RETURN(Message resp,
                        Call(op, std::move(ints), std::move(aux)));
  if (resp.ints.size() != count * out_arity) {
    return Status::ProtocolError("CallBatch: bad response arity");
  }
  return std::move(resp.ints);
}

}  // namespace sknn
