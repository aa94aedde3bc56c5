#include "serve/remote_query_client.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "bigint/random.h"
#include "net/socket.h"

namespace sknn {
namespace {

/// How long the client's own RPC timer waits past a query's deadline_ms
/// before declaring the front end itself hung. The server normally answers
/// a blown deadline with a TYPED kDeadlineExceeded well inside this.
constexpr std::chrono::milliseconds kDeadlineGrace{500};

/// Bounds the hello handshake so a hung endpoint rotates instead of
/// wedging the first call forever.
constexpr std::chrono::milliseconds kHelloTimeout{5000};

/// The two codes that mean the front end did not answer over this link
/// (net/rpc.h): the only ones that drop and redial it. Any other code is
/// the front end's answer.
bool NoAnswer(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDeadlineExceeded;
}

}  // namespace

std::chrono::milliseconds RetryBackoff(const RetryPolicy& policy, int attempt,
                                       double uniform01) {
  if (attempt < 1) attempt = 1;
  uniform01 = std::clamp(uniform01, 0.0, 1.0);
  const double jitter = std::clamp(policy.jitter, 0.0, 1.0);
  // A nonsensical policy (negative or zero initial backoff — e.g. a
  // mis-parsed config) must never produce a negative sleep or a zero-wait
  // busy loop: floor the base at 1 ms.
  const double initial =
      std::max(1.0, static_cast<double>(policy.initial_backoff.count()));
  const double max_backoff =
      std::max(1.0, static_cast<double>(policy.max_backoff.count()));
  // Exponential growth without overflow: cap the shift, then the value.
  // All arithmetic in double and clamped BEFORE the int64 conversion — a
  // huge max_backoff (e.g. milliseconds::max()) would otherwise make the
  // double→int64 cast undefined and the "capped" wait negative.
  const int shift = std::min(attempt - 1, 20);
  double backoff = initial * static_cast<double>(1u << shift);
  backoff = std::min(backoff, max_backoff);
  // Decorrelate: the bottom (1 - jitter) share is guaranteed, the top
  // jitter share is uniformly random — synchronized clients spread out
  // instead of re-arriving at the admission gate in lockstep.
  double slept = backoff * (1.0 - jitter) + backoff * jitter * uniform01;
  constexpr double kMaxSleepMs = 9.0e15;  // < int64 range, ~285k years
  slept = std::clamp(slept, 1.0, kMaxSleepMs);
  return std::chrono::milliseconds(static_cast<int64_t>(slept));
}

bool RetryableStatusCode(StatusCode code) {
  switch (code) {
    case StatusCode::kResourceExhausted:
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
      return true;
    default:
      return false;
  }
}

RemoteQueryClient::RemoteQueryClient(std::unique_ptr<Endpoint> link) {
  // A null link means "no connection yet" — the endpoint-list Connect path,
  // which fills endpoints_ and lets EnsureLink dial.
  if (link == nullptr) return;
  MutexLock lock(&mutex_);
  rpc_ = std::make_shared<RpcClient>(std::move(link));
  InstallNoteHandler(rpc_.get());
}

Result<std::unique_ptr<RemoteQueryClient>> RemoteQueryClient::Connect(
    const std::string& host, uint16_t port) {
  return Connect(std::vector<std::string>{host + ":" + std::to_string(port)});
}

Result<std::unique_ptr<RemoteQueryClient>> RemoteQueryClient::Connect(
    const std::vector<std::string>& endpoints) {
  if (endpoints.empty()) {
    return Status::InvalidArgument("RemoteQueryClient: no endpoints given");
  }
  // Validate every address up front — a typo in the THIRD endpoint should
  // fail now, not during the failover that was supposed to save the query.
  for (const std::string& addr : endpoints) {
    std::string host;
    uint16_t port = 0;
    SKNN_RETURN_NOT_OK(ParseHostPort(addr, &host, &port));
  }
  // The first dial happens here so Connect keeps its contract of returning
  // a reachable client; later redials happen lazily inside EnsureLink.
  auto client = std::make_unique<RemoteQueryClient>(nullptr);
  client->endpoints_ = endpoints;
  SKNN_RETURN_NOT_OK(client->EnsureLink().status());
  return client;
}

void RemoteQueryClient::Close() {
  std::shared_ptr<RpcClient> rpc;
  {
    MutexLock lock(&mutex_);
    closed_ = true;
    rpc = std::move(rpc_);
    hello_done_ = false;
    auth_done_ = false;
  }
  if (rpc != nullptr) rpc->Shutdown();
}

void RemoteQueryClient::set_table_changed_handler(TableChangedHandler handler) {
  {
    MutexLock lock(&handler_mutex_);
    table_changed_ = std::move(handler);
  }
  // The installed RpcClient-level handler reads table_changed_ at note
  // time, so a live link picks the new handler up without reinstalling.
}

void RemoteQueryClient::InstallNoteHandler(RpcClient* rpc) {
  if (rpc == nullptr) return;
  rpc->SetNoteHandler([this](const Message& note) {
    if (note.type != FrontendOpCode(FrontendOp::kTableChanged)) return;
    Result<TableChangedNote> decoded = DecodeTableChanged(note);
    if (!decoded.ok()) return;
    TableChangedHandler handler;
    {
      MutexLock lock(&handler_mutex_);
      handler = table_changed_;
    }
    if (handler) handler(*decoded);
  });
}

Result<std::shared_ptr<RpcClient>> RemoteQueryClient::EnsureLink() {
  MutexLock lock(&mutex_);
  if (closed_) {
    return Status::FailedPrecondition("RemoteQueryClient: closed");
  }
  if (rpc_ == nullptr) {
    if (endpoints_.empty()) {
      return Status::Unavailable(
          "RemoteQueryClient: link is down and no endpoints were given to "
          "redial");
    }
    Status last = Status::Unavailable("RemoteQueryClient: no endpoints");
    for (std::size_t tried = 0; tried < endpoints_.size(); ++tried) {
      const std::string& addr = endpoints_[endpoint_idx_ % endpoints_.size()];
      std::string host;
      uint16_t port = 0;
      if (Status parsed = ParseHostPort(addr, &host, &port); !parsed.ok()) {
        last = parsed;
        ++endpoint_idx_;
        continue;
      }
      auto link = ConnectTcp(host, port);
      if (!link.ok()) {
        last = Status::Unavailable("RemoteQueryClient: cannot reach " + addr +
                                   ": " + link.status().message());
        ++endpoint_idx_;
        continue;
      }
      rpc_ = std::make_shared<RpcClient>(std::move(link).value());
      InstallNoteHandler(rpc_.get());
      break;
    }
    if (rpc_ == nullptr) return last;
  }
  if (!hello_done_) {
    Result<Message> reply = rpc_->Call(EncodeHello(HelloInfo{}), kHelloTimeout);
    if (!reply.ok()) {
      // No answer to the hello: this endpoint is dead or hung. Drop the
      // link and advance, so the CALLER's next attempt dials the next
      // endpoint rather than re-helloing a corpse.
      if (NoAnswer(reply.status())) {
        rpc_->Shutdown();
        rpc_ = nullptr;
        ++endpoint_idx_;
      }
      return reply.status();
    }
    if (reply->type == FrontendOpCode(FrontendOp::kQueryError)) {
      // A typed rejection (revision mismatch) is the server's answer, not a
      // link failure — surfacing it beats silently querying a neighbor that
      // would say the same thing.
      return DecodeQueryError(*reply);
    }
    SKNN_ASSIGN_OR_RETURN(server_hello_, DecodeHelloAck(*reply));
    hello_done_ = true;
  }
  if (!api_key_.empty() && !auth_done_) {
    // The credential is re-presented after EVERY fresh hello — a failover
    // landed this session on a front end that has never seen it.
    Result<Message> reply =
        rpc_->Call(EncodeAuthenticateRequest(api_key_), kHelloTimeout);
    if (!reply.ok()) {
      if (NoAnswer(reply.status())) {
        rpc_->Shutdown();
        rpc_ = nullptr;
        hello_done_ = false;
        ++endpoint_idx_;
      }
      return reply.status();
    }
    if (reply->type == FrontendOpCode(FrontendOp::kQueryError)) {
      // Typed rejection (kPermissionDenied): the KEY is wrong, and every
      // equivalent front end will say the same — surface it, don't rotate.
      return DecodeQueryError(*reply);
    }
    SKNN_RETURN_NOT_OK(DecodeAuthAck(*reply).status());
    auth_done_ = true;
  }
  return rpc_;
}

void RemoteQueryClient::set_api_key(std::string key) {
  MutexLock lock(&mutex_);
  api_key_ = std::move(key);
  // Force a (re)presentation on the next call even if the session already
  // helloed without a key.
  auth_done_ = false;
}

void RemoteQueryClient::DropLink(const std::shared_ptr<RpcClient>& failed) {
  MutexLock lock(&mutex_);
  if (rpc_ != failed) return;  // another thread already failed over
  rpc_ = nullptr;
  hello_done_ = false;
  auth_done_ = false;
  ++endpoint_idx_;
}

void RemoteQueryClient::RotateEndpoint() {
  std::shared_ptr<RpcClient> dropped;
  {
    MutexLock lock(&mutex_);
    if (endpoints_.size() < 2) return;
    dropped = std::move(rpc_);
    hello_done_ = false;
    auth_done_ = false;
    ++endpoint_idx_;
  }
  if (dropped != nullptr) dropped->Shutdown();
}

Result<HelloInfo> RemoteQueryClient::Hello() {
  SKNN_RETURN_NOT_OK(EnsureLink().status());
  MutexLock lock(&mutex_);
  return server_hello_;
}

Result<Message> RemoteQueryClient::Call(const Message& request,
                                        std::chrono::milliseconds timeout) {
  // One dial per configured endpoint (at least one attempt for the
  // wrapped-link constructor). Re-sending after a transport failure is
  // safe: answers are a pure function of (table, query, k).
  const std::size_t attempts = std::max<std::size_t>(endpoints_.size(), 1);
  Status last = Status::Unavailable("RemoteQueryClient: no attempt ran");
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    Result<std::shared_ptr<RpcClient>> rpc = EnsureLink();
    if (!rpc.ok()) {
      last = rpc.status();
      // EnsureLink already rotated past dead endpoints; a non-transport
      // error (closed client, typed hello rejection) will repeat — stop.
      if (!NoAnswer(last)) return last;
      continue;
    }
    Result<Message> reply = (*rpc)->Call(request, timeout);
    if (!reply.ok()) {
      if (!NoAnswer(reply.status())) return reply;
      DropLink(*rpc);
      last = reply.status();
      continue;
    }
    if (reply->type == FrontendOpCode(FrontendOp::kQueryError)) {
      return DecodeQueryError(*reply);
    }
    return reply;
  }
  return last;
}

Result<QueryResponse> RemoteQueryClient::Query(const QueryRequest& request) {
  std::chrono::milliseconds timeout{0};
  if (request.deadline_ms > 0) {
    timeout = std::chrono::milliseconds(request.deadline_ms) + kDeadlineGrace;
  }
  SKNN_ASSIGN_OR_RETURN(Message reply,
                        Call(EncodeQueryRequest(request), timeout));
  return DecodeQueryResponse(reply);
}

Result<QueryResponse> RemoteQueryClient::QueryWithRetry(
    const QueryRequest& request, const RetryPolicy& policy) {
  const auto started = std::chrono::steady_clock::now();
  const int attempts = std::max(policy.max_attempts, 1);
  // A client holding a replica list retries worker-loss errors by default:
  // the rotation below is exactly what the list was configured for.
  const bool multi_endpoint = endpoints_.size() > 1;
  const bool retry_unavailable = policy.retry_unavailable || multi_endpoint;
  Result<QueryResponse> response = Status::Internal("unset");
  for (int attempt = 1;; ++attempt) {
    response = Query(request);
    if (response.ok()) return response;
    const StatusCode code = response.status().code();
    // Fail fast on everything a retry cannot fix — kInvalidArgument,
    // kNotFound, kPermissionDenied and friends reproduce verbatim on every
    // re-send, so burning attempts (and sleeps) on them only delays the
    // caller's real answer. RetryableStatusCode is the single matrix.
    if (!RetryableStatusCode(code)) return response;
    const bool worker_loss = code != StatusCode::kResourceExhausted;
    const bool retryable = !worker_loss || retry_unavailable;
    if (!retryable || attempt >= attempts) return response;
    if (worker_loss && multi_endpoint) {
      // The front end (or its worker fleet) failed this query — try the
      // next front end rather than the same one again.
      RotateEndpoint();
    }
    const double uniform01 =
        static_cast<double>(Random::ThreadLocal().UniformUint64(1u << 20)) /
        static_cast<double>(1u << 20);
    const std::chrono::milliseconds sleep =
        RetryBackoff(policy, attempt, uniform01);
    if (policy.max_elapsed.count() > 0) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started);
      // Give up rather than start a sleep that cannot end in time: the last
      // error (a retry signal) is still the honest answer.
      if (elapsed + sleep > policy.max_elapsed) return response;
    }
    std::this_thread::sleep_for(sleep);
  }
}

Result<std::vector<std::string>> RemoteQueryClient::ListTables() {
  SKNN_ASSIGN_OR_RETURN(Message reply, Call(EncodeListTablesRequest()));
  return DecodeTableList(reply);
}

Result<TableInfoReply> RemoteQueryClient::TableInfo(const std::string& table) {
  SKNN_ASSIGN_OR_RETURN(Message reply, Call(EncodeTableInfoRequest(table)));
  return DecodeTableInfoReply(reply);
}

Result<ServiceStatsReply> RemoteQueryClient::ServiceStats() {
  SKNN_ASSIGN_OR_RETURN(Message reply, Call(EncodeServiceStatsRequest()));
  return DecodeServiceStatsReply(reply);
}

Result<HealthReply> RemoteQueryClient::Health() {
  SKNN_ASSIGN_OR_RETURN(Message reply, Call(EncodeHealthRequest()));
  return DecodeHealthReply(reply);
}

Result<std::string> RemoteQueryClient::ReloadTable(const std::string& table,
                                                   const std::string& spec) {
  ReloadTableRequest request;
  request.table = table;
  request.spec = spec;
  SKNN_ASSIGN_OR_RETURN(Message reply, Call(EncodeReloadTableRequest(request)));
  return DecodeAdminAck(reply);
}

Result<std::string> RemoteQueryClient::DetachTable(const std::string& table) {
  SKNN_ASSIGN_OR_RETURN(Message reply, Call(EncodeDetachTableRequest(table)));
  return DecodeAdminAck(reply);
}

}  // namespace sknn
