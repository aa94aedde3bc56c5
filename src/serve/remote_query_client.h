// RemoteQueryClient — the thin Bob of the serving deployment.
//
// Connects to a QueryService (tools/sknn_c1_server), negotiates the
// versioned wire contract (an explicit Hello(), or an automatic one before
// the first call — either way a server from the wrong protocol era answers
// with a typed Status instead of garbage), then sends one plaintext-record
// QueryRequest per call — naming the target table when the front end hosts
// several — and gets the QueryResponse back: records plus the full
// per-query instrumentation, without ever loading the encrypted database
// or driving the protocol itself. This is what lets one standing front end
// serve many lightweight clients across many tables.
//
// Failover: Connect() also accepts a LIST of "host:port" endpoints. The
// client speaks to one front end at a time; when the link dies (connect
// refused, connection reset, or a per-call deadline with no answer) it
// rotates to the next endpoint, re-runs the hello handshake there, and
// re-sends the call. Queries are safe to re-send: the protocol's
// deterministic tie-break makes the answer a pure function of
// (table, query, k), so a query that fails over returns bitwise the same
// records it would have from the first endpoint.
//
// Deadlines: a QueryRequest with deadline_ms > 0 is enforced server-side
// (the coordinator turns a hung shard worker into kDeadlineExceeded); the
// client additionally arms its own RPC timeout at deadline_ms plus a grace
// period, so even a front end that is itself hung resolves to
// kDeadlineExceeded instead of blocking forever.
//
// The control plane rides the same connection: ListTables() enumerates
// what is served, TableInfo() reports one table's geometry and shard
// topology, ServiceStats() the per-table admission counters, Health() the
// per-replica liveness — the calls sknn_admin prints. ReloadTable() and
// DetachTable() are the admin mutations; when ANY admin triggers one, every
// connected client hears about it through the kTableChanged note
// (set_table_changed_handler).
//
// Errors arrive as real Statuses: kResourceExhausted means the front end's
// admission budget is full (back off and retry — QueryWithRetry implements
// the well-behaved client: exponential backoff with bounded jitter, so a
// burst of synchronized thin clients decorrelates instead of re-arriving
// in lockstep, under a max-elapsed cap); kInvalidArgument / kOutOfRange /
// kNotFound mean the request itself is wrong — retrying cannot help.
// Query() is thread-safe — concurrent calls on one connection are
// demultiplexed by correlation id — but the front end answers a
// connection's requests one at a time unless its
// Options::connection_workers is raised.
#ifndef SKNN_SERVE_REMOTE_QUERY_CLIENT_H_
#define SKNN_SERVE_REMOTE_QUERY_CLIENT_H_

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/query_api.h"
#include "net/query_wire.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/rpc.h"

namespace sknn {

/// \brief How QueryWithRetry behaves when the front end says
/// kResourceExhausted. Exponential backoff, full jitter on the top
/// `jitter` fraction of each delay, two caps: per-sleep (max_backoff) and
/// total elapsed (max_elapsed — the client gives up rather than retry
/// forever against a saturated service).
struct RetryPolicy {
  /// Total attempts, the first one included. 0 behaves as 1.
  int max_attempts = 6;
  std::chrono::milliseconds initial_backoff{50};
  std::chrono::milliseconds max_backoff{2000};
  /// Give up once the next sleep would push the total elapsed time past
  /// this. Zero or negative = no elapsed cap.
  std::chrono::milliseconds max_elapsed{30000};
  /// Fraction of each backoff that is uniformly random, in [0, 1]. 0 =
  /// deterministic (lockstep — only sensible in tests); 1 = full jitter.
  double jitter = 0.5;
  /// Also retry kUnavailable and kDeadlineExceeded (a dead or hung worker
  /// mid-query, or a front end that dropped the link: the retry redials
  /// it). Off by default for a SINGLE endpoint — recovery is
  /// possible but not expected; a client connected to SEVERAL endpoints
  /// retries these regardless (rotating first), because that is what the
  /// replica list is for.
  bool retry_unavailable = false;
};

/// \brief The sleep before retry attempt `attempt` (1 = the sleep after the
/// first failure): min(max_backoff, initial_backoff * 2^(attempt-1)),
/// with the top `jitter` fraction scaled by `uniform01` in [0, 1). Pure —
/// QueryWithRetry feeds it thread-local randomness; tests feed it corners.
std::chrono::milliseconds RetryBackoff(const RetryPolicy& policy, int attempt,
                                       double uniform01);

/// \brief The retry matrix in one place: true exactly for the codes where a
/// retry can help — kResourceExhausted (admission or quota pressure clears),
/// kUnavailable (a dead peer may recover), kDeadlineExceeded (a slow peer
/// may answer in time elsewhere). Everything else — kInvalidArgument,
/// kNotFound, kPermissionDenied, protocol/crypto errors — is a property of
/// the REQUEST or the CREDENTIAL, and re-sending it verbatim reproduces the
/// failure; QueryWithRetry fails those fast on the first answer.
bool RetryableStatusCode(StatusCode code);

class RemoteQueryClient {
 public:
  /// \brief Connects to a QueryService at host:port. The hello handshake
  /// runs lazily before the first call (or explicitly via Hello()).
  static Result<std::unique_ptr<RemoteQueryClient>> Connect(
      const std::string& host, uint16_t port);

  /// \brief Connects to the FIRST reachable of several equivalent
  /// "host:port" front ends; the rest are failover targets the client
  /// rotates to when its current link dies mid-session.
  static Result<std::unique_ptr<RemoteQueryClient>> Connect(
      const std::vector<std::string>& endpoints);

  /// \brief Wraps an already-connected link (tests: an in-process socketpair).
  /// No failover targets: when this link dies, calls fail.
  explicit RemoteQueryClient(std::unique_ptr<Endpoint> link);

  /// \brief Negotiates the session: sends this build's protocol revision
  /// and returns the server's ack (FailedPrecondition when the server
  /// speaks another revision). Idempotent — later calls
  /// return the cached ack without another round trip (re-run
  /// automatically after a failover). Every other method calls this
  /// implicitly first.
  Result<HelloInfo> Hello();

  /// \brief Arms API-key authentication: the raw key rides a kAuthenticate
  /// frame right after every hello — including the re-hello after a
  /// failover, so a rotated session is re-authenticated transparently.
  /// Against an auth-less server the frame is acked as a no-op. Call
  /// before the first query; a bad key surfaces as kPermissionDenied from
  /// whichever call triggered the handshake.
  void set_api_key(std::string key);

  /// \brief One query, one round trip (after the implicit hello).
  /// request.table targets one of a multi-table front end's tables
  /// (empty = the sole table). request.deadline_ms > 0 additionally arms a
  /// client-side RPC timeout of deadline_ms plus a grace period.
  Result<QueryResponse> Query(const QueryRequest& request);

  /// \brief Query(), retrying kResourceExhausted per `policy` (plus
  /// kUnavailable/kDeadlineExceeded when policy.retry_unavailable is set or
  /// several endpoints were given — rotating endpoints before those).
  /// Returns the last error when attempts or the elapsed cap run out.
  Result<QueryResponse> QueryWithRetry(const QueryRequest& request,
                                       const RetryPolicy& policy);

  /// \brief The names the front end serves, registration order.
  Result<std::vector<std::string>> ListTables();

  /// \brief One table's geometry + shard topology ("" = the sole table).
  Result<TableInfoReply> TableInfo(const std::string& table);

  /// \brief Service-wide counters: uptime, in-flight, per-table admission
  /// accounting.
  Result<ServiceStatsReply> ServiceStats();

  /// \brief Per-table, per-shard replica liveness (what sknn_admin --health
  /// prints).
  Result<HealthReply> Health();

  /// \brief Hot-reloads `table` on the front end: rebuilds it from `spec`
  /// (or, when empty, from the spec the server recorded at registration)
  /// and atomically swaps it in. Returns the acked table name.
  Result<std::string> ReloadTable(const std::string& table,
                                  const std::string& spec = "");

  /// \brief Tombstones `table` on the front end: subsequent queries answer
  /// kNotFound until a reload revives it.
  Result<std::string> DetachTable(const std::string& table);

  /// \brief Installs a handler for the server's kTableChanged notes (a
  /// table was hot-reloaded or detached under this session). Runs on the
  /// RPC demux thread — keep it fast; re-installed automatically across
  /// failover reconnects. Pass nullptr to uninstall. Thread-safe.
  using TableChangedHandler = std::function<void(const TableChangedNote&)>;
  void set_table_changed_handler(TableChangedHandler handler);

  /// \brief Closes the connection; in-flight calls fail and no redial
  /// happens afterwards.
  void Close();

 private:
  /// \brief The connected-and-helloed RPC link, dialing/rotating through
  /// endpoints_ as needed. Held across the handshake round trip on
  /// purpose: concurrent first callers serialize behind one hello instead
  /// of each sending their own.
  Result<std::shared_ptr<RpcClient>> EnsureLink();
  /// \brief Drops `failed` if it is still the current link, so the next
  /// EnsureLink dials the NEXT endpoint. No-op when another thread already
  /// replaced it.
  void DropLink(const std::shared_ptr<RpcClient>& failed);
  /// \brief Drops the current link and advances to the next endpoint —
  /// QueryWithRetry's front-end rotation on a server-reported
  /// kUnavailable/kDeadlineExceeded.
  void RotateEndpoint();
  /// \brief One negotiated round trip: hello first, then `request`;
  /// kQueryError replies come back as their carried Status. Transport
  /// failures fail over across endpoints_ (one dial per endpoint).
  Result<Message> Call(const Message& request,
                       std::chrono::milliseconds timeout =
                           std::chrono::milliseconds{0});
  void InstallNoteHandler(RpcClient* rpc) REQUIRES(mutex_);

  /// Failover targets; empty when constructed around an existing link.
  std::vector<std::string> endpoints_;
  mutable Mutex mutex_;
  std::shared_ptr<RpcClient> rpc_ GUARDED_BY(mutex_);
  bool hello_done_ GUARDED_BY(mutex_) = false;
  HelloInfo server_hello_ GUARDED_BY(mutex_);
  /// Raw API key to present after every hello; "" = none configured.
  std::string api_key_ GUARDED_BY(mutex_);
  bool auth_done_ GUARDED_BY(mutex_) = false;
  /// Next endpoints_ slot to dial (mod size); advanced on every drop.
  std::size_t endpoint_idx_ GUARDED_BY(mutex_) = 0;
  bool closed_ GUARDED_BY(mutex_) = false;
  mutable Mutex handler_mutex_;
  TableChangedHandler table_changed_ GUARDED_BY(handler_mutex_);
};

}  // namespace sknn

#endif  // SKNN_SERVE_REMOTE_QUERY_CLIENT_H_
