// QueryService — the standing C1 query front end.
//
// Accepts any number of thin-client connections (serve/remote_query_client.h
// or any speaker of net/query_wire.h) on one TCP port. Every session starts
// with a kHello/kHelloAck negotiation — a client speaking an unsupported
// protocol revision, or sending anything else before its hello, gets a
// typed kQueryError (FailedPrecondition), never silent garbage. After the
// handshake a session may query any of the tables the service hosts
// (serve/table_registry.h; the wire QueryRequest names one — empty = the
// sole table, the pre-multi-table client shape) and introspect the
// deployment through the control plane: kListTables, kTableInfo (geometry +
// shard topology per table) and kServiceStats (per-table admission
// counters, in-flight, uptime).
//
// Queries are validated up front, then admitted under a bounded in-flight
// budget — rejected with StatusCode::kResourceExhausted once the budget is
// full, so overload surfaces as an explicit retry signal instead of an
// unbounded queue — and run on their session's own thread through the
// target table's SknnEngine::Query, where up to Options::c1_threads of them
// execute concurrently over that engine's C1 pool and correlation-id RPC
// demux.
//
// Many tables, many clients, one process: this is the multi-tenant serving
// shape (each table has its own Paillier keys, database and shard
// topology; tenants share nothing but the port) and the contract every
// later scaling step (per-table caching, replication, resharding) builds
// on. docs/API.md specifies the wire contract; docs/DEPLOY.md the
// deployment.
#ifndef SKNN_SERVE_QUERY_SERVICE_H_
#define SKNN_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/engine.h"
#include "net/query_wire.h"
#include "net/rpc.h"
#include "net/rpc_listener.h"
#include "serve/qos/api_key_auth.h"
#include "serve/qos/fair_admission.h"
#include "serve/table_registry.h"

namespace sknn {

class QueryService {
 public:
  struct Options {
    /// Admission budget: how many decoded requests may be inside the
    /// engines (waiting for a query slot + executing) at once, across ALL
    /// tables.
    /// Requests arriving beyond it are rejected with kResourceExhausted —
    /// backpressure the thin client handles by retrying — instead of
    /// queueing without bound.
    std::size_t max_in_flight = 8;
    /// RPC worker threads per client connection (1 = requests on one
    /// connection are answered one at a time; clients that pipeline many
    /// concurrent calls over a single connection need more).
    std::size_t connection_workers = 1;
  };

  struct Stats {
    uint64_t queries_completed = 0;
    uint64_t queries_failed = 0;    // engine/validation/decode errors
    uint64_t queries_rejected = 0;  // backpressure (kResourceExhausted)
    uint64_t hello_rejected = 0;    // version mismatch / missing hello
    uint64_t auth_rejected = 0;     // bad key / query without kAuthenticate
  };

  /// \brief The multi-table front end: serves every table registered in
  /// `registry`, which must outlive the service and to which Start applies
  /// TableRegistry::Freeze. Construction does not bind.
  QueryService(TableRegistry* registry, const Options& options);

  /// \brief The single-table convenience used by tests and benches: wraps
  /// `engine` (not owned, must outlive the service) in an internal registry
  /// as table "default".
  QueryService(SknnEngine* engine, const Options& options);

  ~QueryService();

  /// \brief The sharded construction path of the front end: builds the
  /// engine `sknn_c1_server --shard-workers host:port,...` serves, with the
  /// same wire contract as the unsharded one. Each "host:port" entry is one
  /// standing sknn_c1_shard worker; the engine is assembled via
  /// SknnEngine::CreateWithShardWorkers, so the front end loads no records
  /// and learns the geometry from the workers, whose coordinator refuses a
  /// set that leaves a shard 0..s-1 without a worker. SEVERAL workers may
  /// serve the same shard index: they become that shard's replicas, queries
  /// fail over between them, and the coordinator redials a dead worker at
  /// its listed address.
  static Result<std::unique_ptr<SknnEngine>> CreateShardedEngine(
      const PaillierPublicKey& pk, std::unique_ptr<Endpoint> c2_link,
      SknnEngine::Options options,
      const std::vector<std::string>& worker_addrs);

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// \brief Binds `port` (0 = ephemeral; see port()) and starts accepting.
  Status Start(uint16_t port);

  /// \brief The bound port, valid after a successful Start.
  uint16_t port() const;

  /// \brief Stops accepting, closes every client link, waits for in-flight
  /// handlers (RpcListener::Shutdown). Idempotent; also run by the
  /// destructor.
  void Shutdown();

  Stats stats() const;

  /// \brief The control plane's service-wide snapshot (also what a
  /// kServiceStats frame answers): uptime, per-table counters, in-flight.
  ServiceStatsReply ServiceStatsSnapshot() const;

  /// \brief The control plane's replica-liveness snapshot (also what a
  /// kHealth frame answers): per table, per shard, per replica.
  HealthReply HealthSnapshot() const;

  /// \brief Builds a replacement engine for table `name` from `spec` (the
  /// frame's, or the registered one when the frame's is empty). Installed
  /// by the host process — tools/sknn_c1_server knows how its tables were
  /// built — and invoked by kReloadTable OUTSIDE every service lock, so a
  /// multi-second load never stalls serving. Without a loader, kReloadTable
  /// answers kFailedPrecondition.
  using TableLoader = std::function<Result<std::unique_ptr<SknnEngine>>(
      const std::string& name, const std::string& spec)>;
  void set_table_loader(TableLoader loader);

  /// \brief Enables API-key authentication (serve/qos/api_key_auth.h):
  /// every session must kAuthenticate with a registered key before its
  /// kQuery frames are served; the control plane stays open. Must be
  /// called before Start; null keeps the service open (the default).
  void set_api_key_auth(std::unique_ptr<ApiKeyAuth> auth);

  /// \brief Connections whose client has not yet disconnected. A graceful
  /// drain (tools/sknn_c1_server --queries) waits for this to reach zero
  /// before Shutdown: queries_completed is counted when the handler
  /// finishes, a hair before the response frame hits the wire, so closing
  /// on the counter alone could cut off the last client's answer.
  std::size_t active_sessions() const;

 private:
  /// Per-connection negotiation state, captured by that connection's
  /// handler. The hello gate is per SESSION: one client negotiating does
  /// not admit its neighbors.
  struct SessionState {
    std::atomic<bool> hello_done{false};
    /// Index into the ApiKeyAuth registry once this session authenticated;
    /// -1 before (and forever, on an auth-less server).
    std::atomic<int64_t> key_index{-1};
  };

  Result<Message> HandleFrame(SessionState& session, const Message& request);
  Message HandleHello(SessionState& session, const Message& request);
  Message HandleAuthenticate(SessionState& session, const Message& request);
  Message HandleQuery(SessionState& session, QueryRequest request);
  Message HandleTableInfo(const Message& request);
  Message HandleReloadTable(const Message& request);
  Message HandleDetachTable(const Message& request);
  Message Reject(const Status& status, uint64_t Stats::* counter);
  /// \brief Pushes a kTableChanged note (correlation id 0) to every live
  /// session, so clients mid-conversation learn a table changed under them.
  void BroadcastTableChanged(const TableChangedNote& note);
  /// \brief listener_, read under mutex_; null before Start.
  RpcListener* listener() const;

  TableRegistry* registry_;
  /// Backs the single-engine constructor; null when the caller owns the
  /// registry.
  std::unique_ptr<TableRegistry> owned_registry_;
  Options options_;
  /// Set once by Start, under mutex_, which each session's handler factory
  /// takes too, so no handler runs before it is set. Read through
  /// listener(), which copies the pointer out under mutex_: no caller holds
  /// the lock while it calls into the listener.
  std::unique_ptr<RpcListener> listener_ GUARDED_BY(mutex_);
  std::chrono::steady_clock::time_point started_at_{};
  std::atomic<std::size_t> in_flight_{0};
  /// Weighted fair admission over the tables (serve/qos/fair_admission.h),
  /// built by Start from the frozen table set's QoS knobs; replaces the
  /// old single CAS-loop budget. Read-only pointer after Start.
  std::unique_ptr<FairAdmission> table_admission_;
  /// Entry* -> principal index in table_admission_, fixed at Start.
  std::unordered_map<const TableRegistry::Entry*, std::size_t>
      table_principal_;
  /// Per-key fair admission, present only when auth is enabled: a session's
  /// key bounds its slots by the key file's weights, so tenants sharing a
  /// table still get weighted fair service.
  std::unique_ptr<FairAdmission> key_admission_;
  std::unique_ptr<ApiKeyAuth> auth_;
  mutable Mutex mutex_;
  Stats stats_ GUARDED_BY(mutex_);
  mutable Mutex loader_mutex_;
  TableLoader table_loader_ GUARDED_BY(loader_mutex_);
};

}  // namespace sknn

#endif  // SKNN_SERVE_QUERY_SERVICE_H_
