#include "serve/query_service.h"

#include <optional>
#include <string>
#include <utility>

namespace sknn {

QueryService::QueryService(TableRegistry* registry, const Options& options)
    : registry_(registry), options_(options) {
  if (options_.max_in_flight == 0) options_.max_in_flight = 1;
  if (options_.connection_workers == 0) options_.connection_workers = 1;
}

QueryService::QueryService(SknnEngine* engine, const Options& options)
    : QueryService(static_cast<TableRegistry*>(nullptr), options) {
  owned_registry_ = std::make_unique<TableRegistry>();
  Status registered = owned_registry_->Register("default", engine);
  // The fixed name cannot fail validation; a null engine would crash on the
  // first query anyway, exactly like the pre-registry service.
  (void)registered;
  registry_ = owned_registry_.get();
}

QueryService::~QueryService() { Shutdown(); }

Result<std::unique_ptr<SknnEngine>> QueryService::CreateShardedEngine(
    const PaillierPublicKey& pk, std::unique_ptr<Endpoint> c2_link,
    SknnEngine::Options options,
    const std::vector<std::string>& worker_addrs) {
  // Parse every address before dialing any: a typo must fail as a typo,
  // and each address is later the replica's redial target, which the
  // coordinator's probe parses with this same parser.
  std::vector<std::pair<std::string, uint16_t>> targets(worker_addrs.size());
  for (std::size_t i = 0; i < worker_addrs.size(); ++i) {
    if (Status parsed = ParseHostPort(worker_addrs[i], &targets[i].first,
                                      &targets[i].second);
        !parsed.ok()) {
      return Status::InvalidArgument("CreateShardedEngine: worker " +
                                     parsed.message());
    }
  }
  std::vector<std::unique_ptr<Endpoint>> links;
  links.reserve(worker_addrs.size());
  for (std::size_t i = 0; i < worker_addrs.size(); ++i) {
    auto link = ConnectTcp(targets[i].first, targets[i].second);
    if (!link.ok()) {
      return Status::Unavailable("CreateShardedEngine: cannot reach shard "
                                 "worker at " + worker_addrs[i] + ": " +
                                 link.status().message());
    }
    links.push_back(std::move(link).value());
  }
  // The parsed addresses double as redial targets: a worker that dies and
  // comes back on the same port is re-adopted by the coordinator's probe.
  options.shard_worker_redial_addrs = worker_addrs;
  return SknnEngine::CreateWithShardWorkers(pk, std::move(links),
                                            std::move(c2_link), options);
}

Status QueryService::Start(uint16_t port) {
  if (listener() != nullptr) {
    return Status::FailedPrecondition("QueryService: already started");
  }
  if (registry_->size() == 0) {
    return Status::FailedPrecondition("QueryService: no tables registered");
  }
  // From here the table SET is immutable (no new names); the tables
  // themselves stay hot-reloadable through kReloadTable/kDetachTable.
  registry_->Freeze();
  // The frozen set is also the admission principal set: one weighted share
  // per table (detached-but-revivable entries included), replacing the old
  // first-come single budget. With one table of weight 1 this reproduces
  // the pre-QoS behavior exactly: one share covering the whole budget.
  {
    std::vector<FairAdmission::PrincipalConfig> tables;
    for (TableRegistry::Entry* entry : registry_->snapshot_all()) {
      table_principal_[entry] = tables.size();
      FairAdmission::PrincipalConfig config;
      config.name = "table '" + entry->name + "'";
      config.weight = entry->qos_weight;
      config.rate = entry->qos_rate;
      config.burst = entry->qos_burst;
      tables.push_back(std::move(config));
    }
    table_admission_ = std::make_unique<FairAdmission>(options_.max_in_flight,
                                                       std::move(tables));
  }
  if (auth_ != nullptr) {
    std::vector<FairAdmission::PrincipalConfig> keys;
    keys.reserve(auth_->size());
    for (std::size_t i = 0; i < auth_->size(); ++i) {
      FairAdmission::PrincipalConfig config;
      config.name = "key '" + auth_->id(i) + "'";
      config.weight = auth_->weight(i);
      keys.push_back(std::move(config));
    }
    key_admission_ = std::make_unique<FairAdmission>(options_.max_in_flight,
                                                     std::move(keys));
  }
  started_at_ = std::chrono::steady_clock::now();
  // mutex_ is held until listener_ is set, and every session's handler
  // factory takes it: no handler can run before then.
  MutexLock lock(&mutex_);
  SKNN_ASSIGN_OR_RETURN(
      listener_,
      RpcListener::Start(
          port,
          [this] {
            MutexLock lock(&mutex_);
            auto session = std::make_shared<SessionState>();
            return RpcServer::Handler([this, session](const Message& req) {
              return HandleFrame(*session, req);
            });
          },
          options_.connection_workers));
  return Status::OK();
}

RpcListener* QueryService::listener() const {
  MutexLock lock(&mutex_);
  return listener_.get();
}

void QueryService::Shutdown() {
  // Not under mutex_: the sessions' handlers may take it while they drain.
  if (RpcListener* listener = this->listener()) listener->Shutdown();
}

QueryService::Stats QueryService::stats() const {
  MutexLock lock(&mutex_);
  return stats_;
}

ServiceStatsReply QueryService::ServiceStatsSnapshot() const {
  ServiceStatsReply reply;
  reply.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_at_)
          .count();
  RpcListener* listener = this->listener();
  reply.connections_accepted = listener ? listener->accepted() : 0;
  reply.in_flight = in_flight_.load();
  for (const TableRegistry::Entry* entry : registry_->snapshot()) {
    TableStatsEntry table;
    table.name = entry->name;
    table.completed = entry->counters.completed.load();
    table.failed = entry->counters.failed.load();
    table.rejected = entry->counters.rejected.load();
    table.in_flight = entry->counters.in_flight.load();
    // Pool effectiveness (revision 4): merged C1 + C2 counters from the
    // table's engine. For a remote C2 this rides one kFetchPoolStats
    // exchange; zeros if the table is mid-reload (no engine) or the link
    // is down.
    if (std::shared_ptr<SknnEngine> engine = entry->engine()) {
      SknnEngine::RandomizerPoolStats pool = engine->randomizer_pool_stats();
      table.c1_pool_hits = pool.c1_hits;
      table.c1_pool_misses = pool.c1_misses;
      table.c1_pool_stock = pool.c1_stock;
      table.c1_pool_capacity = pool.c1_capacity;
      table.c2_pool_hits = pool.c2_hits;
      table.c2_pool_misses = pool.c2_misses;
      table.c2_pool_stock = pool.c2_stock;
      table.c2_pool_capacity = pool.c2_capacity;
    }
    // QoS surface (revision 6): admission share and result-cache counters.
    table.weight = entry->qos_weight;
    if (table_admission_ != nullptr) {
      if (auto it = table_principal_.find(entry);
          it != table_principal_.end()) {
        table.share_limit = table_admission_->share_limit(it->second);
      }
    }
    const ResultCache::Stats cache = entry->cache.stats();
    table.cache_hits = cache.hits;
    table.cache_misses = cache.misses;
    table.cache_evictions = cache.evictions;
    table.cache_entries = cache.entries;
    table.cache_bytes = cache.bytes;
    reply.tables.push_back(std::move(table));
  }
  reply.auth_enabled = auth_ != nullptr;
  if (auth_ != nullptr) {
    for (ApiKeyAuth::KeyStats& key : auth_->Snapshot()) {
      ApiKeyStatsEntry entry;
      entry.id = std::move(key.id);
      entry.completed = key.completed;
      entry.denied = key.denied;
      entry.quota_rejected = key.quota_rejected;
      entry.quota = key.quota;
      entry.remaining = key.remaining;
      entry.weight = key.weight;
      reply.keys.push_back(std::move(entry));
    }
  }
  return reply;
}

HealthReply QueryService::HealthSnapshot() const {
  HealthReply reply;
  for (const TableRegistry::Entry* entry : registry_->snapshot()) {
    TableHealthEntry table;
    table.name = entry->name;
    // An unsharded table reports an empty replica list: there is nothing
    // to fail over to.
    std::shared_ptr<SknnEngine> engine = entry->engine();
    if (engine != nullptr && engine->info().remote_shard_workers) {
      for (const ShardCoordinator::ReplicaStatus& status :
           engine->shard_coordinator()->ReplicaStatuses()) {
        ReplicaHealthEntry replica;
        replica.shard = static_cast<uint32_t>(status.shard);
        replica.replica = static_cast<uint32_t>(status.replica);
        replica.healthy = status.healthy;
        replica.consecutive_failures = status.consecutive_failures;
        replica.failovers = status.failovers;
        replica.last_ok_age_seconds = status.last_ok_age_seconds;
        table.replicas.push_back(replica);
      }
    }
    reply.tables.push_back(std::move(table));
  }
  return reply;
}

void QueryService::set_table_loader(TableLoader loader) {
  MutexLock lock(&loader_mutex_);
  table_loader_ = std::move(loader);
}

void QueryService::set_api_key_auth(std::unique_ptr<ApiKeyAuth> auth) {
  auth_ = std::move(auth);
}

void QueryService::BroadcastTableChanged(const TableChangedNote& note) {
  // Best effort by design: a client that raced its disconnect simply
  // misses the note and learns from its next query's error instead.
  listener()->PushToAll(EncodeTableChanged(note));
}

Message QueryService::HandleReloadTable(const Message& request) {
  Result<ReloadTableRequest> decoded = DecodeReloadTableRequest(request);
  if (!decoded.ok()) return EncodeQueryError(decoded.status());
  TableRegistry::Entry* entry = registry_->Find(decoded->table);
  if (entry == nullptr) {
    return EncodeQueryError(Status::NotFound(
        "QueryService: kReloadTable names unknown table '" + decoded->table +
        "' (the table set is fixed at startup; reload replaces an existing "
        "one)"));
  }
  const std::string spec =
      decoded->spec.empty() ? entry->spec() : decoded->spec;
  TableLoader loader;
  {
    MutexLock lock(&loader_mutex_);
    loader = table_loader_;
  }
  if (!loader) {
    return EncodeQueryError(Status::FailedPrecondition(
        "QueryService: this server has no table loader; kReloadTable is "
        "unavailable"));
  }
  // The build runs outside every service lock: queries keep flowing on the
  // OLD engine while the replacement is constructed, however long it takes.
  Result<std::unique_ptr<SknnEngine>> rebuilt =
      loader(decoded->table, spec);
  if (!rebuilt.ok()) return EncodeQueryError(rebuilt.status());
  if (Status swapped = registry_->ReplaceEngine(
          decoded->table, std::move(rebuilt).value(), spec);
      !swapped.ok()) {
    return EncodeQueryError(swapped);
  }
  BroadcastTableChanged({decoded->table, TableChangeKind::kReloaded});
  return EncodeAdminAck(decoded->table);
}

Message QueryService::HandleDetachTable(const Message& request) {
  Result<std::string> name = DecodeDetachTableRequest(request);
  if (!name.ok()) return EncodeQueryError(name.status());
  if (Status detached = registry_->Detach(*name); !detached.ok()) {
    return EncodeQueryError(detached);
  }
  BroadcastTableChanged({*name, TableChangeKind::kDetached});
  return EncodeAdminAck(*name);
}

uint16_t QueryService::port() const {
  RpcListener* listener = this->listener();
  return listener != nullptr ? listener->port() : 0;
}

std::size_t QueryService::active_sessions() const {
  RpcListener* listener = this->listener();
  return listener != nullptr ? listener->live() : 0;
}

Message QueryService::Reject(const Status& status,
                             uint64_t Stats::* counter) {
  {
    MutexLock lock(&mutex_);
    ++(stats_.*counter);
  }
  return EncodeQueryError(status);
}

Message QueryService::HandleHello(SessionState& session,
                                  const Message& request) {
  // The decoder refuses any revision but this build's (FailedPrecondition).
  Result<HelloInfo> hello = DecodeHello(request);
  if (!hello.ok()) {
    return Reject(hello.status(), &Stats::hello_rejected);
  }
  session.hello_done.store(true, std::memory_order_release);
  HelloInfo ack;
  ack.num_tables = static_cast<uint32_t>(registry_->size());
  return EncodeHelloAck(ack);
}

Message QueryService::HandleAuthenticate(SessionState& session,
                                         const Message& request) {
  Result<std::string> key = DecodeAuthenticateRequest(request);
  if (!key.ok()) return Reject(key.status(), &Stats::queries_failed);
  if (auth_ == nullptr) {
    // No key registry: ack as a no-op (empty key id), so one client
    // configuration works against both an open and an auth-enabled server.
    return EncodeAuthAck("");
  }
  Result<std::size_t> index = auth_->Authenticate(*key);
  if (!index.ok()) return Reject(index.status(), &Stats::auth_rejected);
  session.key_index.store(static_cast<int64_t>(*index),
                          std::memory_order_release);
  return EncodeAuthAck(auth_->id(*index));
}

Message QueryService::HandleQuery(SessionState& session,
                                  QueryRequest decoded) {
  Result<TableRegistry::Entry*> table = registry_->Resolve(decoded.table);
  if (!table.ok()) {
    return Reject(table.status(), &Stats::queries_failed);
  }
  TableRegistry::Entry& entry = **table;
  // Pin the cache generation BEFORE the engine: ReplaceEngine swaps the
  // engine first and invalidates the cache second, so a query that read the
  // OLD engine necessarily also read a pre-invalidation generation and its
  // Insert below is refused — a reload racing this query can never plant a
  // stale cache entry (serve/qos/result_cache.h).
  const uint64_t cache_generation = entry.cache.generation();
  // Pin the engine for the whole query: a concurrent kReloadTable swaps the
  // entry to a new engine, but this query finishes on the one it resolved —
  // the old engine cannot destruct while this shared_ptr lives.
  std::shared_ptr<SknnEngine> engine = entry.engine();
  if (engine == nullptr) {
    return Reject(Status::NotFound("QueryService: table '" + entry.name +
                                   "' was detached mid-session"),
                  &Stats::queries_failed);
  }
  // Validate before admission: malformed requests must not consume slots,
  // and their errors are not load signals.
  if (Status valid = engine->ValidateRequest(decoded); !valid.ok()) {
    entry.counters.failed.fetch_add(1);
    return Reject(valid, &Stats::queries_failed);
  }
  const int64_t key_index = session.key_index.load(std::memory_order_acquire);
  const bool keyed = auth_ != nullptr && key_index >= 0;
  const std::size_t key = keyed ? static_cast<std::size_t>(key_index) : 0;

  const bool cacheable = entry.cache.enabled();
  ResultCache::Key cache_key{};
  if (cacheable) {
    cache_key = ResultCache::Fingerprint(entry.name, decoded);
    if (!decoded.no_cache) {
      if (std::optional<QueryResponse> hit = entry.cache.Lookup(cache_key)) {
        // A hit is a served query: it is charged against the key's quota
        // but bypasses admission — it is a copy, not a protocol run, so it
        // must not occupy a protocol slot.
        if (keyed) {
          if (Status charged = auth_->ChargeQuery(key); !charged.ok()) {
            entry.counters.rejected.fetch_add(1);
            return Reject(charged, &Stats::queries_rejected);
          }
          auth_->NoteCompleted(key);
        }
        // The stored response rides out whole — records AND the populating
        // run's instrumentation (shard stats, breakdown), flagged by
        // cache_hit so a reader knows these numbers are that run's, not
        // this round trip's.
        hit->cache_hit = true;
        entry.counters.completed.fetch_add(1);
        MutexLock lock(&mutex_);
        ++stats_.queries_completed;
        return EncodeQueryResponse(*hit);
      }
    }
  }

  // Quota first (cheapest check that can refuse), then the table's fair
  // share, then the key's. Later rejections refund earlier charges — a
  // refused query must consume neither quota nor slots.
  if (keyed) {
    if (Status charged = auth_->ChargeQuery(key); !charged.ok()) {
      entry.counters.rejected.fetch_add(1);
      return Reject(charged, &Stats::queries_rejected);
    }
  }
  const std::size_t table_principal = table_principal_.at(&entry);
  if (Status admitted = table_admission_->TryAdmit(table_principal);
      !admitted.ok()) {
    if (keyed) {
      auth_->RefundQuery(key);
      auth_->NoteDenied(key);
    }
    entry.counters.rejected.fetch_add(1);
    return Reject(admitted, &Stats::queries_rejected);
  }
  if (keyed) {
    if (Status admitted = key_admission_->TryAdmit(key); !admitted.ok()) {
      table_admission_->Release(table_principal);
      auth_->RefundQuery(key);
      auth_->NoteDenied(key);
      entry.counters.rejected.fetch_add(1);
      return Reject(admitted, &Stats::queries_rejected);
    }
  }
  in_flight_.fetch_add(1);
  entry.counters.in_flight.fetch_add(1);

  Result<QueryResponse> response = engine->Query(decoded);
  entry.counters.in_flight.fetch_sub(1);
  in_flight_.fetch_sub(1);
  table_admission_->Release(table_principal);
  if (keyed) key_admission_->Release(key);
  if (!response.ok()) {
    // Server-side failure (the request validated): not the tenant's spend.
    if (keyed) auth_->RefundQuery(key);
    entry.counters.failed.fetch_add(1);
    return Reject(response.status(), &Stats::queries_failed);
  }
  if (keyed) auth_->NoteCompleted(key);
  entry.counters.completed.fetch_add(1);
  {
    MutexLock lock(&mutex_);
    ++stats_.queries_completed;
  }
  // Insert is generation-checked — see the pin at the top.
  if (cacheable) entry.cache.Insert(cache_key, *response, cache_generation);
  return EncodeQueryResponse(*response);
}

Message QueryService::HandleTableInfo(const Message& request) {
  Result<std::string> name = DecodeTableInfoRequest(request);
  if (!name.ok()) return EncodeQueryError(name.status());
  Result<TableRegistry::Entry*> table = registry_->Resolve(*name);
  if (!table.ok()) return EncodeQueryError(table.status());
  std::shared_ptr<SknnEngine> engine = (*table)->engine();
  if (engine == nullptr) {
    return EncodeQueryError(Status::NotFound(
        "QueryService: table '" + (*table)->name + "' was detached"));
  }
  const SknnEngine::Info info = engine->info();
  TableInfoReply reply;
  reply.name = (*table)->name;
  reply.num_records = info.num_records;
  reply.num_attributes = static_cast<uint32_t>(info.num_attributes);
  reply.attr_bits = info.attr_bits;
  reply.k_max = info.k_max;
  reply.distance_bits = info.distance_bits;
  reply.num_shards = static_cast<uint32_t>(info.num_shards);
  reply.shard_scheme = static_cast<uint32_t>(info.shard_scheme);
  reply.remote_workers = info.remote_shard_workers;
  reply.num_clusters = info.num_clusters;
  return EncodeTableInfoReply(reply);
}

Result<Message> QueryService::HandleFrame(SessionState& session,
                                          const Message& request) {
  if (request.type == FrontendOpCode(FrontendOp::kHello)) {
    return HandleHello(session, request);
  }
  // Shape first, handshake second: garbage stays a ProtocolError whether or
  // not the session ever negotiated, so fuzzing the port teaches an
  // attacker nothing about session state.
  Result<QueryRequest> decoded = QueryRequest{};
  if (request.type == FrontendOpCode(FrontendOp::kQuery)) {
    decoded = DecodeQueryRequest(request);
    if (!decoded.ok()) {
      return Reject(decoded.status(), &Stats::queries_failed);
    }
  }
  if (!session.hello_done.load(std::memory_order_acquire)) {
    return Reject(
        Status::FailedPrecondition(
            "QueryService: session did not hello — send kHello (protocol "
            "revision " + std::to_string(kProtocolRevision) +
            ") before any other frame"),
        &Stats::hello_rejected);
  }
  // Only the DATA path is credential-gated: operators may introspect an
  // auth-enabled instance (stats, health, table listing) without a key,
  // and the admin mutations were already host-trust operations.
  if (request.type == FrontendOpCode(FrontendOp::kQuery) &&
      auth_ != nullptr &&
      session.key_index.load(std::memory_order_acquire) < 0) {
    return Reject(
        Status::PermissionDenied(
            "QueryService: this server requires an API key — send "
            "kAuthenticate after the hello (client flag --api-key)"),
        &Stats::auth_rejected);
  }
  switch (static_cast<FrontendOp>(request.type)) {
    case FrontendOp::kQuery:
      return HandleQuery(session, std::move(*decoded));
    case FrontendOp::kAuthenticate:
      return HandleAuthenticate(session, request);
    case FrontendOp::kListTables:
      return EncodeTableList(registry_->names());
    case FrontendOp::kTableInfo:
      return HandleTableInfo(request);
    case FrontendOp::kServiceStats:
      return EncodeServiceStatsReply(ServiceStatsSnapshot());
    case FrontendOp::kHealth:
      return EncodeHealthReply(HealthSnapshot());
    case FrontendOp::kReloadTable:
      return HandleReloadTable(request);
    case FrontendOp::kDetachTable:
      return HandleDetachTable(request);
    default:
      return Reject(Status::ProtocolError(
                        "QueryService: frame type " +
                        std::to_string(request.type) +
                        " is not part of the front-end contract"),
                    &Stats::queries_failed);
  }
}

}  // namespace sknn
