#include "core/engine.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <thread>

#include "bigint/random.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/data_owner.h"
#include "net/socket.h"
#include "proto/query_meter.h"
#include "proto/ssed.h"

namespace sknn {

const char* QueryProtocolName(QueryProtocol protocol) {
  switch (protocol) {
    case QueryProtocol::kBasic:
      return "basic";
    case QueryProtocol::kSecure:
      return "secure";
    case QueryProtocol::kFarthest:
      return "farthest";
  }
  return "unknown";
}

Result<std::unique_ptr<SknnEngine>> SknnEngine::Create(
    const PlainTable& table, const Options& options) {
  // Alice: keygen + attribute-wise encryption (her one-time cost).
  SKNN_ASSIGN_OR_RETURN(DataOwner alice, DataOwner::Create(options.key_bits));
  std::unique_ptr<ThreadPool> setup_pool;
  ThreadPool* pool_ptr = nullptr;
  if (options.c1_threads > 1) {
    setup_pool = std::make_unique<ThreadPool>(options.c1_threads);
    pool_ptr = setup_pool.get();
  }
  SKNN_ASSIGN_OR_RETURN(
      EncryptedDatabase db,
      alice.EncryptDatabase(table, options.attr_bits, pool_ptr));
  return CreateFromParts(alice.public_key(), alice.secret_key_for_c2(),
                         std::move(db), options);
}

Result<std::unique_ptr<SknnEngine>> SknnEngine::CreateFromParts(
    const PaillierPublicKey& pk, PaillierSecretKey sk, EncryptedDatabase db,
    const Options& options) {
  if (db.records.empty() || db.distance_bits == 0) {
    return Status::InvalidArgument("CreateFromParts: empty database");
  }
  if (sk.public_key().n() != pk.n()) {
    return Status::InvalidArgument(
        "CreateFromParts: public and secret key do not match");
  }
  // Outsourcing split: Epk(T) is C1's copy; sk goes to C2, which stands
  // up as sknn_c2_server stands up its own (a C2Service behind an
  // RpcServer), on a socketpair instead of a TCP listener. The engine then
  // joins it as it would join a served C2.
  Channel::EndpointPair link = Channel::CreatePair();
  if (link.a == nullptr) {
    return Status::IoError("CreateFromParts: cannot open the C1-C2 link");
  }
  std::unique_ptr<Endpoint> c1_end = std::move(link.a);
  std::unique_ptr<Endpoint> c2_end = std::move(link.b);
  if (options.c1_c2_latency.count() > 0) {
    c1_end = std::make_unique<DelayedEndpoint>(std::move(c1_end),
                                               options.c1_c2_latency);
    c2_end = std::make_unique<DelayedEndpoint>(std::move(c2_end),
                                               options.c1_c2_latency);
  }
  auto c2 = std::make_unique<C2Service>(std::move(sk));
  c2->StartPools(options.c2_threads, options.randomizer_pool_capacity,
                 options.short_randomizers);
  C2Service* c2_raw = c2.get();
  auto server = std::make_unique<RpcServer>(
      std::move(c2_end),
      [c2_raw](const Message& req) { return c2_raw->Handle(req); },
      options.c2_threads);
  SKNN_ASSIGN_OR_RETURN(
      std::unique_ptr<SknnEngine> engine,
      CreateWithRemoteC2(pk, std::move(db), std::move(c1_end), options));
  engine->c2_ = std::move(c2);
  engine->server_ = std::move(server);
  return engine;
}

Result<std::unique_ptr<SknnEngine>> SknnEngine::CreateWithRemoteC2(
    const PaillierPublicKey& pk, EncryptedDatabase db,
    std::unique_ptr<Endpoint> c2_link, const Options& options) {
  if (db.records.empty() || db.distance_bits == 0) {
    return Status::InvalidArgument("CreateWithRemoteC2: empty database");
  }
  if (c2_link == nullptr) {
    return Status::InvalidArgument("CreateWithRemoteC2: null C2 link");
  }
  auto engine = std::unique_ptr<SknnEngine>(new SknnEngine());
  engine->options_ = options;
  engine->pk_ = pk;
  engine->table_.db = std::move(db);
  engine->client_ = std::make_unique<RpcClient>(std::move(c2_link));
  SKNN_RETURN_NOT_OK(engine->InitCommon());
  SKNN_RETURN_NOT_OK(engine->JoinSharedC2("CreateWithRemoteC2"));
  return engine;
}

Result<std::unique_ptr<SknnEngine>> SknnEngine::CreateWithShardWorkers(
    const PaillierPublicKey& pk,
    std::vector<std::unique_ptr<Endpoint>> shard_links,
    std::unique_ptr<Endpoint> c2_link, const Options& options) {
  if (c2_link == nullptr) {
    return Status::InvalidArgument("CreateWithShardWorkers: null C2 link");
  }
  auto engine = std::unique_ptr<SknnEngine>(new SknnEngine());
  engine->options_ = options;
  engine->pk_ = pk;
  engine->client_ = std::make_unique<RpcClient>(std::move(c2_link));

  // The coordinator pings every worker and validates the shard cover; the
  // database geometry comes back with the pings, so the front end itself
  // never loads Epk(T). Several links reporting the same shard become that
  // shard's replicas: queries fail over between them, and the probe thread
  // redials dead ones at their configured addresses.
  ShardCoordinator::Options coordinator_options;
  coordinator_options.redial_addrs = options.shard_worker_redial_addrs;
  coordinator_options.probe_interval = options.shard_probe_interval;
  SKNN_ASSIGN_OR_RETURN(
      engine->coordinator_,
      ShardCoordinator::Create(pk, std::move(shard_links),
                               std::move(coordinator_options)));
  engine->num_records_ = engine->coordinator_->manifest().total_records;
  engine->num_attributes_ = engine->coordinator_->num_attributes();
  engine->distance_bits_ = engine->coordinator_->distance_bits();
  if (engine->num_records_ == 0 || engine->num_attributes_ == 0 ||
      engine->distance_bits_ == 0) {
    return Status::ProtocolError(
        "CreateWithShardWorkers: workers reported an empty geometry");
  }
  SKNN_RETURN_NOT_OK(engine->InitCommon());
  SKNN_RETURN_NOT_OK(engine->JoinSharedC2("CreateWithShardWorkers"));
  return engine;
}

Status SknnEngine::JoinSharedC2(const char* factory) {
  // Many front ends may share one C2 server; a random non-zero id base
  // keeps their per-query state (Bob outbox buckets, op ledger entries)
  // disjoint.
  uint64_t id_base = 0;
  while (id_base == 0) {
    id_base = Random::ThreadLocal().UniformUint64(UINT64_MAX);
  }
  next_query_id_.store(id_base);

  Message ping;
  ping.type = OpCode(Op::kPing);
  SKNN_ASSIGN_OR_RETURN(Message pong, client_->Call(std::move(ping)));
  if (pong.type != OpCode(Op::kPing)) {
    return Status::ProtocolError(
        std::string(factory) +
        ": peer did not answer ping (not a C2 server?)");
  }
  return Status::OK();
}

Status SknnEngine::InitCommon() {
  // Geometry: mirrored from the hosted database unless a shard-worker
  // construction already learned it from the workers.
  if (num_records_ == 0) {
    num_records_ = table_.db.num_records();
    num_attributes_ = table_.db.num_attributes();
    distance_bits_ = table_.db.distance_bits;
  }
  // The hosted table is the one shard of an unsharded engine; its global
  // indices are the identity.
  table_.global_indices.resize(table_.db.num_records());
  std::iota(table_.global_indices.begin(), table_.global_indices.end(),
            std::size_t{0});
  // Attribute domain implied by the database; request validation holds
  // queries to this bound so the protocols' distance-domain guarantee
  // survives any query.
  attr_bits_ = DataOwner::ImpliedAttrBits(num_attributes_, distance_bits_);

  if (options_.c1_threads > 1) {
    c1_pool_ = std::make_unique<ThreadPool>(options_.c1_threads);
  }
  // Bob's client copies the key BEFORE any pool is attached: the end user
  // pays the paper's unamortized encryption cost (the "4 ms / 17 ms"
  // bob_seconds numbers) and never draws from the clouds' stock.
  bob_ = std::make_unique<QueryClient>(pk_);

  // C1's randomizer precomputation, so online encryptions cost a modmul.
  // The pool is engine-wide and attribution stays per query. C2 sets up
  // its own pools (C2Service::StartPools).
  RandomizerPoolOptions pool_options;
  pool_options.short_exponents = options_.short_randomizers;
  pool_options.workers = RefillWorkersFor(options_.c1_threads);
  c1_rand_pool_ = std::make_unique<RandomizerPool>(
      pk_.n(), options_.randomizer_pool_capacity, pool_options);
  pk_.set_randomizer_pool(c1_rand_pool_.get());

  // Clustered index: hold the manifest and its per-cluster sizes.
  if (options_.clusters != nullptr) {
    clusters_ = options_.clusters;
    cluster_sizes_ = ClusterSizes(*clusters_);
    if (coordinator_ != nullptr) {
      SKNN_RETURN_NOT_OK(ValidateClusterManifestShape(*clusters_));
      // Remote workers: their manifest must BE this cluster partitioning,
      // or pruning cluster c would skip an unrelated slice of the table.
      const ShardManifest& manifest = coordinator_->manifest();
      if (manifest.scheme != ShardScheme::kByCluster ||
          manifest.num_shards != clusters_->num_clusters ||
          manifest.total_records != clusters_->total_records ||
          clusters_->num_attributes != num_attributes_) {
        return Status::InvalidArgument(
            "clustered engine: the shard workers are not partitioned by "
            "this cluster manifest (want scheme bycluster with one shard "
            "per cluster; restart the workers with sknn_c1_shard "
            "--clusters)");
      }
    } else if (Status valid =
                   ValidateClusterManifestForDatabase(*clusters_, table_.db);
               !valid.ok()) {
      return valid;
    }
    // The centroids enter the probe round's SSED as records do, and no
    // loader checks them against this key.
    for (std::size_t c = 0; c < clusters_->centroids.size(); ++c) {
      for (std::size_t j = 0; j < clusters_->centroids[c].size(); ++j) {
        if (!pk_.IsValidCiphertext(clusters_->centroids[c][j])) {
          return Status::CryptoError(
              "clustered engine: centroid of cluster " + std::to_string(c) +
              ", attribute " + std::to_string(j) +
              " is not a ciphertext under this table's key");
        }
      }
    }
  }

  // SSED packs, once per load: the centroids, and the table when this
  // engine hosts it.
  Stopwatch pack_watch;
  if (clusters_ != nullptr) {
    centroid_packs_ = PackSsedRecords(pk_, clusters_->centroids, attr_bits_,
                                      c1_pool_.get());
  }
  PackSlice(pk_, table_, c1_pool_.get());
  pack_stats_.records += centroid_packs_.size() + table_.packs.size();
  pack_stats_.seconds += pack_watch.ElapsedSeconds();
  pack_stats_.groups_per_record =
      SsedLayoutFor(pk_.n(), attr_bits_, num_attributes_)
          .Groups(num_attributes_);
  return Status::OK();
}

SknnEngine::Info SknnEngine::info() const {
  Info info;
  info.num_records = num_records_;
  info.num_attributes = num_attributes_;
  info.attr_bits = attr_bits_;
  info.distance_bits = distance_bits_;
  info.k_max = static_cast<unsigned>(num_records_);
  info.remote_shard_workers = coordinator_ != nullptr;
  if (coordinator_ != nullptr) {
    info.num_shards = coordinator_->manifest().num_shards;
    info.shard_scheme = coordinator_->manifest().scheme;
  }
  if (clusters_ != nullptr) info.num_clusters = clusters_->num_clusters;
  return info;
}

SknnEngine::RandomizerPoolStats SknnEngine::randomizer_pool_stats() {
  RandomizerPoolStats stats;
  stats.c1_hits = c1_rand_pool_->hits();
  stats.c1_misses = c1_rand_pool_->misses();
  stats.c1_stock = c1_rand_pool_->stock();
  stats.c1_capacity = c1_rand_pool_->capacity();
  // C2's: one untagged meta exchange; zeros on any failure (the control
  // plane must never fail a stats frame on a flaky link).
  Message req;
  req.type = OpCode(Op::kFetchPoolStats);
  Result<Message> resp = client_->Call(std::move(req));
  if (resp.ok()) {
    FrameReader r(resp->aux);
    const uint64_t hits = r.U64(), misses = r.U64(), stock = r.U64(),
                   capacity = r.U64();
    if (r.Done("kFetchPoolStats reply").ok()) {
      stats.c2_hits = hits;
      stats.c2_misses = misses;
      stats.c2_stock = stock;
      stats.c2_capacity = capacity;
    }
  }
  return stats;
}

Status SknnEngine::ValidateRequest(const QueryRequest& request) const {
  const std::size_t n = num_records_;
  if (request.record.size() != num_attributes_) {
    return Status::InvalidArgument(
        "QueryRequest: record has " + std::to_string(request.record.size()) +
        " attributes, database has " + std::to_string(num_attributes_));
  }
  if (request.k == 0) {
    return Status::InvalidArgument("QueryRequest: k must be at least 1");
  }
  // Oversized k is a malformed REQUEST, not a borderline value: kTableInfo
  // advertises k_max, so fail typed and fast — before any crypto work.
  if (request.k > n) {
    return Status::InvalidArgument(
        "QueryRequest: k = " + std::to_string(request.k) +
        " exceeds this table's k_max = " + std::to_string(n) +
        " (kTableInfo reports the admissible bound)");
  }
  if (request.index_mode == IndexMode::kClustered && clusters_ == nullptr) {
    return Status::InvalidArgument(
        "QueryRequest: clustered index requested but this table has no "
        "cluster manifest (re-export with sknn_encrypt --clusters)");
  }
  const int64_t bound = int64_t{1} << attr_bits_;
  for (int64_t v : request.record) {
    if (v < 0 || v >= bound) {
      return Status::OutOfRange(
          "QueryRequest: attribute value " + std::to_string(v) +
          " outside [0, 2^" + std::to_string(attr_bits_) +
          ") — distances would overflow the protocol's l-bit domain");
    }
  }
  return Status::OK();
}

Result<CloudQueryOutput> SknnEngine::Dispatch(
    ProtoContext& ctx, const QueryRequest& request,
    const std::vector<Ciphertext>& enc_query, QueryResponse* response) {
  SkNNmBreakdown* breakdown =
      request.want_breakdown && request.protocol != QueryProtocol::kBasic
          ? &response->breakdown
          : nullptr;
  // Clustered index, with a pruning round actually worth running: probing
  // every cluster IS the exact computation, so that case (and every exact
  // request) runs over the whole table unchanged — which is what makes
  // probe = all bitwise-identical to exact mode.
  const bool prune =
      request.index_mode == IndexMode::kClustered && clusters_ != nullptr &&
      std::max(request.probe_clusters, 1u) < clusters_->num_clusters;
  std::vector<uint32_t> chosen;
  if (prune) {
    SKNN_ASSIGN_OR_RETURN(chosen, ChooseClusters(ctx, request, enc_query));
  }

  if (coordinator_ != nullptr) {
    // By-cluster shards: the pruned clusters' workers never see the query.
    ShardCoordinator::RunStats stats;
    Result<CloudQueryOutput> out =
        coordinator_->Run(ctx, request, enc_query, breakdown, &stats,
                          prune ? &chosen : nullptr);
    response->shards = std::move(stats.shards);
    response->merge_seconds = stats.merge_seconds;
    return out;
  }

  // Unsharded: the whole table is one shard. A pruned query gathers the
  // surviving clusters' records in ascending global order (the tie-break
  // order) and runs the same stage over the candidate set only.
  ShardSlice gathered;
  if (prune) {
    std::vector<bool> take(clusters_->num_clusters, false);
    for (uint32_t cluster : chosen) take[cluster] = true;
    gathered.db.distance_bits = table_.db.distance_bits;
    for (std::size_t i = 0; i < clusters_->assignment.size(); ++i) {
      if (!take[clusters_->assignment[i]]) continue;
      gathered.global_indices.push_back(i);
      gathered.db.records.push_back(table_.db.records[i]);
      if (!table_.packs.empty()) gathered.packs.push_back(table_.packs[i]);
    }
  }
  SKNN_ASSIGN_OR_RETURN(
      ShardCandidates top,
      RunShardStage(ctx, prune ? gathered : table_, num_records_, enc_query,
                    request.k, request.protocol, breakdown));
  Stopwatch finalize;
  Result<CloudQueryOutput> out = MaskAndShipToBob(ctx, top.records);
  if (breakdown != nullptr) {
    breakdown->finalize_seconds += finalize.ElapsedSeconds();
  }
  return out;
}

Result<std::vector<uint32_t>> SknnEngine::ChooseClusters(
    ProtoContext& ctx, const QueryRequest& request,
    const std::vector<Ciphertext>& enc_query) {
  const ClusterManifest& cm = *clusters_;
  const uint32_t probe = std::max(request.probe_clusters, 1u);

  // Probe round: SSED over the encrypted centroids, then C2's plaintext
  // top-k round over ALL of them gives the full cluster ranking. This is
  // the clustered mode's documented leakage — C2 learns how the CLUSTERS
  // rank for this query (never record distances or identities); see
  // docs/API.md. Centroids are rounded record means, inside the attribute
  // domain, so SSED blinds them like records.
  SKNN_ASSIGN_OR_RETURN(
      std::vector<Ciphertext> centroid_dists,
      SecureSquaredDistanceBatch(ctx, cm.centroids, enc_query, attr_bits_,
                                 &centroid_packs_));
  SKNN_ASSIGN_OR_RETURN(
      std::vector<uint32_t> ranking,
      SecureTopKIndices(ctx, centroid_dists, cm.num_clusters));
  if (request.protocol == QueryProtocol::kFarthest) {
    // Farthest neighbors live in the FARTHEST clusters.
    std::reverse(ranking.begin(), ranking.end());
  }

  // Greedy selection in rank order: at least probe_clusters clusters, and
  // however many more it takes for the candidates to satisfy k (every
  // answer needs k records; recall is approximate, the count is not).
  std::vector<uint32_t> chosen;
  std::size_t candidate_count = 0;
  for (uint32_t cluster : ranking) {
    chosen.push_back(cluster);
    candidate_count += cluster_sizes_[cluster];
    if (chosen.size() >= probe && candidate_count >= request.k) break;
  }
  return chosen;
}

Result<std::vector<BigInt>> SknnEngine::TakeC2Outbox(ProtoContext& ctx) {
  // A tagged fetch over the link. The engine unmasks on Bob's behalf (it
  // already holds Bob's masks), so this leg rides C1's connection; see
  // docs/DEPLOY.md for the trust model.
  SKNN_ASSIGN_OR_RETURN(Message resp, ctx.Call(Op::kFetchBobOutbox, {}));
  return std::move(resp.ints);
}

std::optional<OpSnapshot> SknnEngine::TakeC2QueryOps(ProtoContext& ctx) {
  Result<Message> resp = ctx.Call(Op::kFetchQueryOps, {});
  Status status = resp.status();
  OpSnapshot ops;
  if (status.ok()) {
    FrameReader r(resp->aux);
    ops = r.Ops();
    status = r.Done("kFetchQueryOps reply");
  }
  if (status.ok()) return ops;
  SKNN_LOG(Warning) << "query " << ctx.query_id()
                    << ": C2's op counts are missing from the reported "
                       "ops: "
                    << status.ToString();
  return std::nullopt;
}

Result<QueryResponse> SknnEngine::Query(const QueryRequest& request) {
  SKNN_RETURN_NOT_OK(ValidateRequest(request));
  // At most c1_threads queries execute at once, whichever threads call. A
  // valid request waits here for a slot, before its deadline clock starts,
  // and holds it until Query returns.
  const std::size_t slots = std::max<std::size_t>(1, options_.c1_threads);
  {
    MutexLock lock(&slot_mutex_);
    while (queries_executing_ >= slots) slot_cv_.Wait(slot_mutex_);
    ++queries_executing_;
  }
  struct SlotRelease {
    SknnEngine* engine;
    ~SlotRelease() {
      {
        MutexLock lock(&engine->slot_mutex_);
        --engine->queries_executing_;
      }
      engine->slot_cv_.NotifyOne();
    }
  } release{this};

  const uint64_t query_id = next_query_id_.fetch_add(1);
  QueryMeter meter;
  ProtoContext ctx(&pk_, client_.get(), c1_pool_.get(), query_id, &meter);
  if (request.deadline_ms > 0) {
    ctx.set_deadline(std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(request.deadline_ms));
  }
  QueryResponse response;

  // Bob: encrypt Q (his main cost — the paper's 4 ms / 17 ms numbers).
  Stopwatch bob_watch;
  std::vector<Ciphertext> enc_query = bob_->EncryptQuery(request.record);
  response.bob_seconds = bob_watch.ElapsedSeconds();

  // The clouds: run the chosen protocol. The C1 side of the query sinks its
  // Paillier ops into the meter; C2 attributes its share via the query id.
  Result<CloudQueryOutput> cloud = Status::Internal("unset");
  {
    ScopedOpSink sink(request.want_op_counts ? &meter.ops() : nullptr);
    Stopwatch cloud_watch;
    cloud = Dispatch(ctx, request, enc_query, &response);
    response.cloud_seconds = cloud_watch.ElapsedSeconds();
  }
  if (!cloud.ok()) {
    // Drop any partial result, best-effort: the protocol error is what the
    // caller needs to see, not a cleanup failure. The ledger entry is left
    // to C2's FIFO bound.
    (void)TakeC2Outbox(ctx);
    return cloud.status();
  }

  // Bob: combine C2's decrypted masked records with C1's masks. The outbox
  // bucket is keyed by query id, so concurrent queries cannot interleave.
  SKNN_ASSIGN_OR_RETURN(std::vector<BigInt> from_c2, TakeC2Outbox(ctx));
  // The ops fetch costs a round trip, so only pay it when the caller
  // asked; an undrained ledger entry is left to C2's FIFO bound.
  std::optional<OpSnapshot> c2_ops;
  if (request.want_op_counts) c2_ops = TakeC2QueryOps(ctx);
  // Under sharding the shard stages meter themselves (per-shard split in
  // response.shards); fold their share back into the query totals.
  response.traffic = meter.traffic();
  for (const auto& shard : response.shards) {
    response.traffic = response.traffic + shard.traffic;
  }
  if (request.want_op_counts) {
    response.c2_ops_missing = !c2_ops.has_value();
    response.ops = meter.ops().snapshot() + c2_ops.value_or(OpSnapshot{});
    for (const auto& shard : response.shards) {
      response.ops = response.ops + shard.ops;
    }
  }
  bob_watch.Reset();
  SKNN_ASSIGN_OR_RETURN(
      response.records,
      bob_->RecoverRecords(from_c2, cloud->masks_for_bob, request.k,
                           num_attributes_));
  response.bob_seconds += bob_watch.ElapsedSeconds();
  return response;
}

std::vector<Result<QueryResponse>> SknnEngine::QueryBatch(
    std::vector<QueryRequest> requests) {
  // One thread per query slot, each taking the next request; the slots
  // themselves are Query's, so a batch shares them with every other caller.
  std::vector<Result<QueryResponse>> results(
      requests.size(), Result<QueryResponse>(Status::Internal("unset")));
  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < requests.size();
         i = next.fetch_add(1)) {
      results[i] = Query(requests[i]);
    }
  };
  std::vector<std::thread> threads;
  const std::size_t workers = std::min(
      std::max<std::size_t>(1, options_.c1_threads), requests.size());
  threads.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) threads.emplace_back(drain);
  for (auto& thread : threads) thread.join();
  return results;
}

}  // namespace sknn
