#include "core/shard_coordinator.h"

#include <algorithm>
#include <string>
#include <thread>

#include "common/stopwatch.h"
#include "core/data_owner.h"
#include "core/sknn_b.h"
#include "net/socket.h"

namespace sknn {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// True when every ciphertext of a worker's answer lies in Z*_{N^2}.
bool CandidatesInRange(const PaillierPublicKey& pk,
                       const ShardCandidates& candidates) {
  auto valid = [&pk](const Ciphertext& c) { return pk.IsValidCiphertext(c); };
  auto all_valid = [&valid](const std::vector<Ciphertext>& cs) {
    return std::all_of(cs.begin(), cs.end(), valid);
  };
  return std::all_of(candidates.bits.begin(), candidates.bits.end(),
                     all_valid) &&
         std::all_of(candidates.records.begin(), candidates.records.end(),
                     all_valid) &&
         all_valid(candidates.distances);
}

}  // namespace

ShardCoordinator::~ShardCoordinator() {
  {
    MutexLock lock(&probe_mutex_);
    probe_stop_ = true;
  }
  probe_cv_.NotifyAll();
  if (probe_thread_.joinable()) probe_thread_.join();
}

Result<std::unique_ptr<ShardCoordinator>> ShardCoordinator::Create(
    const PaillierPublicKey& pk,
    std::vector<std::unique_ptr<Endpoint>> worker_links, Options options) {
  if (worker_links.empty()) {
    return Status::InvalidArgument("ShardCoordinator: no worker links");
  }
  if (!options.redial_addrs.empty() &&
      options.redial_addrs.size() != worker_links.size()) {
    return Status::InvalidArgument(
        "ShardCoordinator: redial_addrs must be empty or parallel to "
        "worker_links");
  }
  // Ping every worker for its geometry; workers may connect in any order —
  // they are re-indexed by their reported shard, and several workers
  // reporting the SAME shard become that shard's replicas.
  std::vector<std::shared_ptr<RpcClient>> clients;
  std::vector<ShardGeometry> geometries;
  for (auto& link : worker_links) {
    if (link == nullptr) {
      return Status::InvalidArgument("ShardCoordinator: null worker link");
    }
    auto client = std::make_shared<RpcClient>(std::move(link));
    auto pong = client->Call(EncodeShardPing());
    if (!pong.ok()) {
      return Status::Unavailable("shard worker " +
                                 std::to_string(clients.size()) +
                                 " did not answer ping: " +
                                 pong.status().message());
    }
    SKNN_ASSIGN_OR_RETURN(ShardGeometry geometry, DecodeShardGeometry(*pong));
    clients.push_back(std::move(client));
    geometries.push_back(geometry);
  }
  const ShardManifest manifest = geometries[0].manifest;
  // Every shard needs a worker, so a manifest claiming more shards than
  // there are links is wrong; refuse it before sizing anything from it.
  if (manifest.num_shards > clients.size()) {
    return Status::InvalidArgument(
        "ShardCoordinator: worker 0 claims " +
        std::to_string(manifest.num_shards) + " shards but only " +
        std::to_string(clients.size()) + " workers are linked");
  }
  auto coordinator = std::unique_ptr<ShardCoordinator>(new ShardCoordinator());
  coordinator->pk_ = pk;
  coordinator->manifest_ = manifest;
  coordinator->num_attributes_ = geometries[0].num_attributes;
  coordinator->distance_bits_ = geometries[0].distance_bits;
  coordinator->options_ = options;
  coordinator->groups_ =
      std::vector<ReplicaGroup>(manifest.num_shards);
  coordinator->shard_records_.assign(manifest.num_shards, 0);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const ShardGeometry& g = geometries[i];
    if (!(g.manifest == manifest) ||
        g.num_attributes != coordinator->num_attributes_ ||
        g.distance_bits != coordinator->distance_bits_) {
      return Status::InvalidArgument(
          "ShardCoordinator: worker " + std::to_string(i) +
          " disagrees on the manifest or database geometry");
    }
    if (g.shard >= manifest.num_shards) {
      return Status::InvalidArgument(
          "ShardCoordinator: worker " + std::to_string(i) +
          " claims out-of-range shard index " + std::to_string(g.shard));
    }
    // Replicas of one shard must hold identical slices.
    uint32_t& expected = coordinator->shard_records_[g.shard];
    if (expected == 0) {
      expected = g.shard_records;
    } else if (expected != g.shard_records) {
      return Status::InvalidArgument(
          "ShardCoordinator: replicas of shard " + std::to_string(g.shard) +
          " disagree on their record count (" + std::to_string(expected) +
          " vs " + std::to_string(g.shard_records) + ")");
    }
    auto replica = std::make_unique<Replica>();
    {
      MutexLock lock(&replica->mutex);
      replica->client = std::move(clients[i]);
    }
    if (!options.redial_addrs.empty()) {
      replica->redial_addr = options.redial_addrs[i];
    }
    replica->last_ok_ns.store(NowNs(), std::memory_order_relaxed);
    coordinator->groups_[g.shard].replicas.push_back(std::move(replica));
  }
  for (std::size_t shard = 0; shard < coordinator->groups_.size(); ++shard) {
    if (coordinator->groups_[shard].replicas.empty()) {
      return Status::InvalidArgument(
          "ShardCoordinator: workers do not cover shards 0.." +
          std::to_string(manifest.num_shards - 1) + " (no worker for shard " +
          std::to_string(shard) + ")");
    }
  }
  if (options.probe_interval.count() > 0) {
    coordinator->probe_thread_ =
        std::thread([c = coordinator.get()] { c->ProbeLoop(); });
  }
  return coordinator;
}

std::vector<ShardCoordinator::ReplicaStatus>
ShardCoordinator::ReplicaStatuses() const {
  std::vector<ReplicaStatus> statuses;
  const int64_t now = NowNs();
  for (std::size_t shard = 0; shard < groups_.size(); ++shard) {
    const ReplicaGroup& group = groups_[shard];
    for (std::size_t i = 0; i < group.replicas.size(); ++i) {
      const Replica& replica = *group.replicas[i];
      ReplicaStatus status;
      status.shard = static_cast<uint32_t>(shard);
      status.replica = static_cast<uint32_t>(i);
      status.healthy = replica.healthy.load(std::memory_order_relaxed);
      status.consecutive_failures =
          replica.consecutive_failures.load(std::memory_order_relaxed);
      status.failovers = replica.failovers.load(std::memory_order_relaxed);
      const int64_t last = replica.last_ok_ns.load(std::memory_order_relaxed);
      status.last_ok_age_seconds =
          last == 0 ? -1.0 : static_cast<double>(now - last) * 1e-9;
      statuses.push_back(status);
    }
  }
  return statuses;
}

void ShardCoordinator::ProbeLoop() {
  for (;;) {
    {
      MutexLock lock(&probe_mutex_);
      if (!probe_stop_) {
        probe_cv_.WaitFor(probe_mutex_, options_.probe_interval);
      }
      if (probe_stop_) return;
    }
    for (auto& group : groups_) {
      for (auto& replica : group.replicas) {
        {
          MutexLock lock(&probe_mutex_);
          if (probe_stop_) return;
        }
        ProbeReplica(*replica);
      }
    }
  }
}

void ShardCoordinator::ProbeReplica(Replica& replica) {
  // Bound the probe by the probe interval so one dead-but-routable worker
  // cannot back the whole probe cycle up behind a TCP timeout.
  const auto timeout = options_.probe_interval;
  std::shared_ptr<RpcClient> client = replica.GetClient();
  if (client != nullptr) {
    auto pong = client->Call(EncodeShardPing(), timeout);
    if (pong.ok() && DecodeShardGeometry(*pong).ok()) {
      replica.MarkOk();
      return;
    }
    if (pong.status().code() == StatusCode::kDeadlineExceeded) {
      // Link still up, worker silent (busy or stopped): count the failure
      // but keep the client — a busy worker recovers on its own.
      replica.MarkFailed();
      return;
    }
  }
  // Link dead. Redial if we know the address; a restarted worker (same
  // port, fresh process) passes the ping and is reinstated.
  replica.MarkFailed();
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(replica.redial_addr, &host, &port).ok()) return;
  auto endpoint = ConnectTcp(host, port);
  if (!endpoint.ok()) return;
  auto fresh = std::make_shared<RpcClient>(std::move(*endpoint));
  auto pong = fresh->Call(EncodeShardPing(), timeout);
  if (!pong.ok()) return;
  auto geometry = DecodeShardGeometry(*pong);
  if (!geometry.ok() || !(geometry->manifest == manifest_)) return;
  {
    MutexLock lock(&replica.mutex);
    replica.client = std::move(fresh);
  }
  replica.MarkOk();
}

Result<ShardCandidates> ShardCoordinator::RunShard(
    ProtoContext& ctx, std::size_t shard, const QueryRequest& request,
    const std::vector<Ciphertext>& enc_query, ShardQueryStats* stats) {
  stats->shard = static_cast<uint32_t>(shard);
  ReplicaGroup& group = groups_[shard];
  const std::size_t n = group.replicas.size();
  // Attempt order: healthy replicas first, starting at the preferred one
  // (the last that answered), ejected replicas as a last resort — a stale
  // "unhealthy" verdict must never fail a query that an alive-but-ejected
  // worker could have served.
  const std::size_t start = group.preferred.load(std::memory_order_relaxed) % n;
  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = (start + i) % n;
    if (group.replicas[idx]->healthy.load(std::memory_order_relaxed)) {
      order.push_back(idx);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = (start + i) % n;
    if (!group.replicas[idx]->healthy.load(std::memory_order_relaxed)) {
      order.push_back(idx);
    }
  }
  Status last_error = Status::Unavailable(
      "shard " + std::to_string(shard) + ": no replica answered");
  for (std::size_t attempt = 0; attempt < order.size(); ++attempt) {
    const std::size_t idx = order[attempt];
    Replica& replica = *group.replicas[idx];
    // Per-attempt budget: the time remaining split over the replicas still
    // untried, so one hung worker burns only its share of the deadline and
    // the stage fails over while there is budget left for the next replica.
    std::chrono::milliseconds timeout{0};
    ShardQueryFrame frame;
    frame.query_id = ctx.query_id();
    frame.k = request.k;
    frame.protocol = request.protocol;
    frame.enc_query = enc_query;
    if (ctx.has_deadline()) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              ctx.deadline() - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        return Status::DeadlineExceeded("shard " + std::to_string(shard) +
                                        ": query deadline elapsed");
      }
      timeout = remaining / static_cast<int64_t>(order.size() - attempt);
      if (timeout.count() < 1) timeout = std::chrono::milliseconds{1};
      frame.deadline_ms = static_cast<uint32_t>(timeout.count());
    }
    std::shared_ptr<RpcClient> client = replica.GetClient();
    Result<Message> resp =
        client != nullptr
            ? client->Call(EncodeShardQuery(frame), timeout)
            : Result<Message>(Status::Unavailable("replica has no link"));
    const std::string who =
        "shard " + std::to_string(shard) + " replica " + std::to_string(idx);
    // Charges the replica for this attempt; the stage fails over to the
    // next one within this query.
    auto fail_over = [&](Status error) {
      replica.MarkFailed();
      replica.failovers.fetch_add(1, std::memory_order_relaxed);
      stats->failovers += 1;
      last_error = std::move(error);
    };
    if (!resp.ok()) {
      const StatusCode code = resp.status().code();
      // No answer (a dead link, or a worker whose own C2 link died) or no
      // answer in time: a sibling replica, with its own links, may answer.
      if (code == StatusCode::kUnavailable ||
          code == StatusCode::kDeadlineExceeded) {
        fail_over(Status(code, who + ": " + resp.status().message()));
        continue;
      }
      // Any other code is the live worker's typed answer: the REQUEST is
      // wrong (bad k, bad geometry...), and a sibling would repeat it.
      replica.MarkOk();
      return resp.status();
    }
    // Every byte from a worker is hostile until checked: a malformed frame,
    // or a candidate ciphertext outside Z*_{N^2}, is this replica's fault,
    // and a sibling may answer properly.
    Result<ShardCandidatesFrame> decoded = DecodeShardCandidates(*resp);
    if (decoded.ok() && !CandidatesInRange(pk_, decoded->candidates)) {
      decoded = Status::ProtocolError(
          "a candidate ciphertext lies outside Z*_{N^2}");
    }
    if (!decoded.ok()) {
      fail_over(Status::ProtocolError(who + " answered invalid candidates: " +
                                      decoded.status().message()));
      continue;
    }
    replica.MarkOk();
    group.preferred.store(idx, std::memory_order_relaxed);
    stats->candidates = static_cast<uint32_t>(decoded->candidates.count());
    stats->seconds = decoded->seconds;
    stats->traffic = decoded->traffic;
    stats->ops = decoded->ops;
    stats->replica = static_cast<uint32_t>(idx);
    return std::move(decoded->candidates);
  }
  return last_error;
}

Result<CloudQueryOutput> ShardCoordinator::MergeSecure(
    ProtoContext& ctx, std::vector<ShardCandidates> candidates, unsigned k,
    SkNNmBreakdown* breakdown) {
  const unsigned want_bits =
      AugmentedBitWidth(distance_bits_, manifest_.total_records);
  std::vector<EncryptedBits> pool_bits;
  std::vector<std::vector<Ciphertext>> pool_records;
  for (std::size_t shard = 0; shard < candidates.size(); ++shard) {
    ShardCandidates& c = candidates[shard];
    if (c.bits.size() != c.records.size()) {
      return Status::ProtocolError("shard " + std::to_string(shard) +
                                   ": candidate bits/records mismatch");
    }
    for (std::size_t i = 0; i < c.bits.size(); ++i) {
      if (c.bits[i].size() != want_bits ||
          c.records[i].size() != num_attributes_) {
        return Status::ProtocolError("shard " + std::to_string(shard) +
                                     ": candidate geometry mismatch");
      }
      pool_bits.push_back(std::move(c.bits[i]));
      pool_records.push_back(std::move(c.records[i]));
    }
  }
  if (pool_records.size() < k) {
    return Status::ProtocolError(
        "merge pool holds " + std::to_string(pool_records.size()) +
        " candidates for k = " + std::to_string(k));
  }
  // The candidates' augmented values are pairwise distinct (each embeds its
  // global index), so these k iterations pick exactly the global top-k in
  // the global order — bitwise what the unsharded extraction returns.
  SKNN_ASSIGN_OR_RETURN(
      TopKExtraction top,
      ExtractTopK(ctx, pool_records, pool_bits, k,
                  DataOwner::ImpliedAttrBits(num_attributes_, distance_bits_),
                  /*keep_winner_bits=*/false, breakdown));
  Stopwatch finalize;
  Result<CloudQueryOutput> out = MaskAndShipToBob(ctx, top.records);
  if (breakdown != nullptr) {
    breakdown->finalize_seconds += finalize.ElapsedSeconds();
  }
  return out;
}

Result<CloudQueryOutput> ShardCoordinator::MergeBasic(
    ProtoContext& ctx, std::vector<ShardCandidates> candidates, unsigned k) {
  struct Candidate {
    const Ciphertext* distance;
    const std::vector<Ciphertext>* record;
    uint32_t global_index;
  };
  std::vector<Candidate> pool;
  for (std::size_t shard = 0; shard < candidates.size(); ++shard) {
    const ShardCandidates& c = candidates[shard];
    if (c.distances.size() != c.records.size() ||
        c.global_indices.size() != c.records.size()) {
      return Status::ProtocolError("shard " + std::to_string(shard) +
                                   ": basic candidate geometry mismatch");
    }
    for (std::size_t i = 0; i < c.records.size(); ++i) {
      if (c.records[i].size() != num_attributes_ ||
          c.global_indices[i] >= manifest_.total_records) {
        return Status::ProtocolError("shard " + std::to_string(shard) +
                                     ": basic candidate out of range");
      }
      pool.push_back({&c.distances[i], &c.records[i], c.global_indices[i]});
    }
  }
  if (pool.size() < k) {
    return Status::ProtocolError("merge pool holds " +
                                 std::to_string(pool.size()) +
                                 " candidates for k = " + std::to_string(k));
  }
  // C2's top-k round breaks distance ties by the lower POSITION in the sent
  // vector; ordering the pool by global index makes that tie-break the
  // global one, so the merged list equals the unsharded protocol's exactly.
  std::sort(pool.begin(), pool.end(), [](const Candidate& a,
                                         const Candidate& b) {
    return a.global_index < b.global_index;
  });
  std::vector<Ciphertext> dists;
  dists.reserve(pool.size());
  for (const Candidate& c : pool) dists.push_back(*c.distance);
  SKNN_ASSIGN_OR_RETURN(std::vector<uint32_t> delta,
                        SecureTopKIndices(ctx, dists, k));
  std::vector<std::vector<Ciphertext>> chosen;
  chosen.reserve(k);
  for (uint32_t idx : delta) chosen.push_back(*pool[idx].record);
  return MaskAndShipToBob(ctx, chosen);
}

Result<CloudQueryOutput> ShardCoordinator::Run(
    ProtoContext& ctx, const QueryRequest& request,
    const std::vector<Ciphertext>& enc_query, SkNNmBreakdown* breakdown,
    RunStats* stats, const std::vector<uint32_t>* active_shards) {
  const std::size_t s = manifest_.num_shards;
  RunStats local_stats;
  RunStats& st = stats != nullptr ? *stats : local_stats;
  st.shards.assign(s, ShardQueryStats{});
  st.merge_seconds = 0;
  // Clustered pruning: shards outside `active_shards` never see the query.
  // `active` also sanitizes the list (dedup + range check) so a buggy
  // caller cannot double-run or overrun a shard.
  std::vector<bool> active(s, active_shards == nullptr);
  if (active_shards != nullptr) {
    for (uint32_t shard : *active_shards) {
      if (shard >= s) {
        return Status::InvalidArgument(
            "ShardCoordinator: active shard " + std::to_string(shard) +
            " out of range (num_shards = " + std::to_string(s) + ")");
      }
      active[shard] = true;
    }
  }
  for (std::size_t shard = 0; shard < s; ++shard) {
    st.shards[shard].shard = static_cast<uint32_t>(shard);
    st.shards[shard].shard_records = shard_records(shard);
    st.shards[shard].pruned = active[shard] ? 0 : 1;
  }

  // Fan out: every active shard stage in flight at once. Shard threads only
  // send the stage to a worker and block on its answer.
  std::vector<Result<ShardCandidates>> results(
      s, Result<ShardCandidates>(Status::Internal("unset")));
  {
    std::vector<std::thread> threads;
    threads.reserve(s);
    for (std::size_t shard = 0; shard < s; ++shard) {
      if (!active[shard]) continue;
      threads.emplace_back([&, shard] {
        results[shard] =
            RunShard(ctx, shard, request, enc_query, &st.shards[shard]);
      });
    }
    for (auto& t : threads) t.join();
  }
  std::vector<ShardCandidates> candidates;
  candidates.reserve(s);
  for (std::size_t shard = 0; shard < s; ++shard) {
    if (!active[shard]) continue;
    if (!results[shard].ok()) return results[shard].status();
    candidates.push_back(std::move(results[shard]).value());
  }

  Stopwatch merge_watch;
  Result<CloudQueryOutput> merged =
      request.protocol == QueryProtocol::kBasic
          ? MergeBasic(ctx, std::move(candidates), request.k)
          : MergeSecure(ctx, std::move(candidates), request.k, breakdown);
  st.merge_seconds = merge_watch.ElapsedSeconds();
  return merged;
}

}  // namespace sknn
