// Sharded engines for the test suites, built the one way a deployment
// shards a table: ShardWorkers, each with what tools/sknn_c1_shard gives
// one (its own C2 link, C1 pool and randomizer pool), behind RpcServers,
// joined by SknnEngine::CreateWithShardWorkers. Here the workers are served
// on socketpairs (Channel::CreatePair) instead of TCP, and the front end's
// health probes are off: a socketpair-served worker has no address to
// redial.
#ifndef SKNN_TESTS_SHARD_TEST_UTIL_H_
#define SKNN_TESTS_SHARD_TEST_UTIL_H_

#include <chrono>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/clustering.h"
#include "core/engine.h"
#include "core/shard_worker.h"
#include "core/sharding.h"
#include "net/rpc.h"
#include "net/socket.h"
#include "tests/net_test_util.h"

namespace sknn {

/// \brief What tools/sknn_c1_shard builds around one worker: its own C2
/// link, C1 pool and randomizer pool (behind its copy of the key).
struct WorkerHost {
  WorkerHost(const PaillierPublicKey& key, std::unique_ptr<Endpoint> c2_link)
      : c2(std::move(c2_link)), rand_pool(key.n(), /*capacity=*/32), pk(key) {
    pk.set_randomizer_pool(&rand_pool);
  }
  RpcClient c2;
  ThreadPool pool{2};
  RandomizerPool rand_pool;
  PaillierPublicKey pk;
};

/// \brief One encrypted table cut into shards (`s` of `scheme`, or one per
/// cluster of a cluster manifest) and the workers made from it. `c2` holds
/// the secret key of `pk` and must outlive the set; an engine MakeEngine
/// returns must go before the set.
class ShardSet {
 public:
  ShardSet(const PaillierPublicKey& pk, EncryptedDatabase db, LoopbackC2* c2,
           std::size_t s, ShardScheme scheme)
      : pk_(pk), db_(std::move(db)), c2_(c2) {
    auto manifest = MakeShardManifest(db_.num_records(), s, scheme);
    SKNN_CHECK(manifest.ok()) << manifest.status();
    manifest_ = std::move(manifest).value();
  }

  /// \brief By cluster: shard i hosts the records of cluster i, as
  /// sknn_c1_shard --clusters partitions them.
  ShardSet(const PaillierPublicKey& pk, EncryptedDatabase db, LoopbackC2* c2,
           std::shared_ptr<const ClusterManifest> clusters)
      : pk_(pk), db_(std::move(db)), c2_(c2), clusters_(std::move(clusters)) {
    auto manifest = MakeShardManifest(db_.num_records(),
                                      clusters_->num_clusters,
                                      ShardScheme::kByCluster);
    SKNN_CHECK(manifest.ok()) << manifest.status();
    manifest_ = std::move(manifest).value();
  }

  /// \brief A worker for `shard` on a host of its own, which the set keeps
  /// until it goes (the caller's worker must go first).
  std::unique_ptr<ShardWorker> MakeWorker(std::size_t shard) {
    hosts_.push_back(std::make_unique<WorkerHost>(pk_, c2_->Connect()));
    WorkerHost& host = *hosts_.back();
    auto worker =
        clusters_ != nullptr
            ? ShardWorker::Create(host.pk, db_, *clusters_, shard, &host.c2,
                                  &host.pool)
            : ShardWorker::Create(host.pk, db_, manifest_, shard, &host.c2,
                                  &host.pool);
    SKNN_CHECK(worker.ok()) << worker.status();
    return std::move(worker).value();
  }

  /// \brief One worker per shard, each served on a socketpair, joined by
  /// CreateWithShardWorkers with `options` and probing off.
  Result<std::unique_ptr<SknnEngine>> MakeEngine(SknnEngine::Options options) {
    std::vector<std::unique_ptr<Endpoint>> links;
    for (std::size_t shard = 0; shard < manifest_.num_shards; ++shard) {
      Channel::EndpointPair link = Channel::CreatePair();
      SKNN_CHECK(link.a != nullptr) << "socketpair failed";
      workers_.push_back(MakeWorker(shard));
      ShardWorker* raw = workers_.back().get();
      servers_.push_back(std::make_unique<RpcServer>(
          std::move(link.b),
          [raw](const Message& req) { return raw->Handle(req); },
          /*worker_threads=*/2));
      links.push_back(std::move(link.a));
    }
    options.shard_probe_interval = std::chrono::milliseconds{0};
    return SknnEngine::CreateWithShardWorkers(pk_, std::move(links),
                                              c2_->Connect(), options);
  }

 private:
  PaillierPublicKey pk_;
  EncryptedDatabase db_;
  LoopbackC2* c2_;
  std::shared_ptr<const ClusterManifest> clusters_;
  ShardManifest manifest_;
  // Declared so that the servers stop before their workers go, and the
  // workers before the hosts they run on.
  std::vector<std::unique_ptr<WorkerHost>> hosts_;
  std::vector<std::unique_ptr<ShardWorker>> workers_;
  std::vector<std::unique_ptr<RpcServer>> servers_;
};

/// \brief A sharded table with all it runs on: the C2 its front end and
/// every worker reach, the shard set, and the front-end engine. Members go
/// in reverse order: engine, workers, C2.
struct ShardedTable {
  /// `s` shards of `scheme`.
  ShardedTable(const PaillierPublicKey& pk, PaillierSecretKey sk,
               EncryptedDatabase db, std::size_t s, ShardScheme scheme,
               const SknnEngine::Options& options)
      : c2(std::make_unique<LoopbackC2>(std::move(sk), /*pool_capacity=*/32)),
        shards(std::make_unique<ShardSet>(pk, std::move(db), c2.get(), s,
                                          scheme)) {
    Join(options);
  }

  /// One shard per cluster of `options.clusters`, which must be set.
  ShardedTable(const PaillierPublicKey& pk, PaillierSecretKey sk,
               EncryptedDatabase db, const SknnEngine::Options& options)
      : c2(std::make_unique<LoopbackC2>(std::move(sk), /*pool_capacity=*/32)),
        shards(std::make_unique<ShardSet>(pk, std::move(db), c2.get(),
                                          options.clusters)) {
    Join(options);
  }

  std::unique_ptr<LoopbackC2> c2;
  std::unique_ptr<ShardSet> shards;
  std::unique_ptr<SknnEngine> engine;

 private:
  void Join(const SknnEngine::Options& options) {
    auto joined = shards->MakeEngine(options);
    SKNN_CHECK(joined.ok()) << joined.status();
    engine = std::move(joined).value();
  }
};

}  // namespace sknn

#endif  // SKNN_TESTS_SHARD_TEST_UTIL_H_
