// ResultCache — the per-table response cache of the serving QoS subsystem.
//
// Every kQuery a front end answers is deterministic given (table contents,
// query record, k, protocol, index knobs), so identical requests against an
// unchanged table can be answered from memory instead of re-running seconds
// of homomorphic work. An entry is the plain QueryResponse of the run that
// populated it; a hit sends it again, flagged cache_hit. (The thin-client
// wire carries the plaintext records — docs/DEPLOY.md, "Trust model of the
// thin-client split" — so a hit is as linkable as the miss before it; the
// answer's privacy is ROADMAP item 16's, not the cache's.)
//
// Keys are SHA-256 fingerprints over every request field that influences
// the answer: table name, k, protocol, index_mode, probe_clusters, and the
// query record bytes. The cache is bounded twice over (entry count and
// byte budget) with LRU eviction, and carries a GENERATION counter for hot
// reload: TableRegistry::ReplaceEngine/Detach call Invalidate(), which
// clears every entry and bumps the generation, and a query that pinned
// generation G before resolving its engine may only Insert while the
// generation is still G. That ordering (generation read BEFORE engine
// read, invalidate AFTER engine swap) is what makes a reload racing an
// in-flight query unable to plant a stale entry — the race
// tests/test_hot_reload.cc exercises.
#ifndef SKNN_SERVE_QOS_RESULT_CACHE_H_
#define SKNN_SERVE_QOS_RESULT_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/query_api.h"

namespace sknn {

class ResultCache {
 public:
  /// 32-byte SHA-256 fingerprint of everything that determines a response.
  using Key = std::array<uint8_t, 32>;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;
  };

  /// \brief `max_bytes` 0 (the DEFAULT) disables the cache entirely —
  /// Lookup always misses without counting, Insert drops — so an
  /// unconfigured service behaves exactly like the pre-revision-6 one.
  /// tools/sknn_c1_server enables kDefaultMaxBytes per table unless the
  /// spec says cache=0; docs/DEPLOY.md discusses sizing.
  explicit ResultCache(std::size_t max_bytes = 0,
                       std::size_t max_entries = kDefaultMaxEntries);

  /// An entry is its plaintext records plus the response's fixed fields,
  /// under 1 KiB for k·m = 30, so the entry cap binds long before the byte
  /// budget (docs/DEPLOY.md).
  static constexpr std::size_t kDefaultMaxBytes = 64u << 20;
  static constexpr std::size_t kDefaultMaxEntries = 4096;

  /// \brief Reconfigures the budgets (serving-start configuration only —
  /// existing entries beyond the new budget are evicted on the next
  /// Insert, not eagerly).
  void set_budget(std::size_t max_bytes, std::size_t max_entries);

  std::size_t max_bytes() const;
  bool enabled() const;

  static Key Fingerprint(const std::string& table,
                         const QueryRequest& request);

  /// \brief The generation a query must pin BEFORE resolving its engine.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// \brief Clears every entry and advances the generation — the hot-reload
  /// and detach barrier. Called AFTER the registry swapped the engine, so
  /// any in-flight query still holding the old engine also holds a stale
  /// generation and its Insert is refused.
  void Invalidate();

  /// \brief LRU lookup; counts a hit or a miss. Returns the FULL stored
  /// response of the run that populated the entry (records, shard stats,
  /// phase breakdown), as that run reported it.
  std::optional<QueryResponse> Lookup(const Key& key);

  /// \brief Inserts (or refreshes) an entry, evicting LRU tails past either
  /// budget. Dropped without effect when `generation` no longer matches —
  /// the caller computed its response against an engine that has since been
  /// reloaded away — or when the result alone exceeds the byte budget.
  void Insert(const Key& key, QueryResponse result, uint64_t generation);

  Stats stats() const;

 private:
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      // The fingerprint is already uniform; fold the first 8 bytes.
      std::size_t h = 0;
      for (int i = 0; i < 8; ++i) h = (h << 8) | key[static_cast<size_t>(i)];
      return h;
    }
  };
  struct Node {
    QueryResponse result;
    std::size_t cost = 0;
    std::list<Key>::iterator lru_pos;
  };

  static std::size_t CostOf(const QueryResponse& result);
  void EvictToBudgetLocked() REQUIRES(mutex_);

  std::atomic<uint64_t> generation_{0};
  mutable Mutex mutex_;
  std::size_t max_bytes_ GUARDED_BY(mutex_);
  std::size_t max_entries_ GUARDED_BY(mutex_);
  std::unordered_map<Key, Node, KeyHash> entries_ GUARDED_BY(mutex_);
  /// Most-recent first; evictions pop from the back.
  std::list<Key> lru_ GUARDED_BY(mutex_);
  std::size_t bytes_ GUARDED_BY(mutex_) = 0;
  uint64_t hits_ GUARDED_BY(mutex_) = 0;
  uint64_t misses_ GUARDED_BY(mutex_) = 0;
  uint64_t evictions_ GUARDED_BY(mutex_) = 0;
};

}  // namespace sknn

#endif  // SKNN_SERVE_QOS_RESULT_CACHE_H_
