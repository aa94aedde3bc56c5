#include "serve/qos/result_cache.h"

#include <utility>

#include "common/sha256.h"

namespace sknn {

ResultCache::ResultCache(std::size_t max_bytes, std::size_t max_entries)
    : max_bytes_(max_bytes), max_entries_(max_entries == 0 ? 1 : max_entries) {}

void ResultCache::set_budget(std::size_t max_bytes, std::size_t max_entries) {
  MutexLock lock(&mutex_);
  max_bytes_ = max_bytes;
  max_entries_ = max_entries == 0 ? 1 : max_entries;
}

std::size_t ResultCache::max_bytes() const {
  MutexLock lock(&mutex_);
  return max_bytes_;
}

bool ResultCache::enabled() const { return max_bytes() > 0; }

ResultCache::Key ResultCache::Fingerprint(const std::string& table,
                                          const QueryRequest& request) {
  Sha256 hasher;
  hasher.Update(table);
  // Every fixed-width knob as little-endian bytes, length-prefixed strings —
  // an injective encoding, so distinct requests cannot collide structurally.
  const uint32_t knobs[5] = {request.k,
                             static_cast<uint32_t>(request.protocol),
                             static_cast<uint32_t>(request.index_mode),
                             request.probe_clusters,
                             static_cast<uint32_t>(request.record.size())};
  hasher.Update(knobs, sizeof(knobs));
  if (!request.record.empty()) {
    hasher.Update(request.record.data(),
                  request.record.size() * sizeof(int64_t));
  }
  return hasher.Finish();
}

void ResultCache::Invalidate() {
  MutexLock lock(&mutex_);
  // Bump FIRST: an in-flight query that pinned the old generation must see
  // its Insert refused even if it races the clear below.
  generation_.fetch_add(1, std::memory_order_acq_rel);
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
}

std::size_t ResultCache::CostOf(const QueryResponse& result) {
  std::size_t cost = sizeof(Node) + sizeof(Key);
  for (const PlainRecord& record : result.records) {
    cost += record.size() * sizeof(int64_t);
  }
  return cost + result.shards.size() * sizeof(ShardQueryStats);
}

std::optional<QueryResponse> ResultCache::Lookup(const Key& key) {
  MutexLock lock(&mutex_);
  if (max_bytes_ == 0) return std::nullopt;
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.result;
}

void ResultCache::Insert(const Key& key, QueryResponse result,
                         uint64_t generation) {
  const std::size_t cost = CostOf(result);
  MutexLock lock(&mutex_);
  if (max_bytes_ == 0 || cost > max_bytes_) return;
  if (generation_.load(std::memory_order_acquire) != generation) {
    // The engine this result came from was hot-reloaded away between the
    // caller pinning the generation and finishing its protocol run; caching
    // it would serve the OLD table's answer against the NEW table.
    return;
  }
  if (auto it = entries_.find(key); it != entries_.end()) {
    bytes_ -= it->second.cost;
    lru_.erase(it->second.lru_pos);
    entries_.erase(it);
  }
  lru_.push_front(key);
  Node node;
  node.result = std::move(result);
  node.cost = cost;
  node.lru_pos = lru_.begin();
  bytes_ += cost;
  entries_.emplace(key, std::move(node));
  EvictToBudgetLocked();
}

void ResultCache::EvictToBudgetLocked() {
  while (!lru_.empty() &&
         (bytes_ > max_bytes_ || entries_.size() > max_entries_)) {
    auto it = entries_.find(lru_.back());
    bytes_ -= it->second.cost;
    entries_.erase(it);
    lru_.pop_back();
    ++evictions_;
  }
}

ResultCache::Stats ResultCache::stats() const {
  MutexLock lock(&mutex_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.entries = entries_.size();
  stats.bytes = bytes_;
  return stats;
}

}  // namespace sknn
