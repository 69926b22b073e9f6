#include "service/result_cache.h"

#include <algorithm>
#include <memory>

#include "util/logging.h"

namespace htd::service {

ResultCache::ResultCache(size_t capacity, int num_shards) {
  HTD_CHECK_GE(capacity, 1u);
  num_shards = std::clamp<int>(num_shards, 1, static_cast<int>(capacity));
  per_shard_capacity_ = (capacity + num_shards - 1) / num_shards;
  shards_.reserve(num_shards);
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::ShardFor(const CacheKey& key) {
  return *shards_[CacheKeyHash{}(key) % shards_.size()];
}

std::shared_ptr<const SolveResult> ResultCache::Lookup(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->result;
}

void ResultCache::Insert(const CacheKey& key, SolveResult result) {
  auto shared = std::make_shared<const SolveResult>(std::move(result));
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->result = std::move(shared);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= per_shard_capacity_) {
    const Entry& victim = shard.lru.back();
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
  }
  shard.lru.push_front(Entry{key, std::move(shared)});
  shard.index.emplace(key, shard.lru.begin());
  insertions_.fetch_add(1, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
}

void ResultCache::ForEach(
    const std::function<void(const CacheKey&, const SolveResult&)>& fn,
    const FingerprintRange* range) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const Entry& entry : shard->lru) {
      if (range != nullptr && !range->Contains(entry.key.fingerprint)) continue;
      fn(entry.key, *entry.result);
    }
  }
}

void ResultCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    entries_.fetch_sub(shard->lru.size(), std::memory_order_relaxed);
    shard->lru.clear();
    shard->index.clear();
  }
}

ResultCache::Stats ResultCache::GetStats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.entries = entries_.load(std::memory_order_relaxed);
  stats.capacity = per_shard_capacity_ * shards_.size();
  return stats;
}

size_t ResultCache::num_entries() const {
  return entries_.load(std::memory_order_relaxed);
}

}  // namespace htd::service
