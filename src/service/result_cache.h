// Sharded, mutex-striped LRU cache for whole-instance solve results.
//
// Keys combine the canonical fingerprint of the instance, the width
// parameter k, and a digest of the answer-affecting solver configuration
// (core/solver_factory.h). Values are full SolveResults, so a hit returns
// the decomposition itself, not just the yes/no answer.
//
// Concurrency: the key space is striped over independent shards, each with
// its own mutex and LRU list, so concurrent lookups of different instances
// never contend. Statistics are lock-free atomics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/solver.h"
#include "service/canonical.h"

namespace htd::service {

struct CacheKey {
  Fingerprint fingerprint;
  int k = 0;
  uint64_t config_digest = 0;

  bool operator==(const CacheKey& other) const {
    return fingerprint == other.fingerprint && k == other.k &&
           config_digest == other.config_digest;
  }
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& key) const {
    uint64_t h = key.fingerprint.hi;
    h ^= key.fingerprint.lo * 0x9e3779b97f4a7c15ULL;
    h ^= (static_cast<uint64_t>(key.k) + 0x517cc1b727220a95ULL) * 0xff51afd7ed558ccdULL;
    h ^= key.config_digest * 0xc4ceb9fe1a85ec53ULL;
    return static_cast<size_t>(h);
  }
};

class ResultCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t capacity = 0;
  };

  /// Roughly `capacity` entries total, striped over `num_shards` shards.
  /// Each shard holds ceil(capacity/num_shards), so the effective total
  /// (GetStats().capacity) can exceed `capacity` by up to num_shards - 1.
  /// capacity >= 1; num_shards is clamped to [1, capacity].
  explicit ResultCache(size_t capacity, int num_shards = 16);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached result (null on a miss) and refreshes its LRU
  /// position. The entry is shared, not copied: a hit costs no HD copy.
  std::shared_ptr<const SolveResult> Lookup(const CacheKey& key);

  /// Inserts (or refreshes) an entry, evicting the shard's least recently
  /// used entry when the shard is full.
  void Insert(const CacheKey& key, SolveResult result);

  /// Drops every entry (stats are kept).
  void Clear();

  /// Visits every resident entry, shard by shard, most- to least-recently
  /// used within a shard. Holds one shard lock at a time; do not call back
  /// into the same cache from `fn`. Used by the snapshot writer
  /// (service/persistence.h). With a non-null `range`, entries whose
  /// fingerprint falls outside it are skipped — a fingerprint-range-sharded
  /// server persists only its slice of the key space (service/shard_map.h).
  void ForEach(const std::function<void(const CacheKey&, const SolveResult&)>& fn,
               const FingerprintRange* range = nullptr);

  Stats GetStats() const;
  size_t num_entries() const;
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Entry {
    CacheKey key;
    std::shared_ptr<const SolveResult> result;
  };
  struct Shard {
    std::mutex mutex;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash> index;
  };

  Shard& ShardFor(const CacheKey& key);

  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<size_t> entries_{0};
};

}  // namespace htd::service
