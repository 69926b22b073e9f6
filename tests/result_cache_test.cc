// ResultCache: LRU/eviction behaviour, stats accounting, and thread safety
// of the sharded stripes under concurrent mixed traffic.
#include "service/result_cache.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace htd::service {
namespace {

CacheKey KeyOf(uint64_t id, int k = 2) {
  CacheKey key;
  key.fingerprint = Fingerprint{id, ~id};
  key.k = k;
  key.config_digest = 7;
  return key;
}

SolveResult YesResult(long marker) {
  SolveResult result;
  result.outcome = Outcome::kYes;
  result.stats.separators_tried = marker;  // lets tests identify the entry
  return result;
}

TEST(ResultCacheTest, InsertThenLookup) {
  ResultCache cache(/*capacity=*/8, /*num_shards=*/2);
  EXPECT_EQ(cache.Lookup(KeyOf(1)), nullptr);
  cache.Insert(KeyOf(1), YesResult(42));
  auto hit = cache.Lookup(KeyOf(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->outcome, Outcome::kYes);
  EXPECT_EQ(hit->stats.separators_tried, 42);

  ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCacheTest, DistinguishesKAndConfig) {
  ResultCache cache(8, 1);
  cache.Insert(KeyOf(1, 2), YesResult(2));
  EXPECT_EQ(cache.Lookup(KeyOf(1, 3)), nullptr);
  CacheKey other_config = KeyOf(1, 2);
  other_config.config_digest = 8;
  EXPECT_EQ(cache.Lookup(other_config), nullptr);
  EXPECT_NE(cache.Lookup(KeyOf(1, 2)), nullptr);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Insert(KeyOf(1), YesResult(1));
  cache.Insert(KeyOf(2), YesResult(2));
  // Touch key 1 so key 2 is the LRU victim.
  EXPECT_NE(cache.Lookup(KeyOf(1)), nullptr);
  cache.Insert(KeyOf(3), YesResult(3));

  EXPECT_NE(cache.Lookup(KeyOf(1)), nullptr);
  EXPECT_EQ(cache.Lookup(KeyOf(2)), nullptr);
  EXPECT_NE(cache.Lookup(KeyOf(3)), nullptr);
  ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ResultCacheTest, ReinsertRefreshesInsteadOfDuplicating) {
  ResultCache cache(2, 1);
  cache.Insert(KeyOf(1), YesResult(1));
  cache.Insert(KeyOf(1), YesResult(99));
  EXPECT_EQ(cache.num_entries(), 1u);
  auto hit = cache.Lookup(KeyOf(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->stats.separators_tried, 99);
}

TEST(ResultCacheTest, ClearDropsEntriesKeepsStats) {
  // Per-shard capacity 10: five entries can never evict however they stripe.
  ResultCache cache(40, 4);
  for (uint64_t i = 0; i < 5; ++i) cache.Insert(KeyOf(i), YesResult(1));
  EXPECT_EQ(cache.num_entries(), 5u);
  cache.Clear();
  EXPECT_EQ(cache.num_entries(), 0u);
  EXPECT_EQ(cache.Lookup(KeyOf(0)), nullptr);
  EXPECT_EQ(cache.GetStats().insertions, 5u);
}

TEST(ResultCacheTest, CapacitySmallerThanShards) {
  ResultCache cache(/*capacity=*/2, /*num_shards=*/16);
  cache.Insert(KeyOf(1), YesResult(1));
  EXPECT_NE(cache.Lookup(KeyOf(1)), nullptr);
}

TEST(ResultCacheTest, ConcurrentMixedTraffic) {
  ResultCache cache(/*capacity=*/64, /*num_shards=*/8);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        uint64_t id = static_cast<uint64_t>((t * 31 + i) % 100);
        if (i % 3 == 0) {
          cache.Insert(KeyOf(id), YesResult(static_cast<long>(id)));
        } else {
          auto hit = cache.Lookup(KeyOf(id));
          if (hit != nullptr) {
            EXPECT_EQ(hit->stats.separators_tried, static_cast<long>(id));
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  ResultCache::Stats stats = cache.GetStats();
  const int lookups_per_thread = kOpsPerThread - (kOpsPerThread + 2) / 3;
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * lookups_per_thread);
  EXPECT_LE(stats.entries, stats.capacity);
}

}  // namespace
}  // namespace htd::service
