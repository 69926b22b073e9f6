// Bench: live warm-state migration (PR 5) vs PR 4's drop-and-resolve
// resharding, on a 2 -> 4 shard transition.
//
// PR 4's supported reshard was: snapshot every shard, restart the fleet
// under the new map, and let the range-filtered restore DROP every entry
// outside each shard's new slice — the dropped slice is re-solved cold,
// which throws away exactly the "extensive caching" the paper credits for
// det-k-decomp's sequential strength (PODS 2022 §1). The migration path
// (net/decomposition_server.h /v1/admin/migrate) instead cuts each donor's
// snapshot to the intersection with every new range and streams it to the
// new owner, so retention is total.
//
// This bench isolates the data-plane cost — the persistence codec plus the
// dominance-checked insert paths, which is the wire format minus TCP — and
// reports:
//
//   * entries/sec migrated for the full 2 -> 4 transition, and
//   * warm-hit-rate retained (sampled lookups against the new owners)
//     for migration vs the drop-and-resolve baseline.
//
// The baseline models the PR 4 operator playbook for 2 -> 4: old shard 0
// restarts as new shard 0, old shard 1 as new shard 2 (each keeping the
// half of its entries that its shrunken range still covers), and new
// shards 1/3 start cold.
//
// Env knobs: HTD_BENCH_SCALE multiplies the synthetic entry volume.
// Exits non-zero if migration retains less than 100% of the warm state or
// fails to beat the baseline.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "service/persistence.h"
#include "service/result_cache.h"
#include "service/shard_map.h"
#include "service/subproblem_store.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace htd::bench {
namespace {

int ScaleFromEnv() {
  const char* text = std::getenv("HTD_BENCH_SCALE");
  int scale = text != nullptr ? std::atoi(text) : 1;
  return scale >= 1 ? scale : 1;
}

service::ShardMap MapOf(int n) {
  std::string spec;
  for (int i = 0; i < n; ++i) {
    spec += (i ? "," : "") + std::string("shard") + std::to_string(i) + ":80";
  }
  return service::ShardMap::Parse(spec).value();
}

/// A small but realistic cache value: a two-node decomposition, the shape
/// an easy instance's SolveResult carries. The codec cost scales with this
/// payload, so every synthetic entry shares it.
SolveResult MakeResult() {
  SolveResult result;
  result.outcome = Outcome::kYes;
  Decomposition decomp;
  util::DynamicBitset chi_root(6), chi_leaf(6);
  chi_root.Set(0);
  chi_root.Set(1);
  chi_leaf.Set(1);
  chi_leaf.Set(2);
  decomp.AddNode({0, 1}, std::move(chi_root), -1);
  decomp.AddNode({1, 2}, std::move(chi_leaf), 0);
  result.decomposition = std::move(decomp);
  return result;
}

service::CacheKey KeyOf(const service::Fingerprint& fp) {
  service::CacheKey key;
  key.fingerprint = fp;
  key.k = 3;
  key.config_digest = 7;
  return key;
}

service::SubproblemStore::ExportedEntry StoreEntryOf(
    const service::Fingerprint& fp) {
  service::SubproblemStore::ExportedEntry entry;
  entry.fingerprint = fp;
  entry.k = 3;
  entry.negatives.push_back({{0, 1, 2}, {1, 2, 3}, {2, 3, 4}});
  return entry;
}

struct Shard {
  std::unique_ptr<service::ResultCache> cache;
  std::unique_ptr<service::SubproblemStore> store;

  Shard() {
    cache = std::make_unique<service::ResultCache>(1 << 20);
    store = std::make_unique<service::SubproblemStore>();
  }
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace
}  // namespace htd::bench

int main() {
  using namespace htd;
  using namespace htd::bench;

  const int scale = ScaleFromEnv();
  const size_t kCacheEntries = 20'000 * static_cast<size_t>(scale);
  const size_t kStoreEntries = 5'000 * static_cast<size_t>(scale);

  const service::ShardMap old_map = MapOf(2);
  const service::ShardMap new_map = MapOf(4);

  // Warm the OLD fleet with uniformly distributed fingerprints (the
  // canonical fingerprint is a hash — see bench/shard_balance.cc — so
  // synthetic uniform keys model the real key population).
  util::Rng rng(0x5eed);
  std::vector<Shard> old_fleet(2);
  std::vector<service::Fingerprint> cache_keys, store_keys;
  const SolveResult payload = MakeResult();
  for (size_t i = 0; i < kCacheEntries; ++i) {
    service::Fingerprint fp{rng.Next64(), rng.Next64()};
    cache_keys.push_back(fp);
    old_fleet[static_cast<size_t>(old_map.IndexFor(fp))].cache->Insert(
        KeyOf(fp), payload);
  }
  for (size_t i = 0; i < kStoreEntries; ++i) {
    service::Fingerprint fp{rng.Next64(), rng.Next64()};
    store_keys.push_back(fp);
    old_fleet[static_cast<size_t>(old_map.IndexFor(fp))].store->Import(
        StoreEntryOf(fp));
  }
  std::printf("reshard_migration: %zu cache entries + %zu store keys over 2 "
              "shards, resharding to 4\n",
              kCacheEntries, kStoreEntries);

  const auto retained = [&](std::vector<Shard>& fleet,
                            const service::ShardMap& map) {
    size_t cache_hits = 0, store_present = 0;
    for (const service::Fingerprint& fp : cache_keys) {
      Shard& owner = fleet[static_cast<size_t>(map.IndexFor(fp))];
      if (owner.cache->Lookup(KeyOf(fp)) != nullptr) ++cache_hits;
    }
    for (const service::Fingerprint& fp : store_keys) {
      // Presence probe via a range export of exactly this key's hi slot.
      service::FingerprintRange point{fp.hi, fp.hi};
      Shard& owner = fleet[static_cast<size_t>(map.IndexFor(fp))];
      if (!owner.store->Export(&point).empty()) ++store_present;
    }
    return std::pair<size_t, size_t>(cache_hits, store_present);
  };

  // --- Baseline: PR 4 drop-and-resolve. ------------------------------------
  // Old shard i snapshots its full range; new shard 2i restores it filtered
  // to its (quartered) new range; new shards 1 and 3 start cold.
  std::vector<Shard> baseline_fleet(4);
  auto baseline_start = std::chrono::steady_clock::now();
  for (int i = 0; i < 2; ++i) {
    const std::string snapshot = service::EncodeSnapshot(
        old_fleet[static_cast<size_t>(i)].cache.get(),
        old_fleet[static_cast<size_t>(i)].store.get(), /*config_digest=*/7);
    const int new_index = 2 * i;
    service::FingerprintRange range = new_map.RangeFor(new_index);
    auto restored = service::DecodeSnapshot(
        snapshot, baseline_fleet[static_cast<size_t>(new_index)].cache.get(),
        baseline_fleet[static_cast<size_t>(new_index)].store.get(), &range);
    if (!restored.ok()) {
      std::printf("FAIL: baseline restore: %s\n",
                  restored.status().message().c_str());
      return 1;
    }
  }
  const double baseline_seconds = SecondsSince(baseline_start);
  const auto [baseline_cache, baseline_store] =
      retained(baseline_fleet, new_map);

  // --- Migration: stream every leaving slice to its new owner. -------------
  std::vector<Shard> migrated_fleet(4);
  size_t moved = 0;
  auto migrate_start = std::chrono::steady_clock::now();
  for (int i = 0; i < 2; ++i) {
    Shard& donor = old_fleet[static_cast<size_t>(i)];
    const service::FingerprintRange old_range = old_map.RangeFor(i);
    for (int j = 0; j < 4; ++j) {
      service::FingerprintRange slice = new_map.RangeFor(j);
      slice.first_hi = std::max(slice.first_hi, old_range.first_hi);
      slice.last_hi = std::min(slice.last_hi, old_range.last_hi);
      if (slice.first_hi > slice.last_hi) continue;
      service::SnapshotStats written;
      const std::string blob =
          service::EncodeSnapshot(donor.cache.get(), donor.store.get(),
                                  /*config_digest=*/7, &slice, &written);
      auto imported = service::DecodeSnapshot(
          blob, migrated_fleet[static_cast<size_t>(j)].cache.get(),
          migrated_fleet[static_cast<size_t>(j)].store.get(), &slice);
      if (!imported.ok()) {
        std::printf("FAIL: migration import: %s\n",
                    imported.status().message().c_str());
        return 1;
      }
      moved += written.cache_entries + written.store_entries;
    }
  }
  const double migrate_seconds = SecondsSince(migrate_start);
  const auto [migrated_cache, migrated_store] =
      retained(migrated_fleet, new_map);

  const size_t total = kCacheEntries + kStoreEntries;
  const double baseline_rate =
      100.0 * static_cast<double>(baseline_cache + baseline_store) /
      static_cast<double>(total);
  const double migrated_rate =
      100.0 * static_cast<double>(migrated_cache + migrated_store) /
      static_cast<double>(total);
  std::printf("%18s %10s %10s %12s %10s %14s\n", "mode", "cache", "store",
              "retained%", "seconds", "entries/sec");
  std::printf("%18s %10zu %10zu %11.1f%% %10.3f %14s\n", "drop-and-resolve",
              baseline_cache, baseline_store, baseline_rate, baseline_seconds,
              "-");
  std::printf("%18s %10zu %10zu %11.1f%% %10.3f %14.0f\n", "migration",
              migrated_cache, migrated_store, migrated_rate, migrate_seconds,
              static_cast<double>(moved) / migrate_seconds);

  if (migrated_cache + migrated_store != total) {
    std::printf("reshard_migration: FAIL — migration lost %zu entries\n",
                total - migrated_cache - migrated_store);
    return 1;
  }
  if (baseline_cache + baseline_store >= migrated_cache + migrated_store) {
    std::printf("reshard_migration: FAIL — baseline retained as much as "
                "migration?\n");
    return 1;
  }
  std::printf("reshard_migration: OK — migration retained 100%% "
              "(baseline %.1f%%), %.0f entries/sec\n",
              baseline_rate, static_cast<double>(moved) / migrate_seconds);
  return 0;
}
