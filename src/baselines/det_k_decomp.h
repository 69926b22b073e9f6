// det-k-decomp (Gottlob & Samer 2008), re-implemented over extended
// subhypergraphs.
//
// The classic top-down HD algorithm: for the current component, guess a
// λ-label covering the interface Conn, fix the minimal χ = ⋃λ ∩ V(comp),
// recurse into the [χ]-components. Its defining implementation trait — the
// one the paper calls out as the obstacle to parallelisation — is extensive
// caching of failed (component, Conn) subproblems; we reproduce that with a
// negative cache plus hit counters.
//
// Unlike the original, this version handles *extended* subhypergraphs
// (special edges become leaf children once covered), which is exactly the
// extension the paper's hybrid strategy requires (§5.2: "our own
// implementation of det-k-decomp, extended to handle extended subhypergraphs
// correctly").
#pragma once

#include <mutex>
#include <unordered_set>
#include <vector>

#include "core/parallel_search.h"
#include "core/search_types.h"
#include "core/solver.h"
#include "decomp/components.h"
#include "decomp/extended_subhypergraph.h"
#include "decomp/special_edges.h"

namespace htd {

/// Reusable recursive engine. One instance per (graph, k) run; the hybrid
/// embeds one next to the log-k engine and forwards small subproblems.
class DetKEngine {
 public:
  DetKEngine(const Hypergraph& graph, SpecialEdgeRegistry& registry, int k,
             const SolveOptions& options, StatsCounters& stats);

  /// Searches for an HD-fragment of width ≤ k of ⟨comp, conn⟩ using only
  /// λ-edges from `allowed`.
  SearchOutcome Decompose(const ExtendedSubhypergraph& comp,
                          const util::DynamicBitset& conn,
                          const util::DynamicBitset& allowed, int depth);

 private:
  struct CacheKey {
    util::DynamicBitset edges;
    std::vector<int> specials;
    util::DynamicBitset conn;
    util::DynamicBitset allowed;

    bool operator==(const CacheKey& other) const {
      return edges == other.edges && specials == other.specials &&
             conn == other.conn && allowed == other.allowed;
    }
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& key) const {
      size_t h = key.edges.Hash() * 31 + key.conn.Hash();
      for (int s : key.specials) h = h * 1099511628211ull + s;
      return h * 31 + key.allowed.Hash();
    }
  };

  /// Cancelled, or a parallel search level enclosing this call was decided
  /// by another slot (core/parallel_search.h).
  bool ShouldStop() const {
    return (options_.cancel != nullptr && options_.cancel->ShouldStop()) ||
           SearchLevelDecided();
  }

  bool CacheLookup(const CacheKey& key) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    return negative_cache_.count(key) > 0;
  }
  void CacheInsert(CacheKey key) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    negative_cache_.insert(std::move(key));
  }

  const Hypergraph& graph_;
  SpecialEdgeRegistry& registry_;
  const int k_;
  const SolveOptions& options_;
  StatsCounters& stats_;
  // The hybrid invokes this engine from parallel log-k workers; the cache is
  // the only shared mutable state, guarded by cache_mutex_.
  std::mutex cache_mutex_;
  std::unordered_set<CacheKey, CacheKeyHash> negative_cache_;
};

/// HdSolver façade over DetKEngine, solving whole hypergraphs.
class DetKDecomp : public HdSolver {
 public:
  explicit DetKDecomp(SolveOptions options = {}) : options_(std::move(options)) {}

  SolveResult Solve(const Hypergraph& graph, int k) override;
  std::string name() const override { return "det-k-decomp"; }

 private:
  SolveOptions options_;
};

}  // namespace htd
