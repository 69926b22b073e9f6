// log-k-decomp — the paper's contribution (Algorithm 2, all optimisations).
//
// The recursive function Decompose searches for the λ-labels of a
// parent/child node pair (p, c) such that c is a *balanced separator* of the
// current extended subhypergraph H' = ⟨E', Sp⟩: every [λ(c)]-component of H'
// has size ≤ |H'|/2 (Definition 3.9 via Lemma 3.10). Knowing λ(p) pins down
// χ(c) = ⋃λ(c) ∩ V(comp_down) (normal-form condition 3 / Corollary 3.8), so
// the subproblem splits into the [χ(c)]-components below c plus one "up"
// problem carrying χ(c) as a fresh special edge — all of size ≤ ⌈|H'|/2⌉,
// giving the logarithmic recursion depth of Theorem 4.1.
//
// Optimisations from Appendix C, all implemented:
//  * negative base case (no edges left but ≥ 2 special edges),
//  * explicit fragment-root handling (Conn ⊆ ⋃λ(c) → c roots the fragment),
//  * allowed-edge sets A, reduced by comp_down's edges for the up-call,
//  * child-before-parent search order (balancedness is the rare property),
//  * λ(p) restricted to edges intersecting ⋃λ(c) (Theorem C.1),
//  * λ-labels must contain at least one edge of the current component.
//
// Beyond the paper's decision procedure, Decompose *constructs* the
// HD-fragment (Appendix A's soundness construction) and the top-level call
// returns a validated hypertree decomposition. One strengthening makes the
// stitched HD valid unconditionally: the up-call's allowed set additionally
// drops edges that dip into V(comp_down) \ χ(c). Any valid HD's upper labels
// avoid such edges anyway (their dipping vertices would have to lie in χ(c)
// by connectedness), so completeness is unaffected, and with the filter every
// λ-label above c is disjoint from the private vertices below c — exactly
// what the special condition needs at stitch time.
#pragma once

#include <memory>

#include "baselines/det_k_decomp.h"
#include "core/negative_cache.h"
#include "core/parallel_search.h"
#include "core/search_types.h"
#include "core/solver.h"
#include "decomp/components.h"

namespace htd {

/// Recursive engine; one instance per Solve call.
class LogKEngine {
 public:
  /// `fallback` (optional) is the hybrid's det-k engine: subproblems whose
  /// hybrid metric drops below options.hybrid_threshold are forwarded to it.
  /// `cache` (optional) is the negative subproblem cache that
  /// options.enable_cache switches on. A cross-instance subproblem store, if
  /// any, rides in on options.subproblem_store.
  LogKEngine(const Hypergraph& graph, SpecialEdgeRegistry& registry, int k,
             const SolveOptions& options, StatsCounters& stats,
             DetKEngine* fallback, ThreadBudget* budget,
             NegativeCache* cache = nullptr);

  SearchOutcome Decompose(const ExtendedSubhypergraph& comp,
                          const util::DynamicBitset& conn,
                          const util::DynamicBitset& allowed, int depth);

 private:
  SearchOutcome TryChildCandidate(const ExtendedSubhypergraph& comp,
                                  const util::DynamicBitset& conn,
                                  const util::DynamicBitset& allowed,
                                  const util::DynamicBitset& comp_vertices,
                                  const std::vector<int>& lambda_child, int depth);

  double MetricValue(const ExtendedSubhypergraph& comp) const;

  /// Cancelled, or a parallel search level enclosing this call was decided
  /// by another slot (core/parallel_search.h).
  bool ShouldStop() const {
    return (options_.cancel != nullptr && options_.cancel->ShouldStop()) ||
           SearchLevelDecided();
  }

  const Hypergraph& graph_;
  SpecialEdgeRegistry& registry_;
  const int k_;
  const SolveOptions& options_;
  StatsCounters& stats_;
  DetKEngine* fallback_;
  ThreadBudget* budget_;
  NegativeCache* cache_;
};

/// HdSolver façade. With options.hybrid_metric == kNone this is plain
/// log-k-decomp; otherwise it is the paper's hybrid (log-k splits until the
/// metric drops below the threshold, then det-k finishes the subproblem).
class LogKDecomp : public HdSolver {
 public:
  explicit LogKDecomp(SolveOptions options = {}) : options_(std::move(options)) {}

  SolveResult Solve(const Hypergraph& graph, int k) override;
  std::string name() const override;

 private:
  SolveOptions options_;
};

}  // namespace htd
