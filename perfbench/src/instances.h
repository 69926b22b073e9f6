// Inputs of the workloads, all derived from the run's --seed.
//
// The program under test only ever sees these generated inputs: corpus
// graphs for solve-corpus, HyperBench-format request bodies for the serve
// workloads. Isomorphic copies rename every vertex and edge and shuffle the
// edge order and each edge's vertex order, so a cache hit has to go through
// canonical fingerprinting, not a byte match.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "util/rng.h"

namespace perfbench {

/// A renamed, edge-shuffled isomorphic copy of `graph` as HyperBench text.
/// `tag` makes the names of different copies disjoint.
std::string IsomorphicCopy(const htd::Hypergraph& graph, htd::util::Rng& rng,
                           const std::string& tag);

/// One isomorphism class of the serve workloads: a graph, the k it is
/// always requested at, and pre-rendered isomorphic request bodies.
struct RequestClass {
  std::string family;
  htd::Hypergraph graph;
  int k = 2;
  std::vector<std::string> bodies;  ///< isomorphic copies, used round-robin
};

/// Small CQ-shaped queries of the corpus's application bins (|E| <= 10):
/// paths, cycles, stars, random acyclic and random cyclic CQs. `count`
/// classes, each requested at k = 2 (hw <= 2 for every family drawn here
/// except rare random CQs, whose first answer then fixes the expectation).
std::vector<RequestClass> SmallCqClasses(htd::util::Rng& rng, int count);

/// Warm set of serve-mixed: `small` classes of |E| <= 50 (half
/// SmallCqClasses, half acyclic queries and hypercycles) and `large` classes
/// with |E| evenly spaced over [50, 200] (acyclic queries and cycle bundles
/// at k = 2, hypercycles at k = 3).
/// These get a definite answer within a few hundred milliseconds, so set-up
/// time stays steady; the stall-prone families are exercised by
/// FreshClasses and solve-corpus.
std::vector<RequestClass> MixedWarmClasses(htd::util::Rng& rng, int small,
                                           int large);

/// `count` fresh single-use instances of every family (acyclic and cyclic
/// CQs, chorded cycles, hypercycles, CSPs, grids, cycle bundles, chorded
/// acyclic queries) with |E| log-uniform from 4 to about 200, stratified
/// and in ascending size, each requested once at k = 2 or 3.
std::vector<RequestClass> FreshClasses(htd::util::Rng& rng, int count,
                                       const std::string& tag);

}  // namespace perfbench
