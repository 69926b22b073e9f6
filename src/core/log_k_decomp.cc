#include "core/log_k_decomp.h"

#include <algorithm>
#include <optional>

#include "core/search_steps.h"
#include "decomp/validation.h"
#include "service/subproblem_store.h"
#include "util/combinations.h"
#include "util/timer.h"
#include "util/trace.h"

namespace htd {
namespace {

// Per-recursion-level separator-search spans are recorded down to this
// depth. The paper's bound makes depth logarithmic, so a handful of levels
// shows the whole shape; deeper calls are legion and would only churn the
// ring buffers.
constexpr int kMaxTracedDepth = 6;

}  // namespace

LogKEngine::LogKEngine(const Hypergraph& graph, SpecialEdgeRegistry& registry, int k,
                       const SolveOptions& options, StatsCounters& stats,
                       DetKEngine* fallback, ThreadBudget* budget,
                       NegativeCache* cache)
    : graph_(graph),
      registry_(registry),
      k_(k),
      options_(options),
      stats_(stats),
      fallback_(fallback),
      budget_(budget),
      cache_(cache) {
  HTD_CHECK_GE(k, 1);
}

double LogKEngine::MetricValue(const ExtendedSubhypergraph& comp) const {
  switch (options_.hybrid_metric) {
    case HybridMetric::kNone:
      return 0.0;
    case HybridMetric::kEdgeCount:
      return static_cast<double>(comp.size());
    case HybridMetric::kWeightedCount: {
      // |E(H')| * k / avg-arity (§D.2). Arity is averaged over the normal
      // edges; a subproblem of special edges only is trivially "simple".
      long arity_sum = 0;
      comp.edges.ForEach(
          [&](int e) { arity_sum += graph_.edge_vertex_list(e).size(); });
      double avg_arity = comp.edge_count > 0
                             ? static_cast<double>(arity_sum) / comp.edge_count
                             : 1.0;
      return static_cast<double>(comp.size()) * k_ / avg_arity;
    }
  }
  return 0.0;
}

SearchOutcome LogKEngine::Decompose(const ExtendedSubhypergraph& comp,
                                    const util::DynamicBitset& conn,
                                    const util::DynamicBitset& allowed, int depth) {
  stats_.recursive_calls.fetch_add(1, std::memory_order_relaxed);
  stats_.UpdateMaxDepth(depth);
  if (ShouldStop()) return SearchOutcome::Stopped();

  // Hybrid switch (§D.2): hand simple subproblems to det-k-decomp.
  if (fallback_ != nullptr && options_.hybrid_metric != HybridMetric::kNone &&
      MetricValue(comp) < options_.hybrid_threshold) {
    stats_.detk_subproblems.fetch_add(1, std::memory_order_relaxed);
    return fallback_->Decompose(comp, conn, allowed, depth);
  }

  const util::DynamicBitset comp_vertices = VerticesOf(graph_, registry_, comp);

  // Base cases (Algorithm 2, lines 5-10).
  if (comp.edge_count <= k_ && comp.specials.empty()) {
    Fragment fragment;
    std::vector<int> lambda = comp.edges.ToVector();
    if (lambda.empty()) return SearchOutcome::Found(Fragment());
    int root = fragment.AddNode(std::move(lambda), comp_vertices);
    fragment.SetRoot(root);
    return SearchOutcome::Found(std::move(fragment));
  }
  if (comp.edge_count == 0 && comp.specials.size() == 1) {
    Fragment fragment;
    int special = comp.specials[0];
    int root = fragment.AddSpecialLeaf(special, registry_.vertices(special));
    fragment.SetRoot(root);
    return SearchOutcome::Found(std::move(fragment));
  }
  if (comp.edge_count == 0) return SearchOutcome::NotFound();  // ≥ 2 specials

  // Negative cache: a recorded failure with an allowed-set ⊇ ours dominates
  // this search (soundness argument in core/negative_cache.h).
  if (cache_ != nullptr && cache_->ContainsDominating(comp, conn, allowed)) {
    stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    return SearchOutcome::NotFound();
  }

  // Cross-instance subproblem store: canonical dominance lookup, and the key
  // is kept for the post-search insert (service/subproblem_store.h).
  service::SubproblemStore* store = options_.subproblem_store;
  std::optional<service::SubproblemStore::Key> store_key;
  if (store != nullptr && store->ShouldProbe(comp)) {
    store_key = service::SubproblemStore::MakeKey(graph_, registry_, comp, conn,
                                                  allowed, k_);
    Fragment reusable;
    switch (store->Lookup(*store_key, graph_, &reusable)) {
      case service::SubproblemStore::Hit::kNegative:
        stats_.store_negative_hits.fetch_add(1, std::memory_order_relaxed);
        // Mirror into the per-run cache: revisits of this subproblem then
        // answer from a local hash probe instead of re-canonicalising.
        if (cache_ != nullptr) cache_->Insert(comp, conn, allowed);
        return SearchOutcome::NotFound();
      case service::SubproblemStore::Hit::kPositive:
        stats_.store_positive_hits.fetch_add(1, std::memory_order_relaxed);
        return SearchOutcome::Found(std::move(reusable));
      case service::SubproblemStore::Hit::kMiss:
        break;
    }
  }

  // Candidate λ(c) edges: allowed edges touching the component, with the
  // component's own edges first so that the first-element bound enforces
  // λ(c) ∩ H'.E ≠ ∅ (Algorithm 2, line 11).
  std::vector<int> candidates;
  allowed.ForEach([&](int e) {
    if (comp.edges.Test(e)) candidates.push_back(e);
  });
  const int num_new = static_cast<int>(candidates.size());
  allowed.ForEach([&](int e) {
    if (!comp.edges.Test(e) && graph_.edge_vertices(e).Intersects(comp_vertices)) {
      candidates.push_back(e);
    }
  });
  const int n = static_cast<int>(candidates.size());

  // ChildLoop, possibly parallel over (size, first-element) chunks. Real
  // parallelism needs a task group to spawn into (Solve opens one when the
  // scheduler didn't lend a flight group); the budget bounds how many slot
  // tasks this solve offers across all its concurrent search levels.
  int extra = 0;
  if (options_.num_threads > 1 && comp.size() >= options_.parallel_min_size &&
      budget_ != nullptr && options_.task_group != nullptr) {
    extra = budget_->Claim(options_.num_threads - 1);
  }
  // The per-recursion-level span: one "sep_search" per Decompose call near
  // the top of the tree, tagged with its depth — /v1/trace shows the
  // paper's log-depth recursion directly.
  util::TraceScope sep_span(
      "sep_search",
      depth <= kMaxTracedDepth
          ? util::TraceParent{options_.trace_parent, options_.trace_root}
          : util::TraceParent{},
      static_cast<uint64_t>(depth));
  SearchOutcome outcome = DriveCandidates(
      n, k_, num_new, extra, options_.task_group, stats_,
      [&](const std::vector<int>& subset) {
        std::vector<int> lambda_child;
        lambda_child.reserve(subset.size());
        for (int idx : subset) lambda_child.push_back(candidates[idx]);
        return TryChildCandidate(comp, conn, allowed, comp_vertices, lambda_child,
                                 depth);
      },
      util::TraceParent{sep_span.id(), sep_span.root()});
  if (budget_ != nullptr) budget_->Release(extra);
  if (cache_ != nullptr && outcome.status == SearchStatus::kNotFound) {
    cache_->Insert(comp, conn, allowed);
  }
  // Definitive outcomes feed the shared store; kStopped says nothing.
  if (store_key.has_value()) {
    if (outcome.status == SearchStatus::kNotFound) {
      store->InsertNegative(*store_key);
    } else if (outcome.status == SearchStatus::kFound) {
      store->InsertPositive(*store_key, graph_, outcome.fragment);
    }
  }
  return outcome;
}

SearchOutcome LogKEngine::TryChildCandidate(const ExtendedSubhypergraph& comp,
                                            const util::DynamicBitset& conn,
                                            const util::DynamicBitset& allowed,
                                            const util::DynamicBitset& comp_vertices,
                                            const std::vector<int>& lambda_child,
                                            int depth) {
  if (ShouldStop()) return SearchOutcome::Stopped();
  stats_.separators_tried.fetch_add(1, std::memory_order_relaxed);
  AddSearchStep();
  const int total = comp.size();

  const util::DynamicBitset child_union = graph_.UnionOfEdges(lambda_child);
  // Balancedness of c (Algorithm 2, lines 12-14): every [λ(c)]-component of
  // H' must have size ≤ |H'|/2 — the over-approximation of χ(c) by ⋃λ(c)
  // discussed in App. C ("searching for child nodes first").
  ComponentSplit child_split =
      SplitComponents(graph_, registry_, comp, child_union);
  if (child_split.MaxComponentSize() * 2 > total) return SearchOutcome::NotFound();

  // Root case (lines 15-21): if ⋃λ(c) covers the interface, c can root this
  // fragment; χ(c) = ⋃λ(c) ∩ V(H').
  if (conn.IsSubsetOf(child_union)) {
    util::DynamicBitset chi_child = child_union & comp_vertices;
    Fragment fragment;
    int root = fragment.AddNode(lambda_child, chi_child);
    fragment.SetRoot(root);
    bool failed = false;
    for (size_t i = 0; i < child_split.components.size() && !failed; ++i) {
      util::DynamicBitset child_conn =
          child_split.component_vertices[i] & chi_child;
      SearchOutcome sub = Decompose(child_split.components[i], child_conn, allowed,
                                    depth + 1);
      if (sub.status == SearchStatus::kStopped) return sub;
      if (sub.status == SearchStatus::kNotFound) {
        failed = true;
        break;
      }
      fragment.Graft(sub.fragment, root);
    }
    if (!failed) {
      // Special edges fully covered by χ(c) become leaf children of c
      // (Definition 3.3, conditions 2b/5).
      for (int s : child_split.covered.specials) {
        int leaf = fragment.AddSpecialLeaf(s, registry_.vertices(s));
        fragment.AddChild(root, leaf);
      }
      return SearchOutcome::Found(std::move(fragment));
    }
    // Fall through to the parent search: the algorithm as printed skips it
    // when Conn ⊆ ⋃λ(c), but trying (p, c) pairs as well only enlarges the
    // searched space, so completeness is certainly preserved.
  }

  // ParentLoop (lines 22-43). λ(p) candidates: allowed edges that intersect
  // ⋃λ(c) (Theorem C.1), component edges first (λ(p) ∩ H'.E ≠ ∅).
  std::vector<int> parent_candidates;
  allowed.ForEach([&](int e) {
    if (comp.edges.Test(e) && graph_.edge_vertices(e).Intersects(child_union)) {
      parent_candidates.push_back(e);
    }
  });
  const int parent_new = static_cast<int>(parent_candidates.size());
  allowed.ForEach([&](int e) {
    if (!comp.edges.Test(e) && graph_.edge_vertices(e).Intersects(child_union) &&
        graph_.edge_vertices(e).Intersects(comp_vertices)) {
      parent_candidates.push_back(e);
    }
  });
  const int parent_n = static_cast<int>(parent_candidates.size());

  // The ParentLoop body for one λ(p) candidate (lines 23-43).
  auto try_parent = [&](const std::vector<int>& subset) -> SearchOutcome {
    if (ShouldStop()) return SearchOutcome::Stopped();
    stats_.separators_tried.fetch_add(1, std::memory_order_relaxed);
    AddSearchStep();
    std::vector<int> lambda_parent;
    lambda_parent.reserve(subset.size());
    for (int idx : subset) lambda_parent.push_back(parent_candidates[idx]);
    const util::DynamicBitset parent_union = graph_.UnionOfEdges(lambda_parent);

    // Lines 23-27: the unique oversized [λ(p)]-component becomes comp_down
    // (the component the subtree T_c must cover).
    ComponentSplit parent_split =
        SplitComponents(graph_, registry_, comp, parent_union);
    int down_index = parent_split.FindOversized(total);
    if (down_index < 0) return SearchOutcome::NotFound();
    const ExtendedSubhypergraph& comp_down = parent_split.components[down_index];
    const util::DynamicBitset& down_vertices =
        parent_split.component_vertices[down_index];

    // Line 29: interface vertices inside comp_down must be covered by λ(p).
    if (!(down_vertices & conn).IsSubsetOf(parent_union)) {
      return SearchOutcome::NotFound();
    }
    // Line 28: χ(c) = ⋃λ(c) ∩ V(comp_down) (normal-form condition 3).
    util::DynamicBitset chi_child = child_union & down_vertices;
    if (chi_child.None()) return SearchOutcome::NotFound();
    // Line 31: connectedness between p and c.
    if (!(down_vertices & parent_union).IsSubsetOf(chi_child)) {
      return SearchOutcome::NotFound();
    }

    // [χ(c)]-components of comp_down (== its [λ(c)]-components, Cor. 3.8).
    ComponentSplit down_split =
        SplitComponents(graph_, registry_, comp_down, chi_child);
    // Balancedness re-check (Algorithm 1, line 29): guarantees the halving
    // invariant unconditionally; the normal-form witness always passes.
    if (down_split.MaxComponentSize() * 2 > total) return SearchOutcome::NotFound();

    // Recursive calls for the components below c and for the "up" problem —
    // all independent subproblems (processed in parallel per §D.1).
    std::vector<Fragment> below;
    below.reserve(down_split.components.size());
    for (size_t i = 0; i < down_split.components.size(); ++i) {
      util::DynamicBitset sub_conn = down_split.component_vertices[i] & chi_child;
      SearchOutcome sub =
          Decompose(down_split.components[i], sub_conn, allowed, depth + 1);
      if (sub.status == SearchStatus::kStopped) return sub;
      if (sub.status == SearchStatus::kNotFound) {
        return SearchOutcome::NotFound();  // reject this parent
      }
      below.push_back(std::move(sub.fragment));
    }

    // The "up" problem: H' \ comp_down plus χ(c) as a fresh special edge
    // (lines 38-39).
    int special_id = registry_.Add(chi_child, lambda_child);
    ExtendedSubhypergraph comp_up;
    comp_up.edges = comp.edges - comp_down.edges;
    comp_up.edge_count = comp.edge_count - comp_down.edge_count;
    for (int s : comp.specials) {
      if (std::find(comp_down.specials.begin(), comp_down.specials.end(), s) ==
          comp_down.specials.end()) {
        comp_up.specials.push_back(s);
      }
    }
    comp_up.specials.push_back(special_id);  // ids increase: stays sorted

    // Allowed edges for the up-call (line 40) — minus comp_down's edges,
    // and minus any edge dipping into comp_down's private vertices
    // V(comp_down) \ χ(c) (see the header comment: keeps the special
    // condition intact at stitch time; completeness unaffected).
    util::DynamicBitset private_below = down_vertices - chi_child;
    util::DynamicBitset allowed_up = allowed - comp_down.edges;
    std::vector<int> to_remove;
    allowed_up.ForEach([&](int e) {
      if (graph_.edge_vertices(e).Intersects(private_below)) to_remove.push_back(e);
    });
    for (int e : to_remove) allowed_up.Reset(e);

    SearchOutcome up = Decompose(comp_up, conn, allowed_up, depth + 1);
    if (up.status == SearchStatus::kStopped) return up;
    if (up.status == SearchStatus::kNotFound) {
      return SearchOutcome::NotFound();  // reject this parent
    }

    // Stitch (Appendix A): the up-fragment's leaf for χ(c) becomes node c;
    // covered specials of comp_down and the below-fragments hang under it.
    Fragment fragment = std::move(up.fragment);
    int leaf = fragment.FindSpecialLeaf(special_id);
    HTD_CHECK_GE(leaf, 0) << "up-fragment lost its interface leaf";
    fragment.ReplaceSpecialLeaf(leaf, lambda_child);
    for (int s : down_split.covered.specials) {
      int special_leaf = fragment.AddSpecialLeaf(s, registry_.vertices(s));
      fragment.AddChild(leaf, special_leaf);
    }
    for (const Fragment& child : below) {
      fragment.Graft(child, leaf);
    }
    return SearchOutcome::Found(std::move(fragment));
  };

  // The pair search over λ(p) shares the separator search's partitioning
  // (the paper's parallelisation covers the whole (p, c) pair space); here
  // it is driven sequentially, inside the ChildLoop slot that owns λ(c).
  return DriveCandidates(parent_n, k_, parent_new, /*extra_workers=*/0,
                         /*group=*/nullptr, stats_, try_parent);
}

SolveResult LogKDecomp::Solve(const Hypergraph& graph, int k) {
  util::WallTimer timer;
  SolveResult result;
  if (graph.num_edges() == 0) {
    result.outcome = Outcome::kYes;
    result.decomposition = Decomposition();
    result.stats.seconds = timer.ElapsedSeconds();
    return result;
  }
  StatsCounters counters;
  SpecialEdgeRegistry registry(graph.num_vertices());
  // Resolve the width hint against the executor and make sure a parallel
  // solve has a task group to spawn into: the scheduler lends a flight
  // group; standalone callers (tests, benches, CLI) get a root group on
  // the global executor. num_threads == 0 means "as wide as the fleet".
  SolveOptions options = options_;
  if (options.num_threads <= 0) {
    options.num_threads = options.task_group != nullptr
                              ? options.task_group->executor().num_workers()
                              : util::Executor::Global().num_workers();
  }
  std::unique_ptr<util::TaskGroup> own_group;
  if (options.num_threads > 1 && options.task_group == nullptr) {
    own_group = std::make_unique<util::TaskGroup>(util::Executor::Global(),
                                                  options.cancel);
    options.task_group = own_group.get();
  }
  ThreadBudget budget(options.num_threads - 1);
  std::unique_ptr<DetKEngine> fallback;
  if (options.hybrid_metric != HybridMetric::kNone) {
    fallback = std::make_unique<DetKEngine>(graph, registry, k, options, counters);
  }
  std::unique_ptr<NegativeCache> cache;
  if (options.enable_cache) {
    cache = std::make_unique<NegativeCache>(options.cache_shards);
  }
  LogKEngine engine(graph, registry, k, options, counters, fallback.get(), &budget,
                    cache.get());

  ExtendedSubhypergraph full = ExtendedSubhypergraph::FullGraph(graph);
  util::DynamicBitset empty_conn(graph.num_vertices());
  SearchOutcome outcome = engine.Decompose(full, empty_conn, graph.AllEdges(), 0);

  result.stats = counters.Snapshot();
  result.stats.seconds = timer.ElapsedSeconds();
  switch (outcome.status) {
    case SearchStatus::kStopped:
      result.outcome = Outcome::kCancelled;
      break;
    case SearchStatus::kNotFound:
      result.outcome = Outcome::kNo;
      break;
    case SearchStatus::kFound: {
      result.outcome = Outcome::kYes;
      result.decomposition = outcome.fragment.ToDecomposition();
      if (options_.validate_result) {
        Validation validation = ValidateHdWithWidth(graph, *result.decomposition, k);
        if (!validation.ok) {
          result.outcome = Outcome::kError;
          result.decomposition.reset();
        }
      }
      break;
    }
  }
  return result;
}

std::string LogKDecomp::name() const {
  switch (options_.hybrid_metric) {
    case HybridMetric::kNone:
      return "log-k-decomp";
    case HybridMetric::kEdgeCount:
      return "log-k-hybrid(EdgeCount)";
    case HybridMetric::kWeightedCount:
      return "log-k-hybrid(WeightedCount)";
  }
  return "log-k-decomp";
}

}  // namespace htd
