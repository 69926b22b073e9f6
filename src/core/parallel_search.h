// Parallel candidate-separator search (paper §D.1).
//
// The search space of λ-labels is partitioned into (size, first-element)
// chunks; workers claim chunks from an atomic counter and run the full
// candidate check — including nested recursion — independently. There is no
// other inter-thread communication, which is why the paper observes linear
// scaling: the first worker to find a fragment wins, the rest drain out at
// the next candidate boundary. "The rest" includes every nested search a
// losing slot started under that level, on whichever thread it runs: the
// engines' stop checks consult SearchLevelDecided().
//
// This file owns no threads. The parallel path spawns its slot workers as
// tasks into the caller's util::TaskGroup on the fleet-wide work-stealing
// executor (util/executor.h) and helps drain them inline; how many actually
// run concurrently depends on how busy the fleet is at that moment, which is
// what lets a lone solve widen to every core as the queue drains.
//
// A solve-wide ThreadBudget bounds how many slot tasks are *offered* per
// search level (a width hint, not a fork count), so deep recursions don't
// flood the executor with more tasks than the solve was asked to use.
#pragma once

#include <atomic>
#include <functional>
#include <vector>

#include "core/search_types.h"
#include "core/solver.h"
#include "util/executor.h"
#include "util/trace.h"

namespace htd {

class ThreadBudget {
 public:
  /// `extra_workers` = slot tasks available beyond the calling thread.
  explicit ThreadBudget(int extra_workers) : available_(std::max(0, extra_workers)) {}

  /// Claims up to `want` extra slots; returns how many were granted.
  int Claim(int want);
  /// Returns previously claimed slots to the budget.
  void Release(int count);

 private:
  std::atomic<int> available_;
};

/// True once a parallel search level enclosing the calling slot has been
/// decided (a slot found a fragment or stopped). Nested searches inside a
/// losing slot then end with kStopped, which no memo ever records. The
/// signal lives in a thread-local installed around each slot body only, so
/// it never reaches unrelated tasks the executor runs on the same thread.
bool SearchLevelDecided();

/// Signature of a candidate check: receives the candidate's indices into the
/// caller's candidate-edge list. kNotFound means "this candidate fails";
/// kFound/kStopped end the whole search.
using CandidateFn = std::function<SearchOutcome(const std::vector<int>&)>;

/// Tries all subsets S of {0..n-1} with 1 ≤ |S| ≤ k and min(S) < first_limit
/// on 1 + extra_workers slot tasks. With extra_workers > 0, `group` must be
/// non-null: the extra slots are spawned into a nested task group under it
/// and the calling thread drains the group inline (work-stealing workers
/// pick up whatever it hasn't started yet). Records search-step work into
/// `stats` from the frames outermost on their thread only (a sequential
/// search or a slot body with no search open around it on the same
/// thread), so every step is counted once: work_total accumulates every
/// step, work_parallel the longest slot's share of each outermost search
/// (see SolveStats). A parallel level whose slots
/// left early because an enclosing level was decided returns kStopped,
/// never kNotFound: it did not try every candidate.
///
/// `trace` parents one "sep_worker" span per slot task (tagged with its
/// slot) under the caller's per-level separator-search span; an all-zero
/// TraceParent (the default) records nothing.
SearchOutcome DriveCandidates(int n, int k, int first_limit, int extra_workers,
                              util::TaskGroup* group, StatsCounters& stats,
                              const CandidateFn& try_candidate,
                              util::TraceParent trace = {});

}  // namespace htd
