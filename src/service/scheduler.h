// Async batch scheduler: futures, single-flight dedup, per-job deadlines.
//
// The scheduler accepts decomposition jobs (hypergraph, width k, optional
// timeout), runs each as a task on the fleet-wide work-stealing executor
// (util/executor.h) on the lane the caller names, and returns std::futures.
// Identical requests — same canonical fingerprint, same k, same solver
// config — that arrive while a solve is in flight are coalesced onto that
// flight ("single-flight"): one solver run fans its result out to every
// waiter. Completed results are inserted into the ResultCache (when one is
// attached) so later submissions hit without solving at all.
//
// Ids: the cache stores every HD in canonical ids (service/canonical.h), and
// each cache hit and each dedup waiter gets it rewritten into the ids of the
// graph it submitted, so every answer is an HD of the instance as sent. The
// leader keeps its own result untouched.
//
// There is no admission-time thread sizing any more (the old
// PickAutoThreads): each flight lends the solver a util::TaskGroup tied to
// its CancelToken, the solver offers candidate-chunk tasks into it, and
// however many executor workers are free right then run them. A lone solve
// on an idle fleet widens to every core; under a deep queue the same solve
// naturally narrows to its own flight thread — mid-solve, no re-sampling.
//
// Deadlines: the flight's CancelToken is armed with the first submitter's
// deadline BEFORE the task is handed to the executor, so the solver task
// only ever reads a fully published token (TSan-clean by construction).
// A deadline firing cancels the whole task group — every spawned chunk of
// that flight drains at its next candidate check. Waiters that join an
// in-flight solve share the leader's deadline; their `deduplicated` flag
// says so. CancelAll() cooperatively stops every flight.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/solver_factory.h"
#include "service/canonical.h"
#include "service/result_cache.h"
#include "util/cancel.h"
#include "util/executor.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace htd::service {

/// One decomposition request.
struct JobSpec {
  const Hypergraph* graph = nullptr;  ///< not owned; copied on admission
  int k = 1;
  /// 0 = no deadline. The deadline is end-to-end from admission: queue wait
  /// counts against it, like a service SLA. Applies when this job starts a
  /// new flight; joining an in-flight duplicate inherits the leader's
  /// deadline instead.
  double timeout_seconds = 0.0;
  /// Trace parentage for spans the scheduler records on this job's behalf
  /// (fingerprint, cache probe, schedule wait, solve). Zero = untraced.
  util::TraceParent trace;
  /// Executor lane this job's flight runs on: sync requests block a client,
  /// async decompose jobs are polled, background is best-effort. Dedup
  /// joiners inherit the leader's lane.
  util::Executor::Lane lane = util::Executor::Lane::kSync;
};

/// Per-stage wall time of one job's trip through the scheduler. Cache hits
/// report zero schedule/solve time (no flight ran); dedup joiners report
/// their own fingerprint/cache time but the leader's schedule/solve.
struct StageBreakdown {
  double fingerprint_seconds = 0.0;
  double cache_seconds = 0.0;     ///< cache probe
  double schedule_seconds = 0.0;  ///< admission → flight start (queue wait)
  double solve_seconds = 0.0;
};

/// What a job's future resolves to.
struct JobResult {
  SolveResult result;
  Fingerprint fingerprint;
  bool cache_hit = false;      ///< answered from the ResultCache, no solve
  bool deduplicated = false;   ///< coalesced onto an already-running flight
  /// Wall time of the flight that produced the result, admission to fan-out.
  /// Cache hits report 0.0 (no flight ran); dedup joiners share the leader's
  /// clock rather than measuring from their own admission.
  double seconds = 0.0;
  /// Peak number of executor workers concurrently inside this flight's task
  /// group — the width the solve *actually reached*, not a pick made at
  /// admission. A lone solve on an idle fleet reports the full worker count;
  /// the same solve under a deep queue reports 1. Cache hits report 0 (no
  /// flight ran).
  int threads_used = 0;
  /// Stage timing for this job (see StageBreakdown).
  StageBreakdown stages;
};

class BatchScheduler {
 public:
  struct Stats {
    uint64_t submitted = 0;     ///< jobs accepted
    uint64_t solves = 0;        ///< actual solver runs started
    uint64_t dedup_joins = 0;   ///< jobs coalesced onto an in-flight solve
    uint64_t cache_hits = 0;    ///< jobs answered from the cache
    uint64_t completed = 0;     ///< futures fulfilled
  };

  /// `cache` may be nullptr (no memoization). `config_digest` must describe
  /// `factory`'s answer-affecting configuration (SolverConfigDigest).
  /// `metrics` may be nullptr (no stage histograms); when set it must
  /// outlive the scheduler.
  BatchScheduler(util::Executor& executor, SolverFactoryFn factory,
                 const SolveOptions& solve_options, ResultCache* cache,
                 uint64_t config_digest,
                 util::MetricsRegistry* metrics = nullptr);
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Admits one job. The graph is fingerprinted and copied on the caller's
  /// thread; the returned future resolves when the job is answered (cache,
  /// dedup fan-out, or fresh solve).
  std::future<JobResult> Submit(const JobSpec& spec);

  /// Admits many jobs, fanning every fresh flight out as an executor task;
  /// futures are index-aligned with `specs`.
  std::vector<std::future<JobResult>> SubmitBatch(const std::vector<JobSpec>& specs);

  /// Cooperatively cancels every in-flight solve (kCancelled results).
  void CancelAll();

  /// Blocks until no flight is running or queued.
  void Drain();

  Stats GetStats() const;

  /// Flights admitted but not yet fanned out — the scheduler's live queue
  /// depth. Cache hits and dedup joins never appear here; this is the number
  /// of solver runs outstanding. Feeds the admission-control surface
  /// (net/decomposition_server.h).
  int queue_depth() const;

  /// Jobs admitted whose futures have not resolved yet (includes every
  /// waiter of a shared flight, unlike queue_depth). The admission bound in
  /// front of the scheduler sheds load against this number.
  uint64_t outstanding_jobs() const;

 private:
  struct Waiter {
    std::promise<JobResult> promise;
    bool deduplicated = false;
    /// Maps the canonical HD into this waiter's own ids.
    CanonicalLabelling labelling;
    /// This waiter's own admission-time stage costs (joiners keep theirs
    /// even though they share the leader's schedule/solve time).
    double fingerprint_seconds = 0.0;
    double cache_seconds = 0.0;
  };
  struct Flight {
    std::shared_ptr<const Hypergraph> graph;
    CacheKey key;
    /// The leader's ids onto canonical ones: its HD is cached through this.
    CanonicalLabelling labelling;
    util::CancelToken token;
    util::WallTimer timer;
    std::vector<Waiter> waiters;  // guarded by scheduler mutex
    /// Leader's trace parentage, published before the flight task is
    /// submitted (same ordering argument as the CancelToken above).
    util::TraceParent trace;
    /// Lane the leader asked for; the flight task and every chunk its
    /// solve spawns ride on it.
    util::Executor::Lane lane = util::Executor::Lane::kSync;
  };
  struct NewTask {
    std::function<void()> fn;
    util::Executor::Lane lane;
  };

  /// Fingerprints and admits one job: immediate answer (cache hit), join of
  /// an in-flight solve, or a fresh flight whose executor task is appended
  /// to `new_tasks` for the caller to hand to the executor.
  std::future<JobResult> Admit(const JobSpec& spec,
                               std::vector<NewTask>& new_tasks);
  void RunFlight(const std::shared_ptr<Flight>& flight);

  util::Executor& executor_;
  SolverFactoryFn factory_;
  SolveOptions solve_options_;
  ResultCache* cache_;
  uint64_t config_digest_;
  /// Stage latency histograms, null when no registry was attached.
  util::Histogram* stage_fingerprint_ = nullptr;
  util::Histogram* stage_cache_ = nullptr;
  util::Histogram* stage_schedule_ = nullptr;
  util::Histogram* stage_solve_ = nullptr;

  mutable std::mutex mutex_;
  std::condition_variable drained_;
  std::unordered_map<CacheKey, std::shared_ptr<Flight>, CacheKeyHash> inflight_;
  /// Flights admitted but whose fan-out has not finished. Outlives the
  /// flight's inflight_ entry; Drain() waits on this reaching zero.
  int pending_flights_ = 0;  // guarded by mutex_

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> solves_{0};
  std::atomic<uint64_t> dedup_joins_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> completed_{0};
};

}  // namespace htd::service
