#include "service/scheduler.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/logging.h"

namespace htd::service {

namespace {

/// `result`'s outcome and stats with `hd` as its HD; the old HD is not copied.
SolveResult WithDecomposition(const SolveResult& result,
                              std::optional<Decomposition> hd) {
  SolveResult out;
  out.outcome = result.outcome;
  out.stats = result.stats;
  out.decomposition = std::move(hd);
  return out;
}

/// `canonical`, whose HD is in canonical ids, rewritten into the ids of the
/// graph `labelling` belongs to; nullopt when the HD does not fit that graph.
std::optional<SolveResult> InCallersIds(const SolveResult& canonical,
                                        const CanonicalLabelling& labelling) {
  if (!canonical.decomposition.has_value()) {
    return WithDecomposition(canonical, std::nullopt);
  }
  std::optional<Decomposition> mine =
      labelling.FromCanonical(*canonical.decomposition);
  if (!mine.has_value()) return std::nullopt;
  return WithDecomposition(canonical, std::move(mine));
}

}  // namespace

BatchScheduler::BatchScheduler(util::Executor& executor, SolverFactoryFn factory,
                               const SolveOptions& solve_options,
                               ResultCache* cache, uint64_t config_digest,
                               util::MetricsRegistry* metrics)
    : executor_(executor),
      factory_(std::move(factory)),
      solve_options_(solve_options),
      cache_(cache),
      config_digest_(config_digest) {
  HTD_CHECK(factory_ != nullptr);
  // The flight owns its CancelToken; a caller-level token would outlive our
  // control. Per-job deadlines come in through JobSpec::timeout_seconds.
  solve_options_.cancel = nullptr;
  if (metrics != nullptr) {
    stage_fingerprint_ =
        &metrics->GetHistogram("htd_stage_seconds", "stage=\"fingerprint\"");
    stage_cache_ =
        &metrics->GetHistogram("htd_stage_seconds", "stage=\"cache\"");
    stage_schedule_ =
        &metrics->GetHistogram("htd_stage_seconds", "stage=\"schedule\"");
    stage_solve_ =
        &metrics->GetHistogram("htd_stage_seconds", "stage=\"solve\"");
  }
}

BatchScheduler::~BatchScheduler() {
  CancelAll();
  Drain();
}

std::future<JobResult> BatchScheduler::Submit(const JobSpec& spec) {
  std::vector<NewTask> new_tasks;
  std::future<JobResult> future = Admit(spec, new_tasks);
  for (NewTask& task : new_tasks) {
    executor_.Submit(std::move(task.fn), task.lane);
  }
  return future;
}

std::vector<std::future<JobResult>> BatchScheduler::SubmitBatch(
    const std::vector<JobSpec>& specs) {
  std::vector<std::future<JobResult>> futures;
  futures.reserve(specs.size());
  std::vector<NewTask> new_tasks;
  for (const JobSpec& spec : specs) {
    futures.push_back(Admit(spec, new_tasks));
  }
  for (NewTask& task : new_tasks) {
    executor_.Submit(std::move(task.fn), task.lane);
  }
  return futures;
}

std::future<JobResult> BatchScheduler::Admit(
    const JobSpec& spec, std::vector<NewTask>& new_tasks) {
  HTD_CHECK(spec.graph != nullptr);
  HTD_CHECK_GE(spec.k, 1);
  submitted_.fetch_add(1, std::memory_order_relaxed);

  // Fingerprint on the submitter's thread: keeps the admission lock cheap.
  // Stage timing uses WallTimer, not the trace scope, so the histograms
  // stay populated when tracing is disabled or the job is untraced.
  util::WallTimer fp_timer;
  CanonicalForm form;
  {
    util::TraceScope span("fingerprint", spec.trace);
    form = ComputeCanonicalForm(*spec.graph);
  }
  const Fingerprint fp = form.fingerprint;
  const double fingerprint_seconds = fp_timer.ElapsedSeconds();
  if (stage_fingerprint_ != nullptr) {
    stage_fingerprint_->Observe(fingerprint_seconds);
  }
  CacheKey key{fp, spec.k, config_digest_};

  std::promise<JobResult> promise;
  std::future<JobResult> future = promise.get_future();

  // Cache probe outside the scheduler lock: the cache has its own shard
  // striping, and a hit rewrites a whole HD — serialising that behind
  // mutex_ would make every admission pay for it.
  double cache_seconds = 0.0;
  if (cache_ != nullptr) {
    util::WallTimer cache_timer;
    std::shared_ptr<const SolveResult> hit;
    {
      util::TraceScope span("cache", spec.trace);
      hit = cache_->Lookup(key);
    }
    cache_seconds = cache_timer.ElapsedSeconds();
    if (stage_cache_ != nullptr) stage_cache_->Observe(cache_seconds);
    // The cached HD is in canonical ids; one that does not fit this graph
    // is a miss, never served.
    std::optional<SolveResult> mine;
    if (hit != nullptr) mine = InCallersIds(*hit, form.labelling);
    if (mine.has_value()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      completed_.fetch_add(1, std::memory_order_relaxed);
      JobResult job_result;
      job_result.result = *std::move(mine);
      job_result.fingerprint = fp;
      job_result.cache_hit = true;
      job_result.stages.fingerprint_seconds = fingerprint_seconds;
      job_result.stages.cache_seconds = cache_seconds;
      promise.set_value(std::move(job_result));
      return future;
    }
  }

  // Prepare the flight before taking the lock too — the graph copy is
  // O(n + m). It is wasted work only when this job loses the admission race
  // to an identical in-flight solve (the rare case by construction).
  auto flight = std::make_shared<Flight>();
  flight->graph = std::make_shared<const Hypergraph>(*spec.graph);
  flight->key = key;
  flight->trace = spec.trace;
  flight->lane = spec.lane;
  if (spec.timeout_seconds > 0.0) {
    // Armed before the task reaches the executor: the worker's read of the
    // deadline is ordered after this write by the executor's queue mutex.
    flight->token.SetTimeout(std::chrono::duration<double>(spec.timeout_seconds));
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Single-flight: join an identical in-flight solve if there is one. A
    // solve that completed between the cache probe above and this point
    // re-solves instead of hitting — correct, just not free; the window is
    // a few instructions wide.
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      dedup_joins_.fetch_add(1, std::memory_order_relaxed);
      it->second->waiters.push_back(
          Waiter{std::move(promise), true, std::move(form.labelling),
                 fingerprint_seconds, cache_seconds});
      return future;
    }
    flight->labelling = std::move(form.labelling);
    flight->waiters.push_back(Waiter{std::move(promise), false, {},
                                     fingerprint_seconds, cache_seconds});
    inflight_.emplace(key, flight);
    ++pending_flights_;
  }
  solves_.fetch_add(1, std::memory_order_relaxed);
  new_tasks.push_back(NewTask{[this, flight] { RunFlight(flight); }, flight->lane});
  return future;
}

void BatchScheduler::RunFlight(const std::shared_ptr<Flight>& flight) {
  // Queue wait: admission (flight->timer start) to here. Recorded as a
  // retroactive span because no scope was open across the pool hand-off.
  const double schedule_seconds = flight->timer.ElapsedSeconds();
  if (stage_schedule_ != nullptr) stage_schedule_->Observe(schedule_seconds);
  if (flight->trace.root != 0) {
    util::TraceRegistry& trace_registry = util::TraceRegistry::Instance();
    uint64_t now_ns = trace_registry.NowNs();
    uint64_t wait_ns = static_cast<uint64_t>(schedule_seconds * 1e9);
    util::RecordSpan("schedule", flight->trace.parent, flight->trace.root,
                     now_ns >= wait_ns ? now_ns - wait_ns : 0, wait_ns);
  }
  SolveOptions options = solve_options_;
  options.cancel = &flight->token;
  // The flight lends the solver a task group tied to its token and lane.
  // Auto width (num_threads == 0) offers chunks for the whole fleet — how
  // many actually run concurrently is decided by which workers are free at
  // each search level, so width adapts mid-solve with no sampling here.
  util::TaskGroup group(executor_, &flight->token, flight->lane);
  options.task_group = &group;
  if (options.num_threads == 0) options.num_threads = executor_.num_workers();
  SolveResult result;
  util::WallTimer solve_timer;
  // A throwing solve must not leak the flight: waiters would see
  // broken_promise and Drain() would block forever on the stale inflight_
  // entry. Escaped exceptions become kError results instead.
  try {
    util::TraceScope span("solve", flight->trace,
                          static_cast<uint64_t>(options.num_threads));
    if (span.armed()) {
      options.trace_parent = span.id();
      options.trace_root = span.root();
    }
    std::unique_ptr<HdSolver> solver = factory_(options);
    result = solver->Solve(*flight->graph, flight->key.k);
  } catch (...) {
    result = SolveResult{};
    result.outcome = Outcome::kError;
  }
  // The solver drains its nested groups before returning; this only mops up
  // if it error-exited with stragglers still queued.
  try {
    group.Wait();
  } catch (...) {
    if (result.outcome == Outcome::kYes || result.outcome == Outcome::kNo) {
      result = SolveResult{};
      result.outcome = Outcome::kError;
    }
  }
  const double solve_seconds = solve_timer.ElapsedSeconds();
  if (stage_solve_ != nullptr) stage_solve_->Observe(solve_seconds);

  // The cache and the dedup waiters get the HD in canonical ids, built only
  // if one of them needs it.
  std::optional<SolveResult> canonical;
  auto in_canonical_ids = [&]() -> const SolveResult& {
    if (!canonical.has_value()) {
      canonical = WithDecomposition(result, std::nullopt);
      if (result.decomposition.has_value()) {
        canonical->decomposition =
            flight->labelling.ToCanonical(*result.decomposition);
      }
    }
    return *canonical;
  };
  // Only definitive answers are worth memoizing; kCancelled/kError depend on
  // the deadline (or fault) that produced them, not on the instance.
  if (cache_ != nullptr &&
      (result.outcome == Outcome::kYes || result.outcome == Outcome::kNo)) {
    cache_->Insert(flight->key, in_canonical_ids());
  }

  std::vector<Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    waiters = std::move(flight->waiters);
    inflight_.erase(flight->key);
  }

  const double seconds = flight->timer.ElapsedSeconds();
  for (Waiter& waiter : waiters) {
    JobResult job_result;
    if (!waiter.deduplicated) {
      job_result.result = result;
    } else if (std::optional<SolveResult> mine =
                   InCallersIds(in_canonical_ids(), waiter.labelling)) {
      job_result.result = *std::move(mine);
    } else {
      // Only a fingerprint collision makes the leader's HD not fit.
      job_result.result = WithDecomposition(result, std::nullopt);
      job_result.result.outcome = Outcome::kError;
    }
    job_result.fingerprint = flight->key.fingerprint;
    job_result.deduplicated = waiter.deduplicated;
    job_result.seconds = seconds;
    job_result.threads_used = std::max(1, group.peak_width());
    job_result.stages.fingerprint_seconds = waiter.fingerprint_seconds;
    job_result.stages.cache_seconds = waiter.cache_seconds;
    job_result.stages.schedule_seconds = schedule_seconds;
    job_result.stages.solve_seconds = solve_seconds;
    completed_.fetch_add(1, std::memory_order_relaxed);
    waiter.promise.set_value(std::move(job_result));
  }

  // The drain signal comes last: Drain() returning is the caller's licence
  // to destroy the scheduler, so nothing may touch `this` after the count
  // hits zero. The notify stays under the lock for the same reason.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (--pending_flights_ == 0) drained_.notify_all();
  }
}

void BatchScheduler::CancelAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, flight] : inflight_) {
    flight->token.RequestStop();
  }
}

void BatchScheduler::Drain() {
  // pending_flights_, not inflight_.empty(): a flight leaves inflight_
  // before its waiters are fulfilled, and Drain() must not return while the
  // worker is still in that fan-out (see the tail of RunFlight).
  std::unique_lock<std::mutex> lock(mutex_);
  drained_.wait(lock, [this] { return pending_flights_ == 0; });
}

int BatchScheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_flights_;
}

uint64_t BatchScheduler::outstanding_jobs() const {
  // completed_ is incremented just before each promise is fulfilled, so this
  // can transiently UNDER-count by the jobs mid-fan-out (their waiters are
  // already counted completed). Callers use it as an approximate
  // load-shedding threshold, not an exact semaphore.
  uint64_t submitted = submitted_.load(std::memory_order_relaxed);
  uint64_t completed = completed_.load(std::memory_order_relaxed);
  return submitted >= completed ? submitted - completed : 0;
}

BatchScheduler::Stats BatchScheduler::GetStats() const {
  Stats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.solves = solves_.load(std::memory_order_relaxed);
  stats.dedup_joins = dedup_joins_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace htd::service
