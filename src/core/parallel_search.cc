#include "core/parallel_search.h"

#include <algorithm>
#include <mutex>

#include "core/search_steps.h"
#include "util/combinations.h"
#include "util/executor.h"

namespace htd {

namespace {

/// One parallel search level as seen from inside one of its slots: the
/// level's decision flag, linked to the level enclosing it.
struct SearchLevel {
  const std::atomic<int>* done;
  const SearchLevel* enclosing;
};

thread_local const SearchLevel* tl_search_level = nullptr;

/// Search frames (sequential searches and slot bodies) open on this thread.
thread_local int tl_search_frames = 0;

/// One search frame: the steps this thread takes inside it. Only the
/// outermost frame on a thread credits them — an inner frame's steps are
/// already part of the enclosing frame's delta — so every step is counted
/// exactly once, on the thread that took it.
class SearchFrame {
 public:
  SearchFrame()
      : outermost_(tl_search_frames++ == 0), start_(CurrentSearchSteps()) {}
  ~SearchFrame() { --tl_search_frames; }
  SearchFrame(const SearchFrame&) = delete;
  SearchFrame& operator=(const SearchFrame&) = delete;

  bool outermost() const { return outermost_; }
  long steps() const { return CurrentSearchSteps() - start_; }

 private:
  bool outermost_;
  long start_;
};

/// Installs a level for one slot body and restores the outer one on exit,
/// exceptions included.
class InstallLevel {
 public:
  explicit InstallLevel(const SearchLevel* level) : outer_(tl_search_level) {
    tl_search_level = level;
  }
  ~InstallLevel() { tl_search_level = outer_; }
  InstallLevel(const InstallLevel&) = delete;
  InstallLevel& operator=(const InstallLevel&) = delete;

 private:
  const SearchLevel* outer_;
};

}  // namespace

bool SearchLevelDecided() {
  for (const SearchLevel* level = tl_search_level; level != nullptr;
       level = level->enclosing) {
    if (level->done->load(std::memory_order_relaxed) != 0) return true;
  }
  return false;
}

int ThreadBudget::Claim(int want) {
  if (want <= 0) return 0;
  int current = available_.load(std::memory_order_relaxed);
  while (current > 0) {
    int granted = std::min(current, want);
    if (available_.compare_exchange_weak(current, current - granted,
                                         std::memory_order_relaxed)) {
      return granted;
    }
  }
  return 0;
}

void ThreadBudget::Release(int count) {
  if (count > 0) available_.fetch_add(count, std::memory_order_relaxed);
}

SearchOutcome DriveCandidates(int n, int k, int first_limit, int extra_workers,
                              util::TaskGroup* group, StatsCounters& stats,
                              const CandidateFn& try_candidate,
                              util::TraceParent trace) {
  const std::vector<util::SubsetChunk> chunks = util::MakeSubsetChunks(n, k, first_limit);
  if (chunks.empty()) return SearchOutcome::NotFound();

  if (extra_workers <= 0 || group == nullptr) {
    // Sequential: chunks in deterministic (size, first) order. One worker
    // does everything, so the step delta (each candidate's full nested
    // cost, see search_steps.h) is both the total and the longest share.
    const SearchFrame frame;
    SearchOutcome outcome = SearchOutcome::NotFound();
    for (size_t c = 0; c < chunks.size() && outcome.status == SearchStatus::kNotFound;
         ++c) {
      util::FixedFirstEnumerator enumerator(n, chunks[c].size, chunks[c].first);
      while (outcome.status == SearchStatus::kNotFound && enumerator.Next()) {
        outcome = try_candidate(enumerator.indices());
      }
    }
    if (frame.outermost()) {
      stats.work_total.fetch_add(frame.steps(), std::memory_order_relaxed);
      stats.work_parallel.fetch_add(frame.steps(), std::memory_order_relaxed);
    }
    return outcome;
  }

  // Parallel: slot tasks claim chunks from an atomic cursor; the first
  // kFound/kStopped outcome wins and stops everyone at the next candidate.
  const int num_workers = extra_workers + 1;
  // Only a level that is outermost on its thread credits its longest slot:
  // a nested level's slots are inside some enclosing slot's share already.
  const bool outermost_level = tl_search_frames == 0;
  std::atomic<size_t> next_chunk{0};
  std::atomic<int> done{0};  // 0 = running, 1 = found/stopped
  std::mutex result_mutex;
  SearchOutcome result = SearchOutcome::NotFound();
  std::vector<long> work(num_workers, 0);

  // Captured on the calling thread: the slots run wherever the executor
  // puts them, and each installs this level for exactly its own body.
  const SearchLevel level{&done, tl_search_level};

  auto worker = [&](int slot) {
    InstallLevel installed(&level);
    // One span per worker: duration is the worker's whole share of this
    // level's search, so a trace shows how evenly the chunks divided.
    util::TraceScope span("sep_worker", trace, static_cast<uint64_t>(slot));
    const SearchFrame frame;
    auto search = [&] {
      while (!SearchLevelDecided()) {
        size_t chunk_index = next_chunk.fetch_add(1, std::memory_order_relaxed);
        if (chunk_index >= chunks.size()) return;
        const util::SubsetChunk& chunk = chunks[chunk_index];
        util::FixedFirstEnumerator enumerator(n, chunk.size, chunk.first);
        while (enumerator.Next()) {
          if (SearchLevelDecided()) return;
          SearchOutcome outcome = try_candidate(enumerator.indices());
          if (outcome.status != SearchStatus::kNotFound) {
            std::lock_guard<std::mutex> lock(result_mutex);
            // Keep the first decisive outcome; prefer kFound over kStopped
            // so a successful worker is not masked by a stop racing in.
            if (result.status == SearchStatus::kNotFound ||
                (result.status == SearchStatus::kStopped &&
                 outcome.status == SearchStatus::kFound)) {
              result = std::move(outcome);
            }
            done.store(1, std::memory_order_relaxed);
            return;
          }
        }
      }
    };
    search();
    work[slot] = frame.steps();
    // A slot stolen onto a thread outside any search is outermost there.
    if (frame.outermost()) {
      stats.work_total.fetch_add(work[slot], std::memory_order_relaxed);
    }
  };

  // The extra slots go into a nested group so this call waits only on its
  // own tasks, never on sibling searches elsewhere in the flight. Slot 0
  // runs inline (the calling thread is a full participant); whatever the
  // fleet has idle steals the rest, and a stolen-late slot just finds the
  // chunk cursor drained.
  {
    util::TaskGroup local(*group);
    for (int t = 1; t < num_workers; ++t) {
      local.Spawn([&worker, t] { worker(t); });
    }
    local.Run([&worker] { worker(0); });
    local.Wait();
  }

  if (outermost_level) {
    stats.work_parallel.fetch_add(*std::max_element(work.begin(), work.end()),
                                  std::memory_order_relaxed);
  }
  // Slots that saw an enclosing level's decision left without a verdict:
  // this level is unfinished, not refuted, and must not be memoised as such.
  if (result.status == SearchStatus::kNotFound && SearchLevelDecided()) {
    return SearchOutcome::Stopped();
  }
  return result;
}

}  // namespace htd
