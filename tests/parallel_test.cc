// Tests of the parallel separator search: the chunk driver in isolation and
// the parallel log-k-decomp end to end.
#include "core/parallel_search.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "core/log_k_decomp.h"
#include "core/search_steps.h"
#include "decomp/validation.h"
#include "hypergraph/generators.h"
#include "util/executor.h"
#include "util/rng.h"

namespace htd {
namespace {

TEST(ThreadBudgetTest, ClaimAndRelease) {
  ThreadBudget budget(3);
  EXPECT_EQ(budget.Claim(2), 2);
  EXPECT_EQ(budget.Claim(2), 1);
  EXPECT_EQ(budget.Claim(2), 0);
  budget.Release(3);
  EXPECT_EQ(budget.Claim(5), 3);
}

TEST(ThreadBudgetTest, ZeroBudget) {
  ThreadBudget budget(0);
  EXPECT_EQ(budget.Claim(4), 0);
}

TEST(DriveCandidatesTest, SequentialExploresEverything) {
  StatsCounters stats;
  std::set<std::vector<int>> seen;
  SearchOutcome outcome = DriveCandidates(
      5, 2, 5, /*extra_workers=*/0, /*group=*/nullptr, stats,
      [&](const std::vector<int>& subset) {
        AddSearchStep();
        seen.insert(subset);
        return SearchOutcome::NotFound();
      });
  EXPECT_EQ(outcome.status, SearchStatus::kNotFound);
  EXPECT_EQ(seen.size(), 5u + 10u);  // C(5,1) + C(5,2)
  EXPECT_EQ(stats.work_total.load(), 15);
  EXPECT_EQ(stats.work_parallel.load(), 15);
}

TEST(DriveCandidatesTest, ParallelExploresEverything) {
  StatsCounters stats;
  std::mutex mutex;
  std::set<std::vector<int>> seen;
  util::Executor executor(4);
  util::TaskGroup group(executor);
  SearchOutcome outcome = DriveCandidates(
      6, 3, 6, /*extra_workers=*/3, &group, stats,
      [&](const std::vector<int>& subset) {
        AddSearchStep();
        std::lock_guard<std::mutex> lock(mutex);
        seen.insert(subset);
        return SearchOutcome::NotFound();
      });
  EXPECT_EQ(outcome.status, SearchStatus::kNotFound);
  EXPECT_EQ(seen.size(), 6u + 15u + 20u);
  EXPECT_EQ(stats.work_total.load(), 41);
  EXPECT_LE(stats.work_parallel.load(), stats.work_total.load());
}

TEST(DriveCandidatesTest, FirstLimitRestrictsFirstElement) {
  StatsCounters stats;
  std::set<std::vector<int>> seen;
  DriveCandidates(5, 2, 2, 0, nullptr, stats, [&](const std::vector<int>& subset) {
    seen.insert(subset);
    return SearchOutcome::NotFound();
  });
  for (const auto& subset : seen) {
    EXPECT_LT(subset[0], 2);
  }
  // {0},{1} + pairs starting with 0 or 1: 4 + 3 = 7 of them, plus 2 singles.
  EXPECT_EQ(seen.size(), 2u + 7u);
}

TEST(DriveCandidatesTest, FoundStopsSearch) {
  StatsCounters stats;
  Fragment marker;
  int node = marker.AddNode({0}, util::DynamicBitset(2));
  marker.SetRoot(node);
  std::atomic<int> calls{0};
  SearchOutcome outcome = DriveCandidates(
      8, 2, 8, 0, nullptr, stats, [&](const std::vector<int>& subset) {
        calls.fetch_add(1);
        if (subset == std::vector<int>{1}) {
          Fragment copy = marker;
          return SearchOutcome::Found(std::move(copy));
        }
        return SearchOutcome::NotFound();
      });
  EXPECT_EQ(outcome.status, SearchStatus::kFound);
  EXPECT_EQ(outcome.fragment.num_nodes(), 1);
  EXPECT_EQ(calls.load(), 2);  // {0} then {1} in deterministic order
}

TEST(DriveCandidatesTest, ParallelFindsResult) {
  StatsCounters stats;
  Fragment marker;
  int node = marker.AddNode({0}, util::DynamicBitset(2));
  marker.SetRoot(node);
  util::Executor executor(4);
  util::TaskGroup group(executor);
  SearchOutcome outcome = DriveCandidates(
      10, 2, 10, 3, &group, stats, [&](const std::vector<int>& subset) {
        if (subset.size() == 2 && subset[0] == 4 && subset[1] == 7) {
          Fragment copy = marker;
          return SearchOutcome::Found(std::move(copy));
        }
        return SearchOutcome::NotFound();
      });
  EXPECT_EQ(outcome.status, SearchStatus::kFound);
}

// Paper §D.1: the first slot to find a fragment wins and the rest drain
// out. A losing slot deep inside a nested search must see the decision too,
// or the winner waits for it to finish (here: until the 10 s cap).
TEST(DriveCandidatesTest, LosingSlotStopsOnceTheLevelIsDecided) {
  using Clock = std::chrono::steady_clock;
  StatsCounters stats;
  Fragment marker;
  marker.SetRoot(marker.AddNode({0}, util::DynamicBitset(2)));
  util::Executor executor(2);
  util::TaskGroup group(executor);
  const Clock::time_point start = Clock::now();
  auto capped = [&] { return Clock::now() - start > std::chrono::seconds(10); };
  SearchOutcome outcome = DriveCandidates(
      2, 1, 2, /*extra_workers=*/1, &group, stats,
      [&](const std::vector<int>& subset) {
        if (subset[0] == 1) {
          Fragment copy = marker;
          return SearchOutcome::Found(std::move(copy));
        }
        // A nested search that ends only when told to stop.
        return DriveCandidates(1, 1, 1, 0, nullptr, stats,
                               [&](const std::vector<int>&) {
                                 while (!SearchLevelDecided() && !capped()) {
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(1));
                                 }
                                 return SearchOutcome::Stopped();
                               });
      });
  EXPECT_EQ(outcome.status, SearchStatus::kFound);
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(5));
  EXPECT_FALSE(SearchLevelDecided()) << "the decision leaked out of its slots";
}

// A parallel level nested in a losing slot whose own slots leave because the
// enclosing level was decided has not tried every candidate: it must report
// kStopped, or LogKEngine would memoise an unrefuted subproblem as failed.
TEST(DriveCandidatesTest, NestedParallelLevelCutShortReportsStopped) {
  using Clock = std::chrono::steady_clock;
  StatsCounters stats;
  Fragment marker;
  marker.SetRoot(marker.AddNode({0}, util::DynamicBitset(2)));
  util::Executor executor(2);
  util::TaskGroup group(executor);
  const Clock::time_point start = Clock::now();
  auto capped = [&] { return Clock::now() - start > std::chrono::seconds(10); };
  std::atomic<int> nested_status{-1};
  SearchOutcome outcome = DriveCandidates(
      2, 1, 2, /*extra_workers=*/1, &group, stats,
      [&](const std::vector<int>& subset) {
        if (subset[0] == 1) {
          Fragment copy = marker;
          return SearchOutcome::Found(std::move(copy));
        }
        // Each nested candidate fails once the outer level is decided; the
        // nested slots then leave with candidates still untried.
        SearchOutcome nested = DriveCandidates(
            50, 1, 50, /*extra_workers=*/1, &group, stats,
            [&](const std::vector<int>&) {
              while (!SearchLevelDecided() && !capped()) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
              }
              return SearchOutcome::NotFound();
            });
        nested_status.store(static_cast<int>(nested.status));
        return nested;
      });
  EXPECT_EQ(outcome.status, SearchStatus::kFound);
  EXPECT_EQ(nested_status.load(), static_cast<int>(SearchStatus::kStopped));
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(5));
}

TEST(DriveCandidatesTest, StoppedPropagates) {
  StatsCounters stats;
  SearchOutcome outcome =
      DriveCandidates(5, 2, 5, 0, nullptr, stats, [&](const std::vector<int>&) {
        return SearchOutcome::Stopped();
      });
  EXPECT_EQ(outcome.status, SearchStatus::kStopped);
}

TEST(DriveCandidatesTest, EmptySpace) {
  StatsCounters stats;
  SearchOutcome outcome = DriveCandidates(0, 2, 0, 0, nullptr, stats,
                                          [&](const std::vector<int>&) {
                                            ADD_FAILURE() << "must not be called";
                                            return SearchOutcome::NotFound();
                                          });
  EXPECT_EQ(outcome.status, SearchStatus::kNotFound);
}

// End-to-end: parallel log-k-decomp agrees with sequential and produces
// valid HDs.
class ParallelLogKTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelLogKTest, ParallelMatchesSequential) {
  util::Rng rng(GetParam());
  Hypergraph graph = MakeRandomCsp(rng, 20, 14, 2, 4);

  LogKDecomp sequential;
  SolveOptions parallel_options;
  parallel_options.num_threads = 4;
  parallel_options.parallel_min_size = 4;  // force parallel paths
  LogKDecomp parallel(parallel_options);

  for (int k = 1; k <= 3; ++k) {
    Outcome expected = sequential.Solve(graph, k).outcome;
    SolveResult result = parallel.Solve(graph, k);
    EXPECT_EQ(result.outcome, expected) << "seed=" << GetParam() << " k=" << k;
    if (result.outcome == Outcome::kYes) {
      Validation validation = ValidateHdWithWidth(graph, *result.decomposition, k);
      EXPECT_TRUE(validation.ok) << validation.error;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelLogKTest, ::testing::Range(0, 10));

class ParallelLogKStatsTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelLogKStatsTest, WorkAccountingIsConsistent) {
  SolveOptions options;
  options.num_threads = GetParam();
  options.parallel_min_size = 4;
  LogKDecomp solver(options);
  SolveResult result = solver.Solve(MakeGrid(3, 4), 2);
  EXPECT_GT(result.stats.work_total, 0);
  EXPECT_GT(result.stats.work_parallel, 0);
  EXPECT_LE(result.stats.work_parallel, result.stats.work_total);
  // One worker is its own longest slot: the 1.0x baseline that the
  // work_total / work_parallel speedup estimate divides by.
  if (GetParam() == 1) {
    EXPECT_EQ(result.stats.work_parallel, result.stats.work_total);
  }
}

TEST_P(ParallelLogKStatsTest, WorkTotalCountsEachSeparatorOnce) {
  // Every step is one separator tried; a candidate deep in the recursion
  // is credited once, not once per enclosing search level.
  SolveOptions options;
  options.num_threads = GetParam();
  options.parallel_min_size = 4;
  LogKDecomp solver(options);
  SolveResult result = solver.Solve(MakeGrid(3, 4), 2);
  EXPECT_GT(result.stats.max_recursion_depth, 1);
  EXPECT_EQ(result.stats.work_total, result.stats.separators_tried);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelLogKStatsTest, ::testing::Values(1, 4));

}  // namespace
}  // namespace htd
