// Differential property tests: all solvers must agree on hw(H) <= k, every
// constructed HD must validate, decisions must be monotone in k, and
// log-k-decomp's recursion depth must stay within the paper's logarithmic
// bound (Theorem 4.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "baselines/det_k_decomp.h"
#include "core/hybrid.h"
#include "core/log_k_decomp.h"
#include "core/log_k_decomp_basic.h"
#include "decomp/validation.h"
#include "hypergraph/generators.h"
#include "util/rng.h"

namespace htd {
namespace {

Hypergraph RandomInstance(uint64_t seed) {
  util::Rng rng(seed);
  switch (seed % 4) {
    case 0:
      return MakeRandomCsp(rng, 14, 9, 2, 4);
    case 1:
      return MakeRandomCq(rng, 10, 4, 0.35);
    case 2:
      return AddRandomChords(MakePath(7), rng, 3);
    default:
      return MakeHyperCycle(3 + static_cast<int>(seed % 5), 3, 1);
  }
}

class CrossSolverTest : public ::testing::TestWithParam<int> {};

TEST_P(CrossSolverTest, AllSolversAgreeAndHdsValidate) {
  const uint64_t seed = GetParam();
  Hypergraph graph = RandomInstance(seed);

  DetKDecomp det_k;
  LogKDecomp log_k;
  SolveOptions threaded;
  threaded.num_threads = 4;
  threaded.parallel_min_size = 4;  // force parallel paths
  LogKDecomp log_k_threaded(threaded);
  std::unique_ptr<HdSolver> hybrid =
      MakeHybridSolver(HybridMetric::kEdgeCount, /*threshold=*/5.0);
  // Theorem 4.1: every recursive call at least halves the subproblem.
  const int depth_bound =
      static_cast<int>(std::ceil(std::log2(std::max(1, graph.num_edges())))) + 1;

  Outcome previous = Outcome::kNo;
  for (int k = 1; k <= 4; ++k) {
    SolveResult det_result = det_k.Solve(graph, k);
    SolveResult log_result = log_k.Solve(graph, k);
    SolveResult threaded_result = log_k_threaded.Solve(graph, k);
    SolveResult hybrid_result = hybrid->Solve(graph, k);

    EXPECT_EQ(det_result.outcome, log_result.outcome)
        << "det-k vs log-k disagree, seed=" << seed << " k=" << k;
    EXPECT_EQ(det_result.outcome, threaded_result.outcome)
        << "det-k vs threaded log-k disagree, seed=" << seed << " k=" << k;
    EXPECT_EQ(det_result.outcome, hybrid_result.outcome)
        << "det-k vs hybrid disagree, seed=" << seed << " k=" << k;
    for (const SolveResult* result : {&log_result, &threaded_result}) {
      EXPECT_LE(result->stats.max_recursion_depth, depth_bound)
          << "|E|=" << graph.num_edges() << " seed=" << seed << " k=" << k
          << (result == &threaded_result ? " (threaded)" : "");
    }

    for (const SolveResult* result :
         {&det_result, &log_result, &threaded_result, &hybrid_result}) {
      if (result->outcome == Outcome::kYes) {
        ASSERT_TRUE(result->decomposition.has_value());
        Validation validation = ValidateHdWithWidth(graph, *result->decomposition, k);
        EXPECT_TRUE(validation.ok)
            << validation.error << " seed=" << seed << " k=" << k;
      }
    }
    // Monotonicity: once solvable, stays solvable for larger k.
    if (previous == Outcome::kYes) {
      EXPECT_EQ(det_result.outcome, Outcome::kYes) << "seed=" << seed << " k=" << k;
    }
    previous = det_result.outcome;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossSolverTest, ::testing::Range(0, 24));

class BasicAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(BasicAgreementTest, BasicAlgorithmAgreesWithOptimised) {
  // Algorithm 1 is much slower; use the smallest instances.
  util::Rng rng(GetParam());
  Hypergraph graph = MakeRandomCsp(rng, 10, 6, 2, 3);
  LogKDecompBasic basic;
  LogKDecomp optimised;
  for (int k = 1; k <= 3; ++k) {
    EXPECT_EQ(basic.Solve(graph, k).outcome, optimised.Solve(graph, k).outcome)
        << "seed=" << GetParam() << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BasicAgreementTest, ::testing::Range(100, 110));

// The normal form (Definition 3.5) holds for det-k-decomp's output on
// connected instances: its construction is exactly the minimal-χ top-down
// normal-form construction.
class NormalFormTest : public ::testing::TestWithParam<int> {};

TEST_P(NormalFormTest, DetKOutputIsNormalForm) {
  Hypergraph graph = MakeCycle(4 + GetParam());
  DetKDecomp solver;
  SolveResult result = solver.Solve(graph, 2);
  ASSERT_EQ(result.outcome, Outcome::kYes);
  Validation nf = CheckNormalForm(graph, *result.decomposition);
  EXPECT_TRUE(nf.ok) << nf.error;
}

INSTANTIATE_TEST_SUITE_P(CycleSizes, NormalFormTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace htd
