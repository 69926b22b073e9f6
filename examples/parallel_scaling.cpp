// Parallel scaling demo: the paper's headline property on one instance.
//
// log-k-decomp partitions the balanced-separator search space over worker
// threads with no inter-thread communication (§D.1). This example refutes
// "hw ≤ 2" on a hard negative instance — the workload Figure 1 shows scales
// best ("instances where the search for separators dominates") — once per
// worker count and reports the measured wall-clock speedup. Worker counts
// stop at this host's hardware threads; bench/figure1_scaling runs the full
// study (README.md, "Reproducing the paper").
//
//   $ ./build/parallel_scaling
#include <algorithm>
#include <cstdio>
#include <thread>

#include "core/log_k_decomp.h"
#include "hypergraph/generators.h"

int main() {
  // A deep refutation: K5 at k = 2 exhausts ~3*10^5 separator candidates
  // through many recursion levels — the workload Figure 1 scales best on.
  htd::Hypergraph graph = htd::MakeClique(5);
  const int max_workers =
      std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 6);

  std::printf("refuting hw <= 2 on K5, |E| = %d, wall clock on real threads\n\n",
              graph.num_edges());
  std::printf("workers  time (ms)  speedup\n");

  double base_ms = 0.0;
  for (int workers = 1; workers <= max_workers; ++workers) {
    htd::SolveOptions options;
    options.num_threads = workers;
    options.parallel_min_size = 4;
    htd::LogKDecomp solver(options);
    htd::SolveResult result = solver.Solve(graph, 2);
    if (result.outcome != htd::Outcome::kNo) {
      std::fprintf(stderr, "unexpected outcome\n");
      return 1;
    }
    double ms = result.stats.seconds * 1000.0;
    if (workers == 1) base_ms = ms;
    std::printf("%7d  %9.1f  %6.2fx\n", workers, ms, ms > 0 ? base_ms / ms : 0.0);
  }
  return 0;
}
