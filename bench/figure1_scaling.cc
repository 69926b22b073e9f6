// Figure 1: parallel scaling of log-k-decomp (plain and hybrid) over the
// HB_large analogue (instances with |E| > 50 and hw <= 6), with the
// single-core NewDetKDecomp as reference.
//
// The paper measures wall-clock time on 1..5 cores of a 12-core Xeon; its
// §5.2 argument is that the slots share nothing, so the longest worker sets
// the time. This harness measures wall clock on real threads: num_threads
// slot tasks per search level on the global executor. It sweeps 1..5 cores
// like the paper, capped at this host's hardware threads — rows past them
// would only measure oversubscription. See README.md, "Reproducing the
// paper".
#include <algorithm>
#include <thread>

#include "bench_common.h"
#include "util/cancel.h"
#include "util/timer.h"

namespace htd::bench {
namespace {

int Main() {
  RunConfig config = RunConfig::FromEnv();
  CorpusConfig corpus_config;
  corpus_config.scale = CorpusScaleFromEnv();
  std::vector<Instance> corpus = BuildHyperBenchLikeCorpus(corpus_config);
  PrintPreamble("Figure 1: scaling with the number of cores (HB_large)", config,
                corpus.size(), /*sweeps_threads=*/true);
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  const int max_threads = std::clamp(hardware, 1, 5);
  std::printf("wall clock on real threads: cores 1..%d (host reports %d)\n\n",
              max_threads, hardware);

  // Pre-pass: determine widths (hybrid, sequential) to select HB_large.
  std::vector<int> widths(corpus.size(), -1);
  {
    RunConfig prepass = config;
    prepass.num_threads = 1;
    for (size_t i = 0; i < corpus.size(); ++i) {
      if (corpus[i].graph.num_edges() <= 50) continue;
      RunRecord record =
          RunOptimalWithTimeout(HybridFactory(), corpus[i].graph, prepass);
      if (record.solved) widths[i] = record.width;
    }
  }
  std::vector<int> selected = SelectLargeSubset(corpus, widths);
  std::printf("HB_large analogue: %zu instances (|E| > 50, hw <= 6)\n\n",
              selected.size());

  struct MethodSpec {
    const char* name;
    SolverFactory factory;
  };
  const std::vector<MethodSpec> methods = {
      {"log-k", LogKFactory()},
      {"log-k (Hybrid)", HybridFactory()},
  };

  TextTable table;
  table.AddRow({"method", "cores", "avg wall (ms)", "speedup",
                "timeouts (all runs)"});
  for (const MethodSpec& method : methods) {
    // The paper averages only over instances that never time out for any n.
    std::vector<bool> always_solved(selected.size(), true);
    std::vector<std::vector<double>> wall_per_inst(
        selected.size(), std::vector<double>(max_threads + 1, 0.0));
    int timeouts = 0;

    for (int threads = 1; threads <= max_threads; ++threads) {
      for (size_t s = 0; s < selected.size(); ++s) {
        const Instance& instance = corpus[selected[s]];
        util::CancelToken cancel;
        cancel.SetTimeout(std::chrono::duration<double>(config.timeout_seconds));
        SolveOptions options;
        options.cancel = &cancel;
        options.num_threads = threads;
        std::unique_ptr<HdSolver> solver = method.factory(options);
        util::WallTimer timer;
        OptimalRun run = FindOptimalWidth(*solver, instance.graph, config.max_width);
        double seconds = timer.ElapsedSeconds();
        if (run.outcome != Outcome::kYes) {
          always_solved[s] = false;
          ++timeouts;
          continue;
        }
        wall_per_inst[s][threads] = seconds;
      }
    }
    double base_wall = 0.0;
    for (int threads = 1; threads <= max_threads; ++threads) {
      util::RunningStats wall_stats;
      for (size_t s = 0; s < selected.size(); ++s) {
        if (always_solved[s]) wall_stats.Add(wall_per_inst[s][threads]);
      }
      if (threads == 1) base_wall = wall_stats.Mean();
      double speedup = wall_stats.Mean() > 0 ? base_wall / wall_stats.Mean() : 1.0;
      table.AddRow({method.name, std::to_string(threads),
                    Fmt1(wall_stats.Mean() * 1000), Fmt1(speedup) + "x",
                    std::to_string(timeouts)});
    }
  }

  // Reference: single-core NewDetKDecomp on the same subset.
  {
    RunConfig sequential = config;
    sequential.num_threads = 1;
    util::RunningStats stats;
    int timeouts = 0;
    for (int index : selected) {
      RunRecord record =
          RunOptimalWithTimeout(DetKFactory(), corpus[index].graph, sequential);
      if (record.solved) {
        stats.Add(record.seconds);
      } else {
        ++timeouts;
      }
    }
    table.AddRow({"NewDetKDecomp", "1", Fmt1(stats.Mean() * 1000), "1.0x",
                  std::to_string(timeouts)});
  }
  std::printf("%s\n", table.Render().c_str());
  return 0;
}

}  // namespace
}  // namespace htd::bench

int main() { return htd::bench::Main(); }
