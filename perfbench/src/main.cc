// perfbench: the repository's benchmark harness (see perfbench/README.md).
//
//   perfbench --workload solve-corpus|serve-warm|serve-mixed --seed N
//             --seconds S --trace 0|1
//   perfbench --selfcheck
//
// Prints one "<workload> <name> = <value> <unit>" line per workload-named
// metric (hw_solved, hit_p50_ms, ...), one "metric <name> = <value> <unit>"
// line per reported metric, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}.
// Per-item records go to .bench_out/<workload>-seed<N>-trace<T>.json.
// Exits 1 on any wrong answer, 2 on bad arguments, 3 when a self-check
// fails, 4 when an end-to-end metric has too few samples to be reported.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "report.h"
#include "stats.h"
#include "util/executor.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload solve-corpus|serve-warm|serve-mixed "
               "--seed N --seconds S --trace 0|1\n"
               "       perfbench --selfcheck\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool selfcheck_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selfcheck") {
      selfcheck_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return Usage();
    }
  }

  std::string error;
  if (!perfbench::RunSelfChecks(&error)) {
    std::fprintf(stderr, "perfbench: self-check failed: %s\n", error.c_str());
    return 3;
  }
  if (selfcheck_only) {
    std::printf("perfbench: self-checks passed\n");
    return 0;
  }
  if (args.seconds <= 0) return Usage();

  // Executor width = nproc, as hdserver sizes it (--workers).
  const int nproc = std::max(1u, std::thread::hardware_concurrency());
  htd::util::Executor::InitGlobal(nproc);

  perfbench::RunResult result;
  if (args.workload == "solve-corpus") {
    result = perfbench::RunSolveCorpus(args);
  } else if (args.workload == "serve-warm") {
    result = perfbench::RunServeWarm(args);
  } else if (args.workload == "serve-mixed") {
    result = perfbench::RunServeMixed(args);
  } else {
    return Usage();
  }

  const std::string records_path = std::string(perfbench::kOutDir) + "/" +
                                   args.workload + "-seed" + std::to_string(args.seed) +
                                   "-trace" + (args.trace ? "1" : "0") + ".json";
  std::ofstream(records_path) << result.records << '\n';
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "perfbench: WRONG ANSWER: %s\n", e.c_str());
  }

  if (!result.unmeasured.empty()) {
    for (const std::string& what : result.unmeasured) {
      std::fprintf(stderr, "perfbench: not measured: %s\n", what.c_str());
    }
    return 4;
  }

  for (const perfbench::Metric& m : result.named) {
    std::printf("%s %s = %.6g %s\n", args.workload.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const auto& metrics = args.trace ? result.per_layer : result.end_to_end;
  perfbench::Json json;
  json.Begin();
  json.Field("correct", result.correct);
  json.Field("attempted", result.attempted);
  json.Field("failed", result.failed);
  json.Key("metrics");
  json.Begin();
  for (const perfbench::Metric& m : metrics) {
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    json.Key(m.name);
    json.Begin();
    json.Field("value", m.value);
    json.Field("unit", m.unit);
    json.End();
  }
  json.End();
  json.End();
  std::printf("records %s\n%s\n", records_path.c_str(), json.str().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
