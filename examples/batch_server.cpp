// batch_server: drive the DecompositionService over a directory or manifest
// of hypergraph instances at configurable concurrency.
//
// DEPRECATED as a serving path: the one server code path is now
// tools/hdserver.cc — the out-of-process HTTP front-end with admission
// control and warm-state persistence (docs/SERVER.md). This example remains
// as an in-process *batch driver* (load a corpus, submit it as batches,
// print throughput); anything that should accept work from other processes
// belongs on hdserver.
//
//   $ ./build/batch_server --corpus                 # built-in synthetic corpus
//   $ ./build/batch_server --dir instances/ --k 3 --workers 8 --passes 2
//   $ ./build/batch_server --manifest jobs.txt --solver hybrid --timeout 5
//
// A manifest is one instance file path per line ('#' comments allowed).
// Instances are parsed with the auto-detecting parser (HyperBench and PACE
// formats). Every pass submits the full set as one batch; with --passes 2
// (the default) the second pass demonstrates the result cache: identical
// instances — even renamed ones — are served from memory without a solve.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "benchlib/corpus.h"
#include "hypergraph/parser.h"
#include "service/service.h"
#include "util/executor.h"
#include "util/timer.h"

namespace {

struct Args {
  std::string dir;
  std::string manifest;
  bool use_corpus = false;
  int k = 3;
  int workers = 4;
  int solve_threads = 1;
  int passes = 2;
  double timeout_seconds = 10.0;
  std::string solver = "logk";
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--dir PATH | --manifest FILE | --corpus) [options]\n"
      "  --k N            decision width per job (default 3)\n"
      "  --workers N      executor worker threads (default 4)\n"
      "  --threads N      intra-solve threads per job (default 1)\n"
      "  --passes N       times to submit the full set (default 2)\n"
      "  --timeout SECS   per-job deadline, 0 = none (default 10)\n"
      "  --solver NAME    logk | logk-basic | detk | hybrid | balsep-ghd\n",
      argv0);
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--dir") {
      const char* v = next("--dir");
      if (v == nullptr) return false;
      args.dir = v;
    } else if (flag == "--manifest") {
      const char* v = next("--manifest");
      if (v == nullptr) return false;
      args.manifest = v;
    } else if (flag == "--corpus") {
      args.use_corpus = true;
    } else if (flag == "--k") {
      const char* v = next("--k");
      if (v == nullptr) return false;
      args.k = std::atoi(v);
    } else if (flag == "--workers") {
      const char* v = next("--workers");
      if (v == nullptr) return false;
      args.workers = std::atoi(v);
    } else if (flag == "--threads") {
      const char* v = next("--threads");
      if (v == nullptr) return false;
      args.solve_threads = std::atoi(v);
    } else if (flag == "--passes") {
      const char* v = next("--passes");
      if (v == nullptr) return false;
      args.passes = std::atoi(v);
    } else if (flag == "--timeout") {
      const char* v = next("--timeout");
      if (v == nullptr) return false;
      args.timeout_seconds = std::atof(v);
    } else if (flag == "--solver") {
      const char* v = next("--solver");
      if (v == nullptr) return false;
      args.solver = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  int sources = (!args.dir.empty() ? 1 : 0) + (!args.manifest.empty() ? 1 : 0) +
                (args.use_corpus ? 1 : 0);
  if (sources != 1 || args.k < 1 || args.workers < 1 || args.passes < 1) {
    return false;
  }
  return true;
}

struct NamedInstance {
  std::string name;
  htd::Hypergraph graph;
};

bool LoadFile(const std::string& path, std::vector<NamedInstance>& out) {
  auto parsed = htd::ParseFile(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "skipping %s: %s\n", path.c_str(),
                 parsed.status().message().c_str());
    return false;
  }
  out.push_back(NamedInstance{path, std::move(*parsed)});
  return true;
}

std::vector<NamedInstance> LoadInstances(const Args& args) {
  std::vector<NamedInstance> instances;
  if (args.use_corpus) {
    for (auto& instance : htd::bench::BuildHyperBenchLikeCorpus()) {
      instances.push_back(
          NamedInstance{instance.name, std::move(instance.graph)});
    }
  } else if (!args.dir.empty()) {
    std::error_code ec;
    std::filesystem::directory_iterator dir_it(args.dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot read directory %s: %s\n", args.dir.c_str(),
                   ec.message().c_str());
      return instances;
    }
    std::vector<std::string> paths;
    for (const auto& entry : dir_it) {
      if (entry.is_regular_file()) paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string& path : paths) LoadFile(path, instances);
  } else {
    std::ifstream manifest(args.manifest);
    if (!manifest) {
      std::fprintf(stderr, "cannot open manifest %s\n", args.manifest.c_str());
      return instances;
    }
    std::string line;
    while (std::getline(manifest, line)) {
      size_t start = line.find_first_not_of(" \t");
      if (start == std::string::npos || line[start] == '#') continue;
      size_t end = line.find_last_not_of(" \t\r");
      LoadFile(line.substr(start, end - start + 1), instances);
    }
  }
  return instances;
}

const char* OutcomeName(htd::Outcome outcome) {
  switch (outcome) {
    case htd::Outcome::kYes:
      return "yes";
    case htd::Outcome::kNo:
      return "no";
    case htd::Outcome::kCancelled:
      return "cancelled";
    case htd::Outcome::kError:
      return "error";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    Usage(argv[0]);
    return 2;
  }

  std::vector<NamedInstance> instances = LoadInstances(args);
  if (instances.empty()) {
    std::fprintf(stderr, "no instances loaded\n");
    return 1;
  }

  // Size the process-wide executor before anything touches it: every solve
  // the service runs lands there.
  htd::util::Executor::InitGlobal(args.workers);
  htd::service::ServiceOptions options;
  options.solver_name = args.solver;
  options.solve.num_threads = args.solve_threads;
  options.cache_capacity = 4 * instances.size();
  auto service = htd::service::DecompositionService::Create(options);
  if (!service.ok()) {
    std::fprintf(stderr, "%s\n", service.status().message().c_str());
    return 2;
  }

  std::printf("batch_server: %zu instances, k = %d, solver = %s, %d workers\n",
              instances.size(), args.k, args.solver.c_str(), args.workers);
  std::fprintf(stderr,
               "note: batch_server is an in-process batch driver; the network "
               "server is ./build/hdserver (docs/SERVER.md)\n");

  uint64_t last_hits = 0;
  uint64_t last_joins = 0;
  for (int pass = 1; pass <= args.passes; ++pass) {
    std::vector<htd::service::JobSpec> specs;
    specs.reserve(instances.size());
    for (const NamedInstance& instance : instances) {
      htd::service::JobSpec spec;
      spec.graph = &instance.graph;
      spec.k = args.k;
      spec.timeout_seconds = args.timeout_seconds;
      specs.push_back(spec);
    }
    htd::util::WallTimer timer;
    auto futures = (*service)->SubmitBatch(specs);
    int counts[4] = {0, 0, 0, 0};
    for (auto& future : futures) {
      htd::service::JobResult job = future.get();
      counts[static_cast<int>(job.result.outcome)]++;
    }
    double seconds = timer.ElapsedSeconds();

    auto scheduler_stats = (*service)->scheduler_stats();
    uint64_t pass_hits = scheduler_stats.cache_hits - last_hits;
    uint64_t pass_joins = scheduler_stats.dedup_joins - last_joins;
    last_hits = scheduler_stats.cache_hits;
    last_joins = scheduler_stats.dedup_joins;

    std::printf(
        "pass %d: %zu jobs in %.3fs (%.1f jobs/s) | yes %d, no %d, "
        "cancelled %d, error %d | cache hits %llu, dedup joins %llu\n",
        pass, instances.size(), seconds,
        seconds > 0 ? instances.size() / seconds : 0.0,
        counts[static_cast<int>(htd::Outcome::kYes)],
        counts[static_cast<int>(htd::Outcome::kNo)],
        counts[static_cast<int>(htd::Outcome::kCancelled)],
        counts[static_cast<int>(htd::Outcome::kError)],
        static_cast<unsigned long long>(pass_hits),
        static_cast<unsigned long long>(pass_joins));
  }

  auto cache_stats = (*service)->cache_stats();
  std::printf(
      "cache: %zu/%zu entries, %llu hits, %llu misses, %llu evictions\n",
      cache_stats.entries, cache_stats.capacity,
      static_cast<unsigned long long>(cache_stats.hits),
      static_cast<unsigned long long>(cache_stats.misses),
      static_cast<unsigned long long>(cache_stats.evictions));
  return 0;
}
