// The three workloads and the helpers they share.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "report.h"
#include "spans.h"
#include "util/executor.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;  ///< required: BENCHMARK.json's run_seconds
  bool trace = false;
};

/// Per-item records and span logs go here, relative to the working
/// directory (the repository root).
constexpr char kOutDir[] = ".bench_out";

/// Untraced (--trace 0): the whole window measures end-to-end metrics.
/// Traced (--trace 1): the first half runs untraced as the overhead
/// reference, the second half with spans on; per-layer metrics come from
/// the traced half.
RunResult RunSolveCorpus(const Args& args);
RunResult RunServeWarm(const Args& args);
RunResult RunServeMixed(const Args& args);

/// Per-layer metric values by name; names absent from a workload report 0
/// (the layer is not on that workload's path). kPerLayer fixes order/units.
using LayerValues = std::map<std::string, double>;
struct LayerSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<LayerSpec> kPerLayer;
std::vector<Metric> PerLayerMetrics(const LayerValues& values);

/// Direct probes of single layers on a workload's own inputs.
/// Nanoseconds per SplitComponents call on `graphs` with random separators
/// (unions of 1..3 random edges); returns all samples.
std::vector<double> SplitSamplesNs(const std::vector<const htd::Hypergraph*>& graphs,
                                   uint64_t seed, size_t min_samples);
/// Microseconds per ParseHyperBench call, cycling over `bodies`.
std::vector<double> ParseSamplesUs(const std::vector<const std::string*>& bodies,
                                   size_t min_samples);
/// Microseconds per CanonicalFingerprint call, cycling over `graphs`.
std::vector<double> FingerprintSamplesUs(
    const std::vector<const htd::Hypergraph*>& graphs, size_t min_samples);

/// Writes the span log as JSON lines next to the run's records and adds
/// the file name and per-span-name self times to `records`.
void WriteSpanRecords(const Args& args, const SpanLog& log, Json* records,
                      RunResult* result);

/// Samples workers_busy() / num_workers() every millisecond while alive.
class ExecutorSampler {
 public:
  explicit ExecutorSampler(htd::util::Executor& executor);
  ~ExecutorSampler();
  ExecutorSampler(const ExecutorSampler&) = delete;
  ExecutorSampler& operator=(const ExecutorSampler&) = delete;

  /// Stops sampling; returns the mean busy fraction.
  double Stop();
  /// steals_total() growth since construction.
  uint64_t steals() const;

 private:
  htd::util::Executor& executor_;
  const uint64_t steals_at_start_;
  std::atomic<bool> stop_{false};
  double busy_sum_ = 0.0;  // written by thread_ only, read after join
  long samples_ = 0;
  std::thread thread_;
};

}  // namespace perfbench
