#include <chrono>

#include "decomp/components.h"
#include "decomp/extended_subhypergraph.h"
#include "decomp/special_edges.h"
#include "hypergraph/parser.h"
#include "service/canonical.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

const std::vector<LayerSpec> kPerLayer = {
    {"core.separators_tried", "count"},
    {"core.recursive_calls", "count"},
    {"core.yes_at_deadline", "count"},
    {"core.par_speedup_est", "x"},
    {"core.depth_ratio_max", "x"},
    {"decomp.split_ns_p50", "ns"},
    {"decomp.split_share_est", "share"},
    {"hypergraph.parse_us_p50", "us"},
    {"canonical.fp_us_p50", "us"},
    {"canonical.fp_us_p99", "us"},
    {"service.fingerprint_ms_p50", "ms"},
    {"service.cache_ms_p50", "ms"},
    {"service.solve_ms_p50", "ms"},
    {"service.schedule_ms_p99", "ms"},
    {"service.hit_ratio", "share"},
    {"service.hit_not_remapped_frac", "share"},
    {"service.dedup_joins", "count"},
    {"service.solves", "count"},
    {"executor.busy_frac", "share"},
    {"executor.steals", "count"},
    {"server.residual_ms_p50", "ms"},
    {"server.residual_ms_p99", "ms"},
    {"server.shed", "count"},
    {"router.handle_ms_p50", "ms"},
    {"router.hop_ms_p50", "ms"},
    {"router.hop_ms_p99", "ms"},
    {"router.transport_errors", "count"},
    {"client.late_p99_ms", "ms"},
    {"trace.overhead_frac", "x"},
};

std::vector<Metric> PerLayerMetrics(const LayerValues& values) {
  std::vector<Metric> metrics;
  for (const LayerSpec& spec : kPerLayer) {
    auto it = values.find(spec.name);
    metrics.push_back(Metric{spec.name, it == values.end() ? 0.0 : it->second, spec.unit});
  }
  return metrics;
}

namespace {

using Clock = std::chrono::steady_clock;

double Elapsed(Clock::time_point start, double scale) {
  return std::chrono::duration<double>(Clock::now() - start).count() * scale;
}

}  // namespace

std::vector<double> SplitSamplesNs(const std::vector<const htd::Hypergraph*>& graphs,
                                   uint64_t seed, size_t min_samples) {
  std::vector<double> samples;
  if (graphs.empty()) return samples;
  htd::util::Rng rng(seed);
  size_t volatile sink = 0;
  while (samples.size() < min_samples) {
    for (const htd::Hypergraph* graph : graphs) {
      const htd::SpecialEdgeRegistry registry(graph->num_vertices());
      const htd::ExtendedSubhypergraph full =
          htd::ExtendedSubhypergraph::FullGraph(*graph);
      std::vector<int> lambda;
      const int size = rng.UniformInt(1, std::min(3, graph->num_edges()));
      for (int i = 0; i < size; ++i) {
        lambda.push_back(rng.UniformInt(0, graph->num_edges() - 1));
      }
      const htd::util::DynamicBitset separator = graph->UnionOfEdges(lambda);
      const Clock::time_point start = Clock::now();
      htd::ComponentSplit split = htd::SplitComponents(*graph, registry, full, separator);
      samples.push_back(Elapsed(start, 1e9));
      sink = sink + split.components.size();
    }
  }
  return samples;
}

std::vector<double> ParseSamplesUs(const std::vector<const std::string*>& bodies,
                                   size_t min_samples) {
  std::vector<double> samples;
  if (bodies.empty()) return samples;
  size_t volatile sink = 0;
  while (samples.size() < min_samples) {
    for (const std::string* body : bodies) {
      const Clock::time_point start = Clock::now();
      auto parsed = htd::ParseHyperBench(*body);
      samples.push_back(Elapsed(start, 1e6));
      sink = sink + (parsed.ok() ? parsed->num_edges() : 0);
    }
  }
  return samples;
}

std::vector<double> FingerprintSamplesUs(
    const std::vector<const htd::Hypergraph*>& graphs, size_t min_samples) {
  std::vector<double> samples;
  if (graphs.empty()) return samples;
  uint64_t volatile sink = 0;
  while (samples.size() < min_samples) {
    for (const htd::Hypergraph* graph : graphs) {
      const Clock::time_point start = Clock::now();
      const htd::service::Fingerprint fp = htd::service::CanonicalFingerprint(*graph);
      samples.push_back(Elapsed(start, 1e6));
      sink = sink + fp.hi;
    }
  }
  return samples;
}

void WriteSpanRecords(const Args& args, const SpanLog& log, Json* records,
                      RunResult* result) {
  const std::string path = std::string(kOutDir) + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-spans.jsonl";
  if (!log.WriteJsonLines(path)) result->WrongAnswer("cannot write " + path);
  records->Field("spans_file", path);
  records->Key("self_time_ms");
  records->Begin();
  for (const auto& [name, self] : log.SelfTimes()) {
    records->Key(name);
    records->Begin();
    records->Field("total", self.total_ms);
    records->Field("count", self.count);
    records->End();
  }
  records->End();
}

ExecutorSampler::ExecutorSampler(htd::util::Executor& executor)
    : executor_(executor), steals_at_start_(executor.steals_total()) {
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      busy_sum_ += static_cast<double>(executor_.workers_busy()) /
                   std::max(1, executor_.num_workers());
      ++samples_;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

ExecutorSampler::~ExecutorSampler() { Stop(); }

double ExecutorSampler::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  return samples_ > 0 ? busy_sum_ / static_cast<double>(samples_) : 0.0;
}

uint64_t ExecutorSampler::steals() const {
  return executor_.steals_total() - steals_at_start_;
}

}  // namespace perfbench
