// solve-corpus: the paper's optimal-width protocol over the seeded,
// stratified HyperBench-like corpus, solver "logk" at the service's
// shipping width (num_threads = 0: as wide as the executor).
//
// Solved rule: an instance counts as solved only if FindOptimalWidth
// proves the optimum before the instance's deadline. A `yes` returned when
// the deadline fires is unsolved and counted at the deadline — this is
// where the parallel search's stall shows, and no instance is dropped or
// reseeded for stalling.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "benchlib/corpus.h"
#include "core/solver_factory.h"
#include "decomp/validation.h"
#include "hypergraph/writer.h"
#include "spans.h"
#include "stats.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kDeadlineS = 0.25;  ///< per-instance deadline
constexpr int kMaxWidth = 10;        ///< the paper probes widths 1..10
constexpr double kSgmShiftMs = 10.0;
/// Corpus replication (benchlib CorpusConfig::scale): three draws of every
/// random family per pass, so a run's figures rest on more distinct
/// instances instead of repeating one draw.
constexpr int kCorpusScale = 3;
/// Set-ups per run (setup_s is their median), half before the passes and
/// half after them. Back-to-back set-ups all see the host in one state, and
/// on a shared VM that state moved this 15 ms set-up by up to 2x between
/// runs.
constexpr int kSetupReps = 16;

struct Probe {
  int k = 0;
  htd::Outcome outcome = htd::Outcome::kCancelled;
  double end_s = 0.0;  ///< since the instance started (its deadline clock)
  htd::SolveStats stats;
  double seconds = 0.0;
};

/// Forwards Solve(k) to the real solver and records each probe (and, when
/// traced, a span per probe under the instance span).
class ProbeRecorder : public htd::HdSolver {
 public:
  ProbeRecorder(std::unique_ptr<htd::HdSolver> inner, Clock::time_point start,
                SpanLog* log, uint64_t instance_span)
      : inner_(std::move(inner)), start_(start), log_(log),
        instance_span_(instance_span) {}

  htd::SolveResult Solve(const htd::Hypergraph& graph, int k) override {
    const Clock::time_point t0 = Clock::now();
    htd::SolveResult result = inner_->Solve(graph, k);
    const Clock::time_point t1 = Clock::now();
    if (log_ != nullptr) {
      log_->Add(log_->NextId(), instance_span_, instance_span_,
                "core.solve_k" + std::to_string(k), t0, t1);
    }
    probes.push_back(Probe{k, result.outcome,
                           std::chrono::duration<double>(t1 - start_).count(),
                           result.stats,
                           std::chrono::duration<double>(t1 - t0).count()});
    return result;
  }
  std::string name() const override { return inner_->name(); }

  std::vector<Probe> probes;

 private:
  std::unique_ptr<htd::HdSolver> inner_;
  Clock::time_point start_;
  SpanLog* log_;
  uint64_t instance_span_;
};

const char* OutcomeLabel(htd::Outcome outcome) {
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

struct InstanceRun {
  int index = 0;
  int pass = 0;
  bool solved = false;
  double seconds = 0.0;
  htd::OptimalRun run;
  std::vector<Probe> probes;
};

/// Aggregates of one phase (untraced or traced) of passes.
struct Phase {
  std::vector<InstanceRun> runs;
  int passes = 0;
  double wall_s = 0.0;
};

Phase RunPasses(const std::vector<htd::bench::Instance>& corpus,
                const htd::SolverFactoryFn& factory, uint64_t seed, double budget_s,
                int first_pass, SpanLog* log) {
  Phase phase;
  const Clock::time_point phase_start = Clock::now();
  double last_pass_s = 0.0;
  // Whole passes only: start another while it is expected to end within
  // half a pass of the budget, so the pass count is the budget over the pass
  // time, rounded, and does not flip on a budget that is a multiple of it.
  while (phase.passes == 0 || phase.wall_s + last_pass_s / 2 <= budget_s) {
    const int pass = first_pass + phase.passes;
    std::vector<int> order(corpus.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    htd::util::Rng rng(seed * 1000003 + static_cast<uint64_t>(pass));
    rng.Shuffle(order);
    const Clock::time_point pass_start = Clock::now();
    for (int index : order) {
      const htd::bench::Instance& instance = corpus[index];
      htd::util::CancelToken cancel;
      htd::SolveOptions options;
      options.num_threads = 0;
      options.cancel = &cancel;
      const uint64_t span = log != nullptr ? log->NextId() : 0;
      const Clock::time_point start = Clock::now();
      cancel.SetTimeout(std::chrono::duration<double>(kDeadlineS));
      ProbeRecorder recorder(factory(options), start, log, span);
      InstanceRun record;
      record.index = index;
      record.pass = pass;
      record.run = htd::FindOptimalWidth(recorder, instance.graph, kMaxWidth);
      const Clock::time_point end = Clock::now();
      record.seconds = std::chrono::duration<double>(end - start).count();
      record.solved =
          record.run.outcome == htd::Outcome::kYes && record.seconds < kDeadlineS;
      record.probes = std::move(recorder.probes);
      if (log != nullptr) log->Add(span, 0, span, "corpus.instance", start, end);
      phase.runs.push_back(std::move(record));
    }
    last_pass_s = std::chrono::duration<double>(Clock::now() - pass_start).count();
    ++phase.passes;
    phase.wall_s = std::chrono::duration<double>(Clock::now() - phase_start).count();
  }
  return phase;
}

/// Censored shifted geometric mean and censored arithmetic mean (unsolved
/// items at the deadline) of time to optimal width, in ms, over the runs
/// whose instance passes `keep`.
struct Times {
  double sgm_ms = 0.0;
  double mean_ms = 0.0;
};
template <typename Keep>
Times PhaseTimes(const std::vector<htd::bench::Instance>& corpus, const Phase& phase,
                 Keep keep) {
  std::vector<double> times;
  std::vector<bool> solved;
  double sum = 0.0;
  for (const InstanceRun& r : phase.runs) {
    if (!keep(corpus[r.index])) continue;
    times.push_back(r.seconds * 1e3);
    solved.push_back(r.solved);
    sum += r.solved ? r.seconds * 1e3 : kDeadlineS * 1e3;
  }
  Times t;
  t.sgm_ms = CensoredShiftedGeoMean(times, solved, kDeadlineS * 1e3, kSgmShiftMs);
  t.mean_ms = times.empty() ? 0.0 : sum / static_cast<double>(times.size());
  return t;
}

bool AnyOrigin(const htd::bench::Instance&) { return true; }
bool Synthetic(const htd::bench::Instance& instance) {
  return instance.origin == htd::bench::Origin::kSynthetic;
}

/// Mean solved count per pass.
double PhaseSolved(const Phase& phase) {
  long solved = 0;
  for (const InstanceRun& r : phase.runs) solved += r.solved ? 1 : 0;
  return static_cast<double>(solved) / std::max(1, phase.passes);
}

/// Checks every answer; the first width seen per instance is the reference
/// for its later passes.
void CheckAnswers(const std::vector<htd::bench::Instance>& corpus, const Phase& phase,
                  std::map<int, int>* widths, RunResult* result) {
  for (const InstanceRun& r : phase.runs) {
    const htd::bench::Instance& instance = corpus[r.index];
    ++result->attempted;
    const htd::OptimalRun& run = r.run;
    if (run.outcome == htd::Outcome::kError) {
      ++result->failed;
      result->WrongAnswer(instance.name + ": solver error");
      continue;
    }
    if (run.outcome == htd::Outcome::kNo && instance.known_width.has_value()) {
      result->WrongAnswer(instance.name + ": no HD of width <= 10, known width " +
                          std::to_string(*instance.known_width));
    }
    if (run.outcome != htd::Outcome::kYes) continue;
    if (!run.decomposition.has_value()) {
      result->WrongAnswer(instance.name + ": yes without a decomposition");
      continue;
    }
    htd::Validation valid =
        htd::ValidateHdWithWidth(instance.graph, *run.decomposition, run.width);
    if (!valid) {
      result->WrongAnswer(instance.name + ": invalid HD: " + valid.error);
    }
    if (instance.known_width.has_value() && run.width != *instance.known_width) {
      result->WrongAnswer(instance.name + ": width " + std::to_string(run.width) +
                          ", known width " + std::to_string(*instance.known_width));
    }
    auto [it, inserted] = widths->emplace(r.index, run.width);
    if (!inserted && it->second != run.width) {
      result->WrongAnswer(instance.name + ": width " + std::to_string(run.width) +
                          " differs from an earlier pass's " +
                          std::to_string(it->second));
    }
  }
}

void WriteRecords(const std::vector<htd::bench::Instance>& corpus, const Phase& phase,
                  const char* label, Json* json) {
  json->Key(label);
  json->BeginArray();
  for (const InstanceRun& r : phase.runs) {
    const htd::bench::Instance& instance = corpus[r.index];
    json->Begin();
    json->Field("name", instance.name);
    json->Field("origin", htd::bench::OriginName(instance.origin));
    json->Field("edges", instance.graph.num_edges());
    json->Field("pass", r.pass);
    json->Field("outcome", r.solved ? "solved"
                           : r.run.outcome == htd::Outcome::kYes
                               ? "yes_at_deadline"
                               : OutcomeLabel(r.run.outcome));
    json->Field("width", r.run.width);
    json->Field("seconds", r.seconds);
    const htd::SolveStats& s = r.run.stats;
    json->Key("stats");
    json->Begin();
    json->Field("separators_tried", s.separators_tried);
    json->Field("recursive_calls", s.recursive_calls);
    json->Field("max_recursion_depth", s.max_recursion_depth);
    json->Field("work_total", s.work_total);
    json->Field("work_parallel", s.work_parallel);
    json->End();
    json->Key("probes");
    json->BeginArray();
    for (const Probe& p : r.probes) {
      json->Begin();
      json->Field("k", p.k);
      json->Field("outcome", OutcomeLabel(p.outcome));
      json->Field("end_s", p.end_s);
      json->End();
    }
    json->EndArray();
    json->End();
  }
  json->EndArray();
}

}  // namespace

RunResult RunSolveCorpus(const Args& args) {
  RunResult result;
  auto factory = htd::MakeSolverFactory("logk");
  if (!factory.ok()) {
    result.WrongAnswer("solver logk unavailable");
    return result;
  }

  // Set-up, repeated: corpus generation and request-body rendering.
  std::vector<double> setup_s;
  std::vector<htd::bench::Instance> corpus;
  std::vector<std::string> bodies;
  auto set_up = [&](std::vector<htd::bench::Instance>* corpus_out,
                    std::vector<std::string>* bodies_out) {
    const Clock::time_point start = Clock::now();
    htd::bench::CorpusConfig config;
    config.seed = args.seed;
    config.scale = kCorpusScale;
    *corpus_out = htd::bench::BuildHyperBenchLikeCorpus(config);
    bodies_out->clear();
    for (const auto& instance : *corpus_out) {
      bodies_out->push_back(htd::WriteHyperBench(instance.graph));
    }
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - start).count());
  };
  for (int rep = 0; rep < kSetupReps / 2; ++rep) set_up(&corpus, &bodies);

  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  Phase untraced = RunPasses(corpus, *factory, args.seed, untraced_budget, 0, nullptr);
  for (int rep = kSetupReps / 2; rep < kSetupReps; ++rep) {
    std::vector<htd::bench::Instance> timed_corpus;
    std::vector<std::string> timed_bodies;
    set_up(&timed_corpus, &timed_bodies);
  }
  std::map<int, int> widths;
  CheckAnswers(corpus, untraced, &widths, &result);

  const double hw_solved = PhaseSolved(untraced);
  const Times all = PhaseTimes(corpus, untraced, AnyOrigin);
  const Times synthetic = PhaseTimes(corpus, untraced, Synthetic);
  const double hw_sgm_ms = all.sgm_ms;

  Json records;
  records.Begin();
  records.Field("workload", args.workload);
  records.Field("seed", static_cast<long>(args.seed));
  records.Field("deadline_s", kDeadlineS);
  records.Field("instances", static_cast<long>(corpus.size()));
  records.Field("passes", untraced.passes);
  WriteRecords(corpus, untraced, "runs", &records);

  result.named = {{"hw_solved", hw_solved, "count"},
                  {"hw_sgm_ms", hw_sgm_ms, "ms"},
                  {"hw_mean_ms", all.mean_ms, "ms"},
                  {"synthetic_sgm_ms", synthetic.sgm_ms, "ms"},
                  {"synthetic_mean_ms", synthetic.mean_ms, "ms"},
                  {"hw_instances", static_cast<double>(corpus.size()), "count"}};
  if (!args.trace) {
    result.end_to_end = {
        {"setup_s", Median(setup_s), "s"},
        {"success_frac", hw_solved / static_cast<double>(corpus.size()), "share"},
        {"a_ms", all.sgm_ms, "ms"},
        {"b_ms", all.mean_ms, "ms"},
    };
  } else {
    SpanLog log;
    ExecutorSampler sampler(htd::util::Executor::Global());
    Phase traced = RunPasses(corpus, *factory, args.seed, args.seconds / 2,
                             untraced.passes, &log);
    const double busy = sampler.Stop();
    CheckAnswers(corpus, traced, &widths, &result);
    WriteRecords(corpus, traced, "traced_runs", &records);

    LayerValues layer;
    double solve_s = 0.0, work_total = 0.0, work_parallel = 0.0, depth_ratio = 0.0;
    long separators = 0, calls = 0, yes_at_deadline = 0;
    for (const InstanceRun& r : traced.runs) {
      const int edges = corpus[r.index].graph.num_edges();
      const double log_e = std::max(1.0, std::ceil(std::log2(std::max(2, edges))));
      for (const Probe& p : r.probes) {
        separators += p.stats.separators_tried;
        calls += p.stats.recursive_calls;
        work_total += static_cast<double>(p.stats.work_total);
        work_parallel += static_cast<double>(p.stats.work_parallel);
        depth_ratio = std::max(depth_ratio, p.stats.max_recursion_depth / log_e);
        solve_s += p.seconds;
        if (p.outcome == htd::Outcome::kYes && p.end_s >= 0.95 * kDeadlineS) {
          ++yes_at_deadline;
        }
      }
    }
    std::vector<const htd::Hypergraph*> graphs;
    for (const auto& instance : corpus) graphs.push_back(&instance.graph);
    std::vector<const std::string*> body_ptrs;
    for (const auto& body : bodies) body_ptrs.push_back(&body);
    const double split_ns = Median(SplitSamplesNs(graphs, args.seed, 2000));
    const std::vector<double> fp_us = FingerprintSamplesUs(graphs, 1000);

    layer["core.separators_tried"] = separators;
    layer["core.recursive_calls"] = calls;
    layer["core.yes_at_deadline"] = yes_at_deadline;
    layer["core.par_speedup_est"] = work_parallel > 0 ? work_total / work_parallel : 0;
    layer["core.depth_ratio_max"] = depth_ratio;
    layer["decomp.split_ns_p50"] = split_ns;
    // Separators are tried on every executor worker at once, so the split
    // time is set against the probes' worker-seconds, not their wall time.
    const int workers = htd::util::Executor::Global().num_workers();
    layer["decomp.split_share_est"] =
        solve_s > 0 ? separators * split_ns * 1e-9 / (solve_s * workers) : 0;
    layer["hypergraph.parse_us_p50"] = Median(ParseSamplesUs(body_ptrs, 1000));
    layer["canonical.fp_us_p50"] = Percentile(fp_us, 0.5);
    layer["canonical.fp_us_p99"] = Percentile(fp_us, 0.99);
    layer["executor.busy_frac"] = busy;
    layer["executor.steals"] = static_cast<double>(sampler.steals());
    const double traced_sgm = PhaseTimes(corpus, traced, AnyOrigin).sgm_ms;
    layer["trace.overhead_frac"] = hw_sgm_ms > 0 ? traced_sgm / hw_sgm_ms : 0;
    result.per_layer = PerLayerMetrics(layer);

    WriteSpanRecords(args, log, &records, &result);
  }
  records.Key("summary");
  records.Begin();
  records.Field("hw_solved_per_pass", hw_solved);
  records.Field("hw_sgm_ms", hw_sgm_ms);
  records.Field("mean_ms", all.mean_ms);
  records.Field("synthetic_sgm_ms", synthetic.sgm_ms);
  records.Field("synthetic_mean_ms", synthetic.mean_ms);
  records.End();
  records.End();
  result.records = records.str();
  return result;
}

}  // namespace perfbench
