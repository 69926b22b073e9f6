// serve-warm and serve-mixed: open-loop traffic against an in-process
// DecompositionServer over loopback, with hdserver's shipping defaults
// (num_threads = 0, store off, default HTTP options) on an executor as
// wide as the machine. serve-warm also fronts the backend with a
// ShardRouter wired exactly as `hdserver --route-to` wires it: an
// HttpServer whose handler calls ShardRouter::Handle.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "client.h"
#include "decomp/decomp_reader.h"
#include "decomp/validation.h"
#include "hypergraph/parser.h"
#include "instances.h"
#include "net/decomposition_server.h"
#include "net/server.h"
#include "net/shard_router.h"
#include "service/canonical.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Set-ups per run (setup_s is their median): serve-warm's takes about
/// 35 ms and is repeated in every segment, serve-mixed's about 1.5 s.
constexpr int kWarmSetupsPerSegment = 2;
constexpr int kMixedSetupReps = 5;
constexpr int kVariants = 8;            ///< isomorphic bodies per warm class
constexpr double kWarmTimeoutS = 10.0;  ///< set-up solves
// serve-warm
constexpr int kWarmClasses = 64;
constexpr double kDirectRate = 220.0;   ///< requests/s straight to the backend
constexpr double kRoutedRate = 220.0;   ///< requests/s through the router
/// The run is this many segments, each on a fresh fleet and fresh client
/// connections; latency percentiles are medians of the segments' own
/// percentiles (stats.h WindowedPercentile). On a shared VM the latency of
/// one fleet moved by up to 1.5x from run to run with where its threads
/// landed; a median over fleets does not follow any one of them.
constexpr int kWarmSegments = 8;
// serve-mixed
constexpr int kMixedSmall = 48;
constexpr int kMixedLarge = 16;
/// Share of warm repeats drawn from each size tier (small CQs, |E| 11..50,
/// |E| 50..200): the median lands among small queries and the p99 inside
/// the large tier (about its 80th percentile, so it rests on several large
/// graphs, not on the single slowest one), where the canonical fingerprint
/// costs milliseconds.
constexpr double kTierShare[3] = {0.8, 0.15, 0.05};
constexpr double kRepeatRate = 150.0;   ///< warm repeats/s
/// Cold work: fresh instances of every family and size (|E| 4..200,
/// log-uniform) plus duplicate bursts, 20 solves/s. At 40 solves/s (enough
/// for 1,000 independent cold samples in 25 s) the cold work outran the
/// executor: the cold median rose to 30-43 ms from queueing and the hit p99
/// spread 0.33-0.47 of itself over five seeds.
constexpr double kFreshRate = 15.0;     ///< fresh instances/s
constexpr double kBurstPeriodS = 0.2;   ///< one duplicate burst per period
/// Copies per duplicate burst, fixed so the cold sample count does not
/// depend on the machine: a 25 s run sends 375 fresh instances and 125
/// bursts, 500 independent solves and 625 cold samples.
constexpr int kBurstCopies = 2;
constexpr double kFreshTimeoutS = 0.1;  ///< per-request timeout= of cold work
/// Tail of the cold class: p95 (625 samples leave 31 beyond it; a p99
/// needs 1,000).
constexpr double kColdTailQ = 0.95;
/// Centre of the cold class: shifted geometric mean (shift 10 ms), as
/// hw_sgm_ms on solve-corpus. Cold latencies spread over three decades
/// (0.5 ms to the 0.1 s timeout), so their median moved 0.2-0.4 of itself
/// from seed to seed; the geometric mean weighs every sample.
constexpr double kColdShiftMs = 10.0;
/// serve-mixed percentiles are taken over the whole run: its slow phases
/// last tens of seconds, so windows did not steady them.
constexpr int kMixedWindows = 1;

/// What the generator sent; replies are classified by this, never by what
/// the server answered.
enum Cls { kDirect = 0, kRouted = 1, kRepeat = 2, kFresh = 3, kDuplicate = 4 };
const char* ClsName(int cls) {
  static const char* names[] = {"direct", "routed", "repeat", "fresh", "duplicate"};
  return names[cls];
}

/// One request body the workload can send, with the isomorphism class its
/// answer must agree with.
struct Item {
  int class_id = 0;
  int k = 2;
  double timeout_s = 30.0;
  std::string body;
  std::string request;
};

struct Expectation {
  std::string outcome;
  int width = -1;
};

std::string FindString(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const size_t at = body.find(needle);
  if (at == std::string::npos) return "";
  const size_t start = at + needle.size();
  return body.substr(start, body.find('"', start) - start);
}

double FindNumber(const std::string& body, const std::string& key, double fallback) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = body.find(needle);
  if (at == std::string::npos) return fallback;
  return std::strtod(body.c_str() + at + needle.size(), nullptr);
}

bool FindBool(const std::string& body, const std::string& key) {
  return body.find("\"" + key + "\": true") != std::string::npos;
}

/// Backend plus (optionally) a router in front of it.
struct Fleet {
  std::unique_ptr<htd::net::DecompositionServer> backend;
  std::unique_ptr<htd::net::ShardRouter> router;
  std::unique_ptr<htd::net::HttpServer> router_http;
  /// Set while the traced phase runs; the router handler records spans.
  std::atomic<SpanLog*> log{nullptr};

  ~Fleet() {
    if (router_http) router_http->Stop();
    if (backend) backend->Stop();
  }
};

std::unique_ptr<Fleet> StartFleet(bool with_router, std::string* error) {
  auto fleet = std::make_unique<Fleet>();
  htd::net::DecompositionServerOptions options;  // hdserver's defaults
  options.http.port = 0;
  options.service.solve.num_threads = 0;
  options.service.default_timeout_seconds = 30.0;
  auto server = htd::net::DecompositionServer::Create(options);
  if (!server.ok()) {
    *error = server.status().message();
    return nullptr;
  }
  fleet->backend = std::move(*server);
  if (auto status = fleet->backend->Start(); !status.ok()) {
    *error = status.message();
    return nullptr;
  }
  if (!with_router) return fleet;
  auto map = htd::service::ShardMap::Parse("127.0.0.1:" +
                                           std::to_string(fleet->backend->port()));
  if (!map.ok()) {
    *error = map.status().message();
    return nullptr;
  }
  fleet->router = std::make_unique<htd::net::ShardRouter>(
      htd::net::ShardRouterOptions{*std::move(map)});
  htd::net::HttpServer::Options http;  // hdserver's defaults
  http.port = 0;
  Fleet* raw = fleet.get();
  fleet->router_http = std::make_unique<htd::net::HttpServer>(
      http, [raw](const htd::net::HttpRequest& request) {
        SpanLog* log = raw->log.load(std::memory_order_acquire);
        if (log == nullptr) return raw->router->Handle(request);
        const Clock::time_point start = Clock::now();
        htd::net::HttpResponse response = raw->router->Handle(request);
        uint64_t parent = 0;
        auto it = request.headers.find("x-perfbench-span");
        if (it != request.headers.end()) parent = std::strtoull(it->second.c_str(), nullptr, 10);
        log->Add(log->NextId(), parent, parent, "router.handle", start, Clock::now());
        return response;
      });
  if (auto status = fleet->router_http->Start(); !status.ok()) {
    *error = status.message();
    return nullptr;
  }
  return fleet;
}

/// Renders `cls` as kVariants isomorphic request items.
void AddVariants(const RequestClass& cls, int class_id, htd::util::Rng& rng,
                 std::vector<Item>* items, std::vector<int>* item_ids) {
  for (int v = 0; v < kVariants; ++v) {
    Item item;
    item.class_id = class_id;
    item.k = cls.k;
    item.body = IsomorphicCopy(cls.graph, rng, std::to_string(class_id) + "_" +
                                                   std::to_string(v) + "_");
    item.request = DecomposeRequest(item.body, item.k, item.timeout_s);
    item_ids->push_back(static_cast<int>(items->size()));
    items->push_back(std::move(item));
  }
}

struct Traffic {
  std::vector<Send> sends;
  std::vector<Pool> pools;
};

struct Phase {
  std::vector<Send> sends;
  std::vector<Reply> replies;
};

Phase RunPhase(const Traffic& traffic, SpanLog* log) {
  Phase phase;
  phase.sends = traffic.sends;
  phase.replies = RunOpenLoop(phase.sends, traffic.pools, log);
  return phase;
}

/// Failure and correctness bookkeeping over replies.
class Checker {
 public:
  /// `expected`: the set-up warm-up's answer per class; `solved`: per
  /// fingerprint, the item whose solve filled the cache entry.
  Checker(const std::vector<Item>& items, std::map<int, Expectation> expected,
          std::map<std::string, int> solved)
      : items_(items), expected_(std::move(expected)), solved_(std::move(solved)) {}

  /// Counts the reply as ok (a 200 with a correct, non-cancelled answer) or
  /// as failed by reason; a wrong answer also fails the run.
  void Check(const Send& send, const Reply& reply, RunResult* result) {
    PerClass& counts = per_class_[send.cls];
    ++counts.sent;
    ++result->attempted;
    std::string reason;
    bool not_remapped = false;
    if (!reply.transport_ok) {
      reason = "transport";
    } else if (reply.status != 200) {
      reason = std::to_string(reply.status);
    } else {
      const std::string outcome = FindString(reply.body, "outcome");
      if (outcome == "cancelled" || outcome == "error") {
        reason = outcome;
      } else if (std::string wrong = CheckAnswer(send, reply, outcome, &not_remapped);
                 !wrong.empty()) {
        reason = "wrong_answer";
        wrong = std::string(ClsName(send.cls)) + " item " + std::to_string(send.item) +
                ": " + wrong;
        if (counts.samples.size() < 3) counts.samples.push_back(wrong);
        result->WrongAnswer(std::move(wrong));
      }
    }
    if (reason.empty()) {
      ++counts.ok;
      if (FindString(reply.body, "outcome") == "yes" && FindBool(reply.body, "cache_hit")) {
        ++counts.yes_hits;
      }
      if (not_remapped) {
        ++counts.not_remapped;
        if (counts.not_remapped_samples.size() < 3) {
          counts.not_remapped_samples.push_back("item " + std::to_string(send.item) + ": " +
                                                reply.body);
        }
      }
      return;
    }
    ++counts.failed[reason];
    ++result->failed;
  }

  void CheckAll(const Phase& phase, RunResult* result) {
    for (size_t i = 0; i < phase.sends.size(); ++i) {
      Check(phase.sends[i], phase.replies[i], result);
    }
  }

  void WriteRecords(Json* json) const {
    json->Key("classes");
    json->Begin();
    for (const auto& [cls, counts] : per_class_) {
      json->Key(ClsName(cls));
      json->Begin();
      json->Field("sent", counts.sent);
      json->Field("ok", counts.ok);
      json->Key("failed");
      json->Begin();
      for (const auto& [reason, n] : counts.failed) json->Field(reason, n);
      json->End();
      json->Key("wrong_answer_samples");
      json->BeginArray();
      for (const std::string& sample : counts.samples) json->Value(sample);
      json->EndArray();
      json->Field("yes_cache_hits", counts.yes_hits);
      json->Field("hd_not_remapped", counts.not_remapped);
      json->Key("hd_not_remapped_samples");
      json->BeginArray();
      for (const std::string& sample : counts.not_remapped_samples) json->Value(sample);
      json->EndArray();
      json->End();
    }
    json->End();
  }

  /// True when `answer` is the answer recorded for `class_id`.
  bool Expects(int class_id, const Expectation& answer) const {
    auto it = expected_.find(class_id);
    return it != expected_.end() && it->second.outcome == answer.outcome &&
           it->second.width == answer.width;
  }

  /// Cache-hit `yes` replies checked so far, and those among them whose HD
  /// is valid only for the copy that was solved (the known defect below).
  struct HitCounts {
    long yes_hits = 0;
    long not_remapped = 0;
  };
  HitCounts Hits() const {
    HitCounts total;
    for (const auto& [cls, counts] : per_class_) {
      total.yes_hits += counts.yes_hits;
      total.not_remapped += counts.not_remapped;
    }
    return total;
  }

 private:
  struct PerClass {
    long sent = 0;
    long ok = 0;
    std::map<std::string, long> failed;
    std::vector<std::string> samples;  ///< first wrong answers, verbatim
    long yes_hits = 0;
    long not_remapped = 0;
    std::vector<std::string> not_remapped_samples;  ///< first replies, verbatim
  };

  struct Validated {
    std::string body;
    bool not_remapped = false;
  };

  /// Empty when the answer is right; otherwise what is wrong with it. Sets
  /// *not_remapped for a right answer under the known defect below.
  ///
  /// Known defect (docs/SERVER.md: a cached decomposition is valid "up to
  /// vertex renaming"): a cache hit returns the HD of the instance that was
  /// solved, in that instance's vertex and edge ids, rendered with the names
  /// of the instance that was sent. For an edge-shuffled copy it is then
  /// invalid for the graph as sent. Such a reply is right only if, read back
  /// into ids, it is a valid HD of the solved copy; it is then counted as
  /// `hd_not_remapped` (records, per-layer `service.hit_not_remapped_frac`)
  /// and not failed. Every other invalid HD is a wrong answer.
  std::string CheckAnswer(const Send& send, const Reply& reply, const std::string& outcome,
                          bool* not_remapped) {
    const Item& item = items_[send.item];
    const int width = static_cast<int>(FindNumber(reply.body, "width", -1));
    if (outcome != "yes" && outcome != "no") return "unknown outcome '" + outcome + "'";
    // Validate a yes against the graph exactly as sent; a reply identical to
    // one already validated for the same body is not validated again.
    auto validated = validated_.find(send.item);
    if (outcome == "yes" && validated != validated_.end() &&
        validated->second.body == reply.body) {
      *not_remapped = validated->second.not_remapped;
    } else if (outcome == "yes") {
      const htd::Hypergraph* graph = SentGraph(send.item);
      const size_t at = reply.body.find("\"decomposition\": ");
      if (graph == nullptr || at == std::string::npos) return "yes without a decomposition";
      const size_t start = at + 17;
      auto decomp = htd::ParseDecompositionJson(
          *graph, reply.body.substr(start, reply.body.rfind('}') - start));
      if (!decomp.ok()) return "unreadable decomposition: " + decomp.status().message();
      htd::Validation valid = htd::ValidateHdWithWidth(*graph, *decomp, item.k);
      if (!valid) {
        const htd::Hypergraph* solved = SolvedGraph(reply, *graph);
        if (!FindBool(reply.body, "cache_hit") || solved == nullptr ||
            !htd::ValidateHdWithWidth(*solved, *decomp, item.k)) {
          return "invalid HD for k=" + std::to_string(item.k) + ": " + valid.error;
        }
        *not_remapped = true;
      }
      if (decomp->Width() != width) return "width field disagrees with the HD";
      validated_[send.item] = Validated{reply.body, *not_remapped};
    }
    auto [it, inserted] = expected_.emplace(item.class_id, Expectation{outcome, width});
    if (!inserted && (it->second.outcome != outcome || it->second.width != width)) {
      return "class " + std::to_string(item.class_id) + " answered " + outcome + "/" +
             std::to_string(width) + ", earlier " + it->second.outcome + "/" +
             std::to_string(it->second.width);
    }
    return "";
  }

  const htd::Hypergraph* SentGraph(int item) {
    auto it = graphs_.find(item);
    if (it == graphs_.end()) {
      auto parsed = htd::ParseHyperBench(items_[item].body);
      if (!parsed.ok()) return nullptr;
      it = graphs_.emplace(item, std::make_unique<htd::Hypergraph>(*std::move(parsed)))
               .first;
    }
    return it->second.get();
  }

  /// The graph of the item whose solve filled the reply's cache entry, when
  /// it has the sent graph's shape (so ids read back into it are in range).
  const htd::Hypergraph* SolvedGraph(const Reply& reply, const htd::Hypergraph& sent) {
    auto it = solved_.find(FindString(reply.body, "fingerprint"));
    if (it == solved_.end()) return nullptr;
    const htd::Hypergraph* graph = SentGraph(it->second);
    if (graph == nullptr || graph->num_vertices() != sent.num_vertices() ||
        graph->num_edges() != sent.num_edges()) {
      return nullptr;
    }
    return graph;
  }

  const std::vector<Item>& items_;
  std::map<int, PerClass> per_class_;
  std::map<int, Expectation> expected_;
  const std::map<std::string, int> solved_;
  std::map<int, Validated> validated_;  // item -> last reply validated
  std::map<int, std::unique_ptr<htd::Hypergraph>> graphs_;
};

/// Everything one serve workload prepares in set-up.
struct Prepared {
  std::unique_ptr<Fleet> fleet;
  std::vector<Item> items;
  std::vector<int> warm_items;   ///< items the traffic repeats
  /// serve-mixed: warm items by size tier (small CQs, |E| 11..50, large).
  std::vector<int> tiers[3];
  std::vector<int> fresh_items;  ///< single-use cold items
  std::vector<int> burst_items;  ///< one per duplicate burst
  std::map<int, Expectation> expected;
  /// Per fingerprint, the warm item whose solve filled the cache entry.
  std::map<std::string, int> solved;
};

/// Warm-up: one request per class, sequential on one connection; records
/// each answer and which item each cache entry was solved from.
bool WarmUp(const Prepared& p, int port, std::string* error,
            std::map<int, Expectation>* expected, std::map<std::string, int>* solved) {
  std::vector<int> sent;
  std::vector<int> classes;
  std::vector<std::string> requests;
  std::set<int> seen;
  for (int id : p.warm_items) {
    const Item& item = p.items[id];
    if (!seen.insert(item.class_id).second) continue;
    sent.push_back(id);
    classes.push_back(item.class_id);
    requests.push_back(DecomposeRequest(item.body, item.k, kWarmTimeoutS));
  }
  const std::vector<Reply> replies = ExchangeAll(port, requests);
  for (size_t i = 0; i < replies.size(); ++i) {
    const Reply& reply = replies[i];
    const std::string outcome = FindString(reply.body, "outcome");
    if (!reply.transport_ok || reply.status != 200 ||
        (outcome != "yes" && outcome != "no")) {
      *error = "warm-up of class " + std::to_string(classes[i]) + " failed: " +
               std::to_string(reply.status) + " " + reply.body;
      return false;
    }
    (*expected)[classes[i]] =
        Expectation{outcome, static_cast<int>(FindNumber(reply.body, "width", -1))};
    if (!FindBool(reply.body, "cache_hit")) {
      solved->emplace(FindString(reply.body, "fingerprint"), sent[i]);
    }
  }
  return true;
}

double FailFrac(const RunResult& result) {
  return static_cast<double>(result.failed) / std::max(1L, result.attempted);
}

/// Share of cache-hit `yes` replies whose HD is valid only for the solved
/// copy (Checker::CheckAnswer).
double NotRemappedFrac(const Checker::HitCounts& hits) {
  return static_cast<double>(hits.not_remapped) / std::max(1L, hits.yes_hits);
}

/// Prints the known-defect count to standard error and adds it to `named`.
void ReportNotRemapped(const Checker& checker, std::vector<Metric>* named) {
  const Checker::HitCounts hits = checker.Hits();
  named->push_back({"hit_not_remapped_frac", NotRemappedFrac(hits), "share"});
  if (hits.not_remapped > 0) {
    std::fprintf(stderr,
                 "perfbench: KNOWN DEFECT: %ld of %ld cache-hit decompositions are valid "
                 "only for the copy that was solved, not for the graph as sent\n",
                 hits.not_remapped, hits.yes_hits);
  }
}

/// Latencies of the given classes, with the schedule window each was due in.
struct ClassLatencies {
  std::vector<double> ms;
  std::vector<int> window;

  /// Median over windows of the per-window percentile (stats.h); nullopt
  /// when the percentile rule does not allow it.
  std::optional<double> At(double q) const { return WindowedPercentile(ms, window, q); }
};

/// Writes `<name>_windows: [[p50, p90, p<tail_q>, samples], ...]`, one entry
/// per schedule window.
void WriteWindows(const std::string& name, const ClassLatencies& c, double tail_q,
                  Json* json) {
  json->Key(name + "_windows");
  json->BeginArray();
  for (int w = 0; w <= *std::max_element(c.window.begin(), c.window.end()); ++w) {
    std::vector<double> in;
    for (size_t i = 0; i < c.ms.size(); ++i) {
      if (c.window[i] == w) in.push_back(c.ms[i]);
    }
    json->BeginArray();
    json->Value(Percentile(in, 0.5));
    json->Value(Percentile(in, 0.9));
    json->Value(Percentile(in, tail_q));
    json->Value(static_cast<long>(in.size()));
    json->EndArray();
  }
  json->EndArray();
}

/// Writes `<name>_quantiles`: p25, p50, p75, p90, p95, p99 of all samples.
void WriteQuantiles(const std::string& name, const ClassLatencies& c, Json* json) {
  json->Key(name + "_quantiles");
  json->BeginArray();
  for (double q : {0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) json->Value(Percentile(c.ms, q));
  json->EndArray();
}

/// Appends `<name>_p<q>_ms` to `named` and to the records when the
/// percentile rule allows it.
void AddPercentile(const std::string& name, const ClassLatencies& samples, double q,
                   std::vector<Metric>* named, Json* records) {
  const std::optional<double> value = samples.At(q);
  if (!value) return;
  const std::string key = name + "_p" + std::to_string(static_cast<int>(q * 100)) + "_ms";
  named->push_back(Metric{key, *value, "ms"});
  records->Field(key, *value);
}

/// trace.overhead_frac: traced / untraced hit p50 of the same run.
double OverheadFrac(const ClassLatencies& traced, const ClassLatencies& untraced) {
  const std::optional<double> t = traced.At(0.5), u = untraced.At(0.5);
  return t && u && *u > 0 ? *t / *u : 0.0;
}

/// An end-to-end percentile; an unresolved one fails the run (it is never
/// reported as a number).
double Required(const std::optional<double>& value, const std::string& name,
                RunResult* result) {
  if (!value) result->unmeasured.push_back(name + ": too few samples for the percentile rule");
  return value.value_or(0.0);
}

/// Appends the latencies of class `cls` in `phase`, all in window `window`.
void AppendLatencies(const Phase& phase, int cls, int window, ClassLatencies* out) {
  for (size_t i = 0; i < phase.sends.size(); ++i) {
    if (phase.sends[i].cls != cls) continue;
    out->ms.push_back(phase.replies[i].latency_ms);
    out->window.push_back(window);
  }
}

ClassLatencies Latencies(const Phase& phase, std::initializer_list<int> classes,
                         double seconds, int windows) {
  ClassLatencies out;
  for (size_t i = 0; i < phase.sends.size(); ++i) {
    for (int c : classes) {
      if (phase.sends[i].cls != c) continue;
      out.ms.push_back(phase.replies[i].latency_ms);
      out.window.push_back(std::min(
          windows - 1, static_cast<int>(phase.sends[i].due_s / seconds * windows)));
    }
  }
  return out;
}

/// Adds the Server-Timing stages of every traced reply as child spans of
/// its client span. The header carries durations only, so the stages are
/// laid end to end from the request's send time.
void AddStageSpans(const Phase& traced, SpanLog* log) {
  for (const Reply& r : traced.replies) {
    if (r.span == 0 || r.server_timing.empty()) continue;
    int64_t at = r.sent_ns;
    for (const auto& [name, ms] : ParseServerTiming(r.server_timing)) {
      const int64_t dur = static_cast<int64_t>(ms * 1e6);
      log->Add(Span{log->NextId(), r.span, r.span, "stage." + name, at, at + dur});
      at += dur;
    }
  }
}

/// Runs the traced half: spans on (client, router handle, Server-Timing
/// stages), executor sampled, scheduler counters diffed. Checks every reply
/// and fills the per-layer metrics both serve workloads share.
Phase RunTraced(const Prepared& p, const Traffic& traffic, uint64_t seed, SpanLog* log,
                Checker* checker, RunResult* result, LayerValues* layer) {
  auto& service = p.fleet->backend->decomposition_service();
  const auto before = service.scheduler_stats();
  ExecutorSampler sampler(htd::util::Executor::Global());
  p.fleet->log.store(log, std::memory_order_release);
  Phase traced = RunPhase(traffic, log);
  p.fleet->log.store(nullptr, std::memory_order_release);
  (*layer)["executor.busy_frac"] = sampler.Stop();
  (*layer)["executor.steals"] = static_cast<double>(sampler.steals());
  const auto after = service.scheduler_stats();
  (*layer)["service.dedup_joins"] = static_cast<double>(after.dedup_joins - before.dedup_joins);
  (*layer)["service.solves"] = static_cast<double>(after.solves - before.solves);
  const Checker::HitCounts hits_before = checker->Hits();
  checker->CheckAll(traced, result);
  const Checker::HitCounts hits_after = checker->Hits();
  (*layer)["service.hit_not_remapped_frac"] = NotRemappedFrac(Checker::HitCounts{
      hits_after.yes_hits - hits_before.yes_hits,
      hits_after.not_remapped - hits_before.not_remapped});
  AddStageSpans(traced, log);

  std::vector<double> fingerprint, cache, solve, schedule, residual, late;
  long replies_ok = 0, hits = 0, shed = 0;
  for (size_t i = 0; i < traced.sends.size(); ++i) {
    const Reply& r = traced.replies[i];
    late.push_back(r.late_ms);
    if (r.transport_ok && (r.status == 429 || r.status == 503)) ++shed;
    if (!r.transport_ok || r.status != 200) continue;
    ++replies_ok;
    const bool hit = FindBool(r.body, "cache_hit");
    hits += hit ? 1 : 0;
    double stage_sum = 0.0;
    for (const auto& [name, ms] : ParseServerTiming(r.server_timing)) {
      stage_sum += ms;
      if (name == "fingerprint") fingerprint.push_back(ms);
      if (name == "cache") cache.push_back(ms);
      if (!hit && name == "solve") solve.push_back(ms);
      if (!hit && name == "schedule") schedule.push_back(ms);
    }
    if (traced.sends[i].cls != kRouted) residual.push_back(r.rtt_ms - stage_sum);
  }
  (*layer)["service.fingerprint_ms_p50"] = Percentile(fingerprint, 0.5);
  (*layer)["service.cache_ms_p50"] = Percentile(cache, 0.5);
  (*layer)["service.solve_ms_p50"] = Percentile(solve, 0.5);
  (*layer)["service.schedule_ms_p99"] = Percentile(schedule, 0.99);
  (*layer)["service.hit_ratio"] =
      replies_ok > 0 ? static_cast<double>(hits) / replies_ok : 0.0;
  (*layer)["server.residual_ms_p50"] = Percentile(residual, 0.5);
  (*layer)["server.residual_ms_p99"] = Percentile(residual, 0.99);
  (*layer)["server.shed"] = shed;
  (*layer)["client.late_p99_ms"] = Percentile(late, 0.99);

  // Direct probes of single layers on the first 1,000 requests' inputs.
  std::vector<const std::string*> bodies;
  std::vector<std::unique_ptr<htd::Hypergraph>> graphs;
  std::vector<const htd::Hypergraph*> graph_ptrs;
  for (size_t i = 0; i < traced.sends.size() && bodies.size() < 1000; ++i) {
    const Item& item = p.items[traced.sends[i].item];
    bodies.push_back(&item.body);
    auto g = htd::ParseHyperBench(item.body);
    if (!g.ok()) continue;
    graphs.push_back(std::make_unique<htd::Hypergraph>(*std::move(g)));
    graph_ptrs.push_back(graphs.back().get());
  }
  const std::vector<double> fp = FingerprintSamplesUs(graph_ptrs, 1000);
  (*layer)["hypergraph.parse_us_p50"] = Median(ParseSamplesUs(bodies, 1000));
  (*layer)["canonical.fp_us_p50"] = Percentile(fp, 0.5);
  (*layer)["canonical.fp_us_p99"] = Percentile(fp, 0.99);
  (*layer)["decomp.split_ns_p50"] = Median(SplitSamplesNs(graph_ptrs, seed, 1000));
  return traced;
}

template <typename PrepareFn>
std::unique_ptr<Prepared> SetUp(PrepareFn prepare, int reps, std::vector<double>* setup_s,
                                std::string* error) {
  std::unique_ptr<Prepared> prepared;
  for (int rep = 0; rep < reps; ++rep) {
    prepared.reset();  // stops the previous rep's fleet before timing
    const Clock::time_point start = Clock::now();
    prepared = prepare(error);
    if (prepared == nullptr) return nullptr;
    setup_s->push_back(std::chrono::duration<double>(Clock::now() - start).count());
  }
  return prepared;
}

/// Empty when `p` has the inputs `items` and the warm-up answers `checker`
/// expects; otherwise what differs.
std::string SameAnswers(const std::vector<Item>& items, const Checker& checker,
                        const Prepared& p) {
  if (p.items.size() != items.size()) return "different inputs from the same seed";
  for (size_t i = 0; i < items.size(); ++i) {
    if (p.items[i].body != items[i].body) return "different inputs from the same seed";
  }
  for (const auto& [class_id, answer] : p.expected) {
    if (!checker.Expects(class_id, answer)) {
      return "warm-up of class " + std::to_string(class_id) + " answered " +
             answer.outcome + "/" + std::to_string(answer.width) +
             ", unlike the first segment's";
    }
  }
  return "";
}

}  // namespace

RunResult RunServeWarm(const Args& args) {
  RunResult result;
  const int nproc = htd::util::Executor::Global().num_workers();
  const int direct_conns = std::max(1, nproc / 2);
  const int routed_conns = std::max(1, nproc - direct_conns);

  std::vector<double> setup_s;
  std::string error;
  auto prepare = [&](std::string* err) -> std::unique_ptr<Prepared> {
    auto p = std::make_unique<Prepared>();
    htd::util::Rng rng(args.seed);
    const std::vector<RequestClass> classes = SmallCqClasses(rng, kWarmClasses);
    for (size_t c = 0; c < classes.size(); ++c) {
      AddVariants(classes[c], static_cast<int>(c), rng, &p->items, &p->warm_items);
    }
    p->fleet = StartFleet(/*with_router=*/true, err);
    if (p->fleet == nullptr) return nullptr;
    if (!WarmUp(*p, p->fleet->backend->port(), err, &p->expected, &p->solved)) return nullptr;
    // Warm the routed path too (router parse + forward), one request per class.
    std::vector<std::string> routed;
    for (size_t c = 0; c < classes.size(); ++c) {
      routed.push_back(p->items[p->warm_items[c * kVariants + 1]].request);
    }
    for (const Reply& r : ExchangeAll(p->fleet->router_http->port(), routed)) {
      if (!r.transport_ok || r.status != 200) {
        *err = "routed warm-up failed: " + std::to_string(r.status);
        return nullptr;
      }
    }
    return p;
  };
  auto make_traffic = [&](const Prepared& p, double seconds, uint64_t salt) {
    Traffic t;
    t.pools = {{p.fleet->backend->port(), direct_conns},
               {p.fleet->router_http->port(), routed_conns}};
    htd::util::Rng rng(args.seed * 7919 + salt);
    auto add = [&](int cls, double rate, int pool) {
      const long n = static_cast<long>(seconds * rate);
      for (long i = 0; i < n; ++i) {
        Send s;
        s.due_s = i / rate;
        s.pool = pool;
        s.cls = cls;
        s.item = p.warm_items[rng.UniformInt(0, static_cast<int>(p.warm_items.size()) - 1)];
        s.request = &p.items[s.item].request;
        t.sends.push_back(s);
      }
    };
    add(kDirect, kDirectRate, 0);
    add(kRouted, kRoutedRate, 1);
    return t;
  };

  // Every segment generates the same inputs from the seed; the checker
  // keeps the first segment's, and each later segment's warm-up must give
  // the same answers.
  std::vector<Item> items;
  std::unique_ptr<Checker> checker;
  std::unique_ptr<Prepared> p;
  ClassLatencies direct, routed;
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  for (int segment = 0; segment < kWarmSegments; ++segment) {
    p.reset();  // stops the previous segment's fleet before timing
    p = SetUp(prepare, kWarmSetupsPerSegment, &setup_s, &error);
    if (p == nullptr) {
      result.WrongAnswer("set-up failed: " + error);
      return result;
    }
    if (checker == nullptr) {
      items = p->items;
      checker = std::make_unique<Checker>(items, p->expected, p->solved);
    } else if (std::string differs = SameAnswers(items, *checker, *p); !differs.empty()) {
      result.WrongAnswer("segment " + std::to_string(segment) + ": " + differs);
      return result;
    }
    const Phase phase =
        RunPhase(make_traffic(*p, untraced_s / kWarmSegments, 1 + segment), nullptr);
    checker->CheckAll(phase, &result);
    AppendLatencies(phase, kDirect, segment, &direct);
    AppendLatencies(phase, kRouted, segment, &routed);
  }

  Json records;
  records.Begin();
  records.Field("workload", args.workload);
  records.Field("seed", static_cast<long>(args.seed));
  records.Field("direct_rate", kDirectRate);
  records.Field("routed_rate", kRoutedRate);
  records.Field("connections", direct_conns + routed_conns);
  records.Field("segments", kWarmSegments);
  records.Field("hit_samples", static_cast<long>(direct.ms.size()));
  records.Field("routed_samples", static_cast<long>(routed.ms.size()));
  WriteWindows("hit", direct, 0.99, &records);
  WriteWindows("routed", routed, 0.99, &records);
  WriteQuantiles("hit", direct, &records);
  WriteQuantiles("routed", routed, &records);

  for (double q : {0.5, 0.75, 0.99}) {
    AddPercentile("hit", direct, q, &result.named, &records);
    AddPercentile("routed", routed, q, &result.named, &records);
  }
  result.named.push_back({"fail_frac", FailFrac(result), "share"});
  ReportNotRemapped(*checker, &result.named);
  if (!args.trace) {
    result.end_to_end = {
        {"setup_s", Median(setup_s), "s"},
        {"success_frac", 1.0 - FailFrac(result), "share"},
        {"a_ms", Required(direct.At(0.5), "a_ms", &result), "ms"},
        {"b_ms", Required(routed.At(0.5), "b_ms", &result), "ms"},
    };
  } else {
    SpanLog log;
    LayerValues layer;
    const Phase traced =
        RunTraced(*p, make_traffic(*p, args.seconds / 2, 1 + kWarmSegments), args.seed, &log,
                  checker.get(), &result, &layer);
    const ClassLatencies t_direct = Latencies(traced, {kDirect}, args.seconds / 2, 1);
    const ClassLatencies t_routed = Latencies(traced, {kRouted}, args.seconds / 2, 1);
    layer["router.handle_ms_p50"] = Median(log.Durations("router.handle"));
    layer["router.hop_ms_p50"] = t_routed.At(0.5).value_or(0) - t_direct.At(0.5).value_or(0);
    layer["router.hop_ms_p99"] =
        t_routed.At(0.99).value_or(0) - t_direct.At(0.99).value_or(0);
    long transport_errors = 0;
    for (const auto& s : p->fleet->router->shard_stats()) {
      transport_errors += static_cast<long>(s.transport_errors);
    }
    layer["router.transport_errors"] = transport_errors;
    layer["trace.overhead_frac"] = OverheadFrac(t_direct, direct);
    result.per_layer = PerLayerMetrics(layer);
    WriteSpanRecords(args, log, &records, &result);
  }
  checker->WriteRecords(&records);
  records.End();
  result.records = records.str();
  return result;
}

RunResult RunServeMixed(const Args& args) {
  RunResult result;
  const int nproc = htd::util::Executor::Global().num_workers();
  // Half the connections each. With a single hit connection, a large-graph
  // hit (10-40 ms of fingerprinting) held up every hit due behind it and
  // doubled the hit p99.
  const int repeat_conns = std::max(1, nproc / 2);
  const int cold_conns = std::max(1, nproc - repeat_conns);
  const long fresh_needed = static_cast<long>(args.seconds * kFreshRate) + 1;
  const long bursts_needed = static_cast<long>(args.seconds / kBurstPeriodS) + 1;

  std::vector<double> setup_s;
  std::string error;
  auto prepare = [&](std::string* err) -> std::unique_ptr<Prepared> {
    auto p = std::make_unique<Prepared>();
    htd::util::Rng rng(args.seed);
    const std::vector<RequestClass> warm = MixedWarmClasses(rng, kMixedSmall, kMixedLarge);
    std::set<htd::service::Fingerprint> seen;
    for (size_t c = 0; c < warm.size(); ++c) {
      seen.insert(htd::service::CanonicalFingerprint(warm[c].graph));
      const int tier = c < kMixedSmall / 2 ? 0 : c < kMixedSmall ? 1 : 2;
      AddVariants(warm[c], static_cast<int>(c), rng, &p->items, &p->tiers[tier]);
    }
    for (const auto& tier : p->tiers) {
      p->warm_items.insert(p->warm_items.end(), tier.begin(), tier.end());
    }
    // Fresh instances: unique shapes (a repeated fingerprint is dropped).
    int class_id = static_cast<int>(warm.size());
    const long wanted = fresh_needed + bursts_needed;
    std::vector<int> fresh;
    for (int round = 0; static_cast<long>(fresh.size()) < wanted && round < 20; ++round) {
      for (RequestClass& cls :
           FreshClasses(rng, static_cast<int>(wanted), "f" + std::to_string(round) + "_")) {
        if (static_cast<long>(fresh.size()) >= wanted) break;
        if (!seen.insert(htd::service::CanonicalFingerprint(cls.graph)).second) continue;
        Item item;
        item.class_id = class_id++;
        item.k = cls.k;
        item.timeout_s = kFreshTimeoutS;
        item.body = std::move(cls.bodies.front());
        item.request = DecomposeRequest(item.body, item.k, item.timeout_s);
        fresh.push_back(static_cast<int>(p->items.size()));
        p->items.push_back(std::move(item));
      }
    }
    rng.Shuffle(fresh);  // FreshClasses returns ascending sizes
    p->fresh_items.assign(fresh.begin(), fresh.begin() + fresh_needed);
    p->burst_items.assign(fresh.begin() + fresh_needed, fresh.end());
    p->fleet = StartFleet(/*with_router=*/false, err);
    if (p->fleet == nullptr) return nullptr;
    if (!WarmUp(*p, p->fleet->backend->port(), err, &p->expected, &p->solved)) return nullptr;
    return p;
  };
  std::unique_ptr<Prepared> p = SetUp(prepare, kMixedSetupReps, &setup_s, &error);
  if (p == nullptr) {
    result.WrongAnswer("set-up failed: " + error);
    return result;
  }

  // The untraced and traced phases draw disjoint fresh/burst items.
  long next_fresh = 0, next_burst = 0;
  auto make_traffic = [&](double seconds, uint64_t salt) {
    Traffic t;
    const int port = p->fleet->backend->port();
    t.pools = {{port, repeat_conns}, {port, cold_conns}};
    htd::util::Rng rng(args.seed * 7919 + salt);
    // Each tier gets its share of the repeats and each class of a tier the
    // same count, in random order, so seeds vary the order, not the mix.
    std::vector<int> repeats;
    for (int tier = 0; tier < 3; ++tier) {
      const std::vector<int>& items = p->tiers[tier];
      const long n = std::lround(seconds * kRepeatRate * kTierShare[tier]);
      for (long i = 0; i < n; ++i) repeats.push_back(items[i % items.size()]);
    }
    rng.Shuffle(repeats);
    for (size_t i = 0; i < repeats.size(); ++i) {
      Send s;
      s.due_s = i / kRepeatRate;
      s.pool = 0;
      s.cls = kRepeat;
      s.item = repeats[i];
      s.request = &p->items[s.item].request;
      t.sends.push_back(s);
    }
    const long fresh = static_cast<long>(seconds * kFreshRate);
    for (long i = 0; i < fresh && next_fresh < static_cast<long>(p->fresh_items.size());
         ++i) {
      Send s;
      s.due_s = i / kFreshRate;
      s.pool = 1;
      s.cls = kFresh;
      s.item = p->fresh_items[next_fresh++];
      s.request = &p->items[s.item].request;
      t.sends.push_back(s);
    }
    // Duplicate bursts: kBurstCopies copies of one fresh instance due at
    // once on the cold connections, offset from the fresh schedule by half a
    // fresh period.
    const long bursts = static_cast<long>(seconds / kBurstPeriodS);
    for (long b = 0; b < bursts && next_burst < static_cast<long>(p->burst_items.size());
         ++b) {
      const int item = p->burst_items[next_burst++];
      for (int c = 0; c < kBurstCopies; ++c) {
        Send s;
        s.due_s = b * kBurstPeriodS + 0.5 / kFreshRate;
        s.pool = 1;
        s.cls = kDuplicate;
        s.item = item;
        s.request = &p->items[item].request;
        t.sends.push_back(s);
      }
    }
    return t;
  };

  Checker checker(p->items, p->expected, p->solved);
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const Phase untraced = RunPhase(make_traffic(untraced_s, 1), nullptr);
  checker.CheckAll(untraced, &result);
  const ClassLatencies hit = Latencies(untraced, {kRepeat}, untraced_s, kMixedWindows);
  const ClassLatencies cold = Latencies(untraced, {kFresh, kDuplicate}, untraced_s, kMixedWindows);

  Json records;
  records.Begin();
  records.Field("workload", args.workload);
  records.Field("seed", static_cast<long>(args.seed));
  records.Field("repeat_rate", kRepeatRate);
  records.Field("fresh_rate", kFreshRate);
  records.Field("burst_period_s", kBurstPeriodS);
  records.Field("fresh_timeout_s", kFreshTimeoutS);
  records.Field("connections", repeat_conns + cold_conns);
  records.Field("hit_samples", static_cast<long>(hit.ms.size()));
  records.Field("cold_samples", static_cast<long>(cold.ms.size()));
  WriteWindows("hit", hit, 0.99, &records);
  WriteWindows("cold", cold, kColdTailQ, &records);
  WriteQuantiles("hit", hit, &records);
  WriteQuantiles("cold", cold, &records);

  for (double q : {0.5, 0.99}) AddPercentile("hit", hit, q, &result.named, &records);
  for (double q : {0.5, 0.95, 0.99}) AddPercentile("cold", cold, q, &result.named, &records);
  const double cold_sgm = CensoredShiftedGeoMean(
      cold.ms, std::vector<bool>(cold.ms.size(), true),
      std::numeric_limits<double>::infinity(), kColdShiftMs);
  result.named.push_back({"cold_sgm_ms", cold_sgm, "ms"});
  records.Field("cold_sgm_ms", cold_sgm);
  result.named.push_back({"fail_frac", FailFrac(result), "share"});
  ReportNotRemapped(checker, &result.named);
  if (!args.trace) {
    result.end_to_end = {
        {"setup_s", Median(setup_s), "s"},
        {"success_frac", 1.0 - FailFrac(result), "share"},
        {"a_ms", Required(hit.At(0.5), "a_ms", &result), "ms"},
        {"b_ms", cold_sgm, "ms"},
    };
  } else {
    SpanLog log;
    LayerValues layer;
    const Phase traced = RunTraced(*p, make_traffic(args.seconds / 2, 2), args.seed, &log,
                                   &checker, &result, &layer);
    long yes_at_deadline = 0;
    for (size_t i = 0; i < traced.sends.size(); ++i) {
      const Reply& r = traced.replies[i];
      if (traced.sends[i].cls == kRepeat || !r.transport_ok || r.status != 200) continue;
      if (FindString(r.body, "outcome") == "yes" &&
          FindNumber(r.body, "seconds", 0) >= 0.95 * kFreshTimeoutS) {
        ++yes_at_deadline;
      }
    }
    layer["core.yes_at_deadline"] = yes_at_deadline;
    const ClassLatencies t_hit = Latencies(traced, {kRepeat}, args.seconds / 2, kMixedWindows);
    layer["trace.overhead_frac"] = OverheadFrac(t_hit, hit);
    result.per_layer = PerLayerMetrics(layer);
    WriteSpanRecords(args, log, &records, &result);
  }
  checker.WriteRecords(&records);
  records.End();
  result.records = records.str();
  return result;
}

}  // namespace perfbench
