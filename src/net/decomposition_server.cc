#include "net/decomposition_server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <initializer_list>
#include <thread>
#include <utility>
#include <vector>

#include "decomp/decomp_writer.h"
#include "hypergraph/parser.h"
#include "net/http_client.h"
#include "net/json.h"
#include "net/routes.h"
#include "net/trace_json.h"
#include "service/anti_entropy.h"
#include "util/cli.h"
#include "util/timer.h"

namespace htd::net {

namespace {

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kYes: return "yes";
    case Outcome::kNo: return "no";
    case Outcome::kCancelled: return "cancelled";
    case Outcome::kError: return "error";
  }
  return "?";
}

/// Completed async job records retained for GET /v1/jobs/<id> (oldest
/// evicted first). Unresolved jobs are never evicted.
constexpr size_t kMaxRetainedJobs = 1024;
/// Transport timeout for one migration push (POST /v1/admin/import to a new
/// owner). Blobs can be large, so it is generous.
constexpr double kMigratePushTimeoutSeconds = 300.0;
/// Transport timeout for one anti-entropy digest or slice pull.
constexpr double kAntiEntropyPullTimeoutSeconds = 60.0;
/// Largest POST /v1/decompose body admitted on the event loop. Parse and
/// canonical fingerprint grow with the graph (a 200-edge graph fingerprints
/// in milliseconds). Renamed small CQs (|E| <= 10) take 80-470 bytes and
/// under 60 us for both; a body this size holds about 30 edges, up to
/// ~0.5 ms for acyclic shapes (4-core x86 host). Larger bodies
/// are admitted on the IO pool, so a loop does not stall its other
/// connections on a large graph.
constexpr size_t kLoopDecomposeMaxBodyBytes = 512;

/// Server-Timing header value (RFC draft syntax: name;dur=millis, comma
/// separated) for the stage breakdown of one synchronous request.
std::string ServerTiming(
    std::initializer_list<std::pair<const char*, double>> stages) {
  std::string out;
  for (const auto& [name, seconds] : stages) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%s;dur=%.3f", out.empty() ? "" : ", ",
                  name, seconds * 1e3);
    out += buf;
  }
  return out;
}

/// ?timeout= in seconds, the service default when absent; nullopt unless a
/// number in [0, 1e9).
std::optional<double> ParseTimeout(const HttpRequest& request,
                                   double fallback) {
  const std::string text = request.QueryOr("timeout", "");
  double timeout = fallback;
  if (!text.empty() &&
      !(util::ParseDoubleFlag(text, 0.0, &timeout) && timeout < 1e9)) {
    return std::nullopt;
  }
  return timeout;
}

template <typename Future>
bool Ready(const Future& future) {
  return future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// The response of a staged request, running the deferred rest inline.
HttpResponse Finish(HttpServer::Staged staged) {
  return staged.rest ? staged.rest() : std::move(staged.response);
}

/// The members of one resolved decompose job (docs/SERVER.md).
void WriteResult(JsonWriter& json, const service::JobResult& job,
                 const Hypergraph& graph, bool include_decomposition) {
  json.Field("outcome", OutcomeName(job.result.outcome));
  if (job.result.decomposition.has_value()) {
    json.Field("width", job.result.decomposition->Width());
  }
  json.Field("cache_hit", job.cache_hit)
      .Field("deduplicated", job.deduplicated)
      .Field("seconds", job.seconds)
      .Field("threads_used", job.threads_used)
      .Field("fingerprint", job.fingerprint.ToHex());
  if (include_decomposition && job.result.decomposition.has_value()) {
    json.Raw("decomposition",
             WriteDecompositionJson(graph, *job.result.decomposition));
  }
}

/// The members of one query answer (docs/QUERIES.md).
void WriteQueryAnswer(JsonWriter& json, const qa::QueryAnswer& answer) {
  json.Field("outcome", qa::QueryOutcomeName(answer.outcome));
  if (answer.outcome == qa::QueryOutcome::kSatisfiable) {
    // Witness keys are rendered sorted so the body is deterministic.
    std::vector<std::pair<std::string, int64_t>> vars(answer.witness.begin(),
                                                      answer.witness.end());
    std::sort(vars.begin(), vars.end());
    json.Object("witness");
    for (const auto& [var, value] : vars) json.Field(var, value);
    json.End();
  }
  if (answer.counted) {
    json.Field("count", answer.count.value)
        .Field("count_saturated", answer.count.saturated);
  }
  if (answer.portfolio_size > 0) {
    json.Field("width", answer.width)
        .Field("fractional_width", answer.fractional_width)
        .Field("estimated_cost", answer.estimated_cost)
        .Object("portfolio")
        .Field("picked", answer.picked_index)
        .Field("size", answer.portfolio_size)
        .End();
  }
  json.Field("fingerprint", answer.fingerprint.ToHex())
      .Field("cache_hit", answer.decompose_cache_hit)
      .Field("probes", answer.probes)
      .Field("decompose_seconds", answer.decompose_seconds)
      .Field("pick_seconds", answer.pick_seconds)
      .Field("execute_seconds", answer.execute_seconds);
}

using ShardState = DecompositionServer::ShardState;

}  // namespace

/// The "request" root span of one /v1/decompose or /v1/query. It opens on
/// the thread that admits the request and is recorded by whichever thread
/// finishes the answer: the loop for a hit, the IO pool for a flight that
/// had to be waited on.
class DecompositionServer::RequestScope {
 public:
  RequestScope(uint64_t id, uint64_t tag)
      : id_(id),
        tag_(tag),
        armed_(util::TraceRegistry::Instance().enabled()),
        start_ns_(armed_ ? util::TraceRegistry::Instance().NowNs() : 0) {}

  uint64_t id() const { return id_; }

  /// Records the span and echoes X-HTD-Request-Id, plus Server-Timing when
  /// `server_timing` holds a synchronous answer's stage breakdown.
  HttpResponse Finish(HttpResponse response,
                      const std::string& server_timing = "") const {
    if (armed_) {
      util::RecordSpan("request", 0, id_, start_ns_,
                       util::TraceRegistry::Instance().NowNs() - start_ns_,
                       tag_);
    }
    response.headers.emplace_back("X-HTD-Request-Id", util::TraceIdHex(id_));
    if (!server_timing.empty()) {
      response.headers.emplace_back("Server-Timing", server_timing);
    }
    return response;
  }

 private:
  uint64_t id_;
  uint64_t tag_;
  bool armed_;
  uint64_t start_ns_;
};

DecompositionServer::DecompositionServer(DecompositionServerOptions options)
    : options_(std::move(options)) {}

util::StatusOr<std::unique_ptr<DecompositionServer>> DecompositionServer::Create(
    DecompositionServerOptions options) {
  if (options.max_queue_depth < 1) {
    return util::Status::InvalidArgument("max_queue_depth must be >= 1");
  }
  if (options.max_k < 1) {
    return util::Status::InvalidArgument("max_k must be >= 1");
  }
  if (options.shard_map.has_value() &&
      (options.shard_index < 0 ||
       options.shard_index >= options.shard_map->num_shards())) {
    return util::Status::InvalidArgument(
        "shard_index must be in [0, " +
        std::to_string(options.shard_map->num_shards()) + ") for shard map " +
        options.shard_map->Serialise());
  }
  if (options.anti_entropy_interval_seconds < 0 ||
      !(options.anti_entropy_interval_seconds < 1e9)) {
    return util::Status::InvalidArgument(
        "anti_entropy_interval_seconds must be >= 0 (0 disables the sweep)");
  }
  if (options.anti_entropy_interval_seconds > 0 &&
      !options.shard_map.has_value()) {
    return util::Status::InvalidArgument(
        "anti-entropy needs a shard map: --anti-entropy-interval without "
        "--shard-map/--shard-index has no replica siblings to reconcile");
  }
  if (options.anti_entropy_slices < 1 || options.anti_entropy_slices > 4096) {
    return util::Status::InvalidArgument(
        "anti_entropy_slices must be in [1, 4096]");
  }
  std::optional<service::ShardEndpoint> ae_self;
  if (!options.anti_entropy_self.empty()) {
    ae_self = service::ShardEndpoint::Parse(options.anti_entropy_self);
    if (!ae_self.has_value()) {
      return util::Status::InvalidArgument(
          "anti_entropy_self must be host:port, got \"" +
          options.anti_entropy_self + "\"");
    }
  }
  auto service = service::DecompositionService::Create(options.service);
  if (!service.ok()) return service.status();

  auto server = std::unique_ptr<DecompositionServer>(
      new DecompositionServer(std::move(options)));
  server->service_ = std::move(*service);
  server->query_engine_ = std::make_unique<qa::QueryEngine>(
      server->service_.get(), server->options_.query);
  server->ae_self_ = std::move(ae_self);
  if (server->options_.shard_map.has_value()) {
    server->shard_state_ = std::make_shared<const ShardState>(
        ShardState{service::Topology(*server->options_.shard_map),
                   server->options_.shard_index});
  }
  // A sharded server restores only its own range; the default range is the
  // whole fingerprint space.
  auto shard = server->shard_state();
  const service::FingerprintRange range =
      shard != nullptr ? shard->range() : service::FingerprintRange{};

  if (!server->options_.snapshot_path.empty() &&
      server->options_.load_snapshot_on_start) {
    auto loaded = service::LoadSnapshot(server->options_.snapshot_path,
                                        server->service_->result_cache(),
                                        server->service_->subproblem_store(),
                                        &range);
    if (loaded.ok()) {
      server->restored_ = *loaded;
    } else if (loaded.status().code() != util::StatusCode::kNotFound) {
      // Corrupt or version-mismatched warm state must not take the server
      // down — log and start cold (verified by tests/net_server_test.cc).
      std::fprintf(stderr, "hdserver: ignoring snapshot %s: %s\n",
                   server->options_.snapshot_path.c_str(),
                   loaded.status().message().c_str());
    }
  }

  server->http_ = std::make_unique<HttpServer>(
      server->options_.http, [raw = server.get()](HttpRequest request) {
        return raw->Stage(std::move(request));
      });
  server->BindMetrics();
  return server;
}

void DecompositionServer::BindMetrics() {
  util::MetricsRegistry& metrics = service_->metrics();
  metrics.SetHelp("htd_admission_requests_total",
                  "Admission outcomes (admitted, shed, bad_request, "
                  "misrouted).");
  admitted_ =
      &metrics.GetCounter("htd_admission_requests_total", "result=\"admitted\"");
  shed_ = &metrics.GetCounter("htd_admission_requests_total", "result=\"shed\"");
  bad_requests_ = &metrics.GetCounter("htd_admission_requests_total",
                                      "result=\"bad_request\"");
  misrouted_ = &metrics.GetCounter("htd_admission_requests_total",
                                   "result=\"misrouted\"");
  metrics.SetHelp("htd_migration_entries_total",
                  "Warm-state entries moved by live resharding.");
  imported_cache_entries_ = &metrics.GetCounter("htd_migration_entries_total",
                                                "direction=\"imported_cache\"");
  imported_store_entries_ = &metrics.GetCounter("htd_migration_entries_total",
                                                "direction=\"imported_store\"");
  migrated_out_entries_ = &metrics.GetCounter("htd_migration_entries_total",
                                              "direction=\"migrated_out\"");
  metrics.SetHelp("htd_antientropy_rounds_total",
                  "Anti-entropy sweep rounds by result (ok, error, skipped).");
  ae_rounds_ok_ =
      &metrics.GetCounter("htd_antientropy_rounds_total", "result=\"ok\"");
  ae_rounds_error_ =
      &metrics.GetCounter("htd_antientropy_rounds_total", "result=\"error\"");
  ae_rounds_skipped_ =
      &metrics.GetCounter("htd_antientropy_rounds_total", "result=\"skipped\"");
  metrics.SetHelp("htd_antientropy_entries_total",
                  "Warm-state entries merged from replica siblings.");
  ae_entries_cache_ =
      &metrics.GetCounter("htd_antientropy_entries_total", "section=\"cache\"");
  ae_entries_store_ =
      &metrics.GetCounter("htd_antientropy_entries_total", "section=\"store\"");
  metrics.SetHelp("htd_antientropy_bytes_total",
                  "Slice blob bytes pulled from replica siblings.");
  ae_bytes_ = &metrics.GetCounter("htd_antientropy_bytes_total", "");
  metrics.SetHelp("htd_connections_accepted_total",
                  "Connections accepted over the server's lifetime.");
  metrics.RegisterCallback(
      "htd_connections_accepted_total", "", "counter",
      [this] { return static_cast<double>(http_->connections_accepted()); });
  metrics.SetHelp("htd_connections_shed_total",
                  "Connections refused at the transport bound (503).");
  metrics.RegisterCallback(
      "htd_connections_shed_total", "", "counter",
      [this] { return static_cast<double>(http_->connections_shed()); });
  metrics.SetHelp("htd_connections_reaped_total",
                  "Connections reaped by a timeout (idle, header/slow-loris, "
                  "or stalled write).");
  metrics.RegisterCallback(
      "htd_connections_reaped_total", "", "counter",
      [this] { return static_cast<double>(http_->connections_reaped()); });
  metrics.SetHelp("htd_accept_failures_total",
                  "accept() failures after a readable poll (fd exhaustion); "
                  "each costs one acceptor backoff.");
  metrics.RegisterCallback(
      "htd_accept_failures_total", "", "counter",
      [this] { return static_cast<double>(http_->accept_failures()); });
  metrics.SetHelp("htd_connections",
                  "Live connections by state on the epoll loop ring.");
  using Counts = HttpServer::ConnectionCounts;
  for (const auto& [state, count] : {std::pair{"idle", &Counts::idle},
                                     std::pair{"reading", &Counts::reading},
                                     std::pair{"dispatched", &Counts::dispatched},
                                     std::pair{"writing", &Counts::writing}}) {
    metrics.RegisterCallback(
        "htd_connections", std::string("state=\"") + state + "\"", "gauge",
        [this, count] {
          return static_cast<double>(http_->connection_counts().*count);
        });
  }
  metrics.SetHelp("htd_snapshot_restored_entries",
                  "Warm-state entries the startup snapshot restore loaded "
                  "(cache, store) or dropped as outside this shard's range.");
  metrics.RegisterCallback(
      "htd_snapshot_restored_entries", "section=\"cache\"", "gauge",
      [this] { return static_cast<double>(restored_.cache_entries); });
  metrics.RegisterCallback(
      "htd_snapshot_restored_entries", "section=\"store\"", "gauge",
      [this] { return static_cast<double>(restored_.store_entries); });
  metrics.RegisterCallback(
      "htd_snapshot_restored_entries", "section=\"dropped_out_of_range\"",
      "gauge",
      [this] { return static_cast<double>(restored_.dropped_out_of_range); });
  metrics.SetHelp("htd_request_seconds", "HTTP request latency by route.");
}

DecompositionServer::~DecompositionServer() { Stop(); }

util::Status DecompositionServer::Start() {
  util::Status started = http_->Start();
  if (!started.ok()) return started;
  if (options_.anti_entropy_interval_seconds > 0) {
    anti_entropy_thread_ = std::thread([this] { AntiEntropyLoop(); });
  }
  return started;
}

void DecompositionServer::Stop() {
  if (http_ == nullptr || !http_->running()) return;
  // Refuse new admissions first (503), then keep sweeping cancellations
  // while the listener drains: a handler that passed the stopping_ check
  // can still admit one more flight behind a single CancelAll, and with no
  // deadline that flight would park its handler thread — and HttpServer::
  // Stop()'s WaitIdle — forever.
  stopping_.store(true, std::memory_order_release);
  // The sweep loop polls stopping_ between pulls; join it before tearing the
  // transport down so no pull races the listener drain.
  if (anti_entropy_thread_.joinable()) anti_entropy_thread_.join();
  // Async query jobs run on the executor, not under HttpServer's WaitIdle;
  // their closing fetch_sub is the last touch of `this`, so the destructor
  // must not return while any are in flight either. The sweep keeps going
  // until both drained, so a job parked on a probe future unblocks too.
  std::atomic<bool> http_stopped{false};
  std::thread canceller([&] {
    while (!http_stopped.load(std::memory_order_acquire) ||
           outstanding_query_jobs_.load(std::memory_order_acquire) > 0) {
      service_->CancelAll();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  http_->Stop();
  http_stopped.store(true, std::memory_order_release);
  canceller.join();
  service_->CancelAll();
  service_->Drain();
}

uint64_t DecompositionServer::TotalOutstandingJobs() const {
  // Scheduler flights (decompose jobs, sync and async) plus async query
  // jobs; the 429 bound sheds against the sum so a query flood cannot pile
  // unbounded background work behind a healthy-looking scheduler queue.
  return service_->outstanding_jobs() +
         outstanding_query_jobs_.load(std::memory_order_acquire);
}

std::shared_ptr<const ShardState> DecompositionServer::shard_state() const {
  std::lock_guard<std::mutex> lock(shard_mutex_);
  return shard_state_;
}

void DecompositionServer::SwapShardState(
    std::shared_ptr<const ShardState> next) {
  std::lock_guard<std::mutex> lock(shard_mutex_);
  shard_state_ = std::move(next);
}

uint64_t DecompositionServer::CurrentConfigDigest() const {
  // Recompute the digest the way the service did (it arms
  // solve.subproblem_store before digesting), so snapshot headers match the
  // cache keys inside.
  SolveOptions solve = options_.service.solve;
  solve.subproblem_store = service_->subproblem_store();
  return SolverConfigDigest(options_.service.solver_name, solve);
}

util::StatusOr<service::SnapshotStats> DecompositionServer::SaveSnapshotNow() {
  if (options_.snapshot_path.empty()) {
    return util::Status::FailedPrecondition(
        "no snapshot path configured (--snapshot)");
  }
  // One writer at a time: concurrent saves (two /v1/admin/snapshot requests,
  // or one racing the exit save) would interleave on the shared temp file
  // and rename a corrupt snapshot over the good one.
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  // A sharded server persists only its own fingerprint range: shard
  // snapshots never overlap, so a fleet's warm state is the disjoint union
  // of its shards' snapshot files. Mid-migration the server answers for two
  // ranges at once, so it snapshots unfiltered (restores filter anyway).
  auto state = shard_state();
  const service::FingerprintRange range =
      state != nullptr && !state->transitioning() ? state->range()
                                                  : service::FingerprintRange{};
  return service::SaveSnapshot(options_.snapshot_path,
                               service_->result_cache(),
                               service_->subproblem_store(),
                               CurrentConfigDigest(), &range);
}

HttpResponse DecompositionServer::Handle(const HttpRequest& request) {
  return Finish(Stage(request));
}

HttpServer::Staged DecompositionServer::Stage(HttpRequest request) {
  util::WallTimer timer;
  auto shared = std::make_shared<const HttpRequest>(std::move(request));
  HttpServer::Staged staged = LoopStage(shared);
  util::Histogram& latency = service_->metrics().GetHistogram(
      "htd_request_seconds",
      std::string("route=\"") + RouteLabel(shared->path) + "\"");
  if (!staged.rest) {
    latency.Observe(timer.ElapsedSeconds());
    return staged;
  }
  staged.rest = [rest = std::move(staged.rest), timer, &latency] {
    HttpResponse response = rest();
    latency.Observe(timer.ElapsedSeconds());
    return response;
  };
  return staged;
}

HttpServer::Staged DecompositionServer::LoopStage(
    const std::shared_ptr<const HttpRequest>& request) {
  const std::string& path = request->path;
  if (path == "/healthz" || path == "/v1/stats" || path == "/v1/metrics" ||
      path.rfind("/v1/jobs/", 0) == 0) {
    return {Dispatch(*request), nullptr};
  }
  if (path == "/v1/decompose" && request->method == "POST" &&
      request->body.size() <= kLoopDecomposeMaxBodyBytes) {
    return StageAdmitted(*request);
  }
  return {{}, [this, request] { return Dispatch(*request); }};
}

HttpResponse DecompositionServer::Dispatch(const HttpRequest& request) {
  if (request.path == "/healthz") {
    JsonWriter json;
    json.Object().Field("ok", true);
    return JsonResponse(json);
  }
  if (request.path == "/v1/decompose" || request.path == "/v1/query") {
    return OnlyMethod(request, "POST",
                      [&] { return Finish(StageAdmitted(request)); });
  }
  if (request.path.rfind("/v1/jobs/", 0) == 0) {
    if (request.method != "GET") {
      return JsonErrorResponse(405, "use GET for /v1/jobs/<id>");
    }
    return HandleJob(request.path.substr(sizeof("/v1/jobs/") - 1));
  }
  if (request.path == "/v1/stats") {
    return OnlyMethod(request, "GET", [&] { return HandleStats(); });
  }
  if (request.path == "/v1/metrics") {
    return OnlyMethod(request, "GET", [&] { return HandleMetrics(); });
  }
  if (request.path == "/v1/trace") {
    return OnlyMethod(request, "GET", [&] { return HandleTrace(request); });
  }
  if (request.path == "/v1/admin/snapshot") {
    return OnlyMethod(request, "POST", [&] { return HandleSnapshot(); });
  }
  if (request.path == "/v1/admin/export") {
    return OnlyMethod(request, "GET", [&] { return HandleExport(request); });
  }
  if (request.path == "/v1/admin/import") {
    return OnlyMethod(request, "POST", [&] { return HandleImport(request); });
  }
  if (request.path == "/v1/admin/migrate") {
    return OnlyMethod(request, "POST", [&] { return HandleMigrate(request); });
  }
  if (request.path == "/v1/admin/digest") {
    return OnlyMethod(request, "GET", [&] { return HandleDigest(request); });
  }
  if (request.path == "/v1/admin/antientropy") {
    return OnlyMethod(request, "POST", [&] { return HandleAntiEntropy(); });
  }
  return JsonErrorResponse(404, "unknown route: " + request.path);
}

HttpServer::Staged DecompositionServer::StageAdmitted(
    const HttpRequest& request) {
  // Adopt the request id when a proxy (the shard router) already assigned
  // one — the fleet's spans then stitch onto one root — else mint our own.
  uint64_t request_id = 0;
  auto rid = request.headers.find("x-htd-request-id");
  if (rid == request.headers.end() ||
      !util::ParseTraceId(rid->second, &request_id)) {
    request_id = util::TraceRegistry::Instance().NextId();
  }
  const RequestScope scope(request_id,
                           static_cast<uint64_t>(request.body.size()));
  if (request.path == "/v1/query") {
    std::string server_timing;
    HttpResponse response = HandleQuery(request, request_id, &server_timing);
    return {scope.Finish(std::move(response), server_timing), nullptr};
  }
  return StageDecompose(request, scope);
}

template <typename Route>
std::optional<HttpResponse> DecompositionServer::Admit(
    const HttpRequest& request, uint64_t request_id, const Route& route,
    std::shared_ptr<const typename Route::Body>* body, double* parse_seconds) {
  // In a sharded deployment, a sender that hashed against a different
  // topology must be told so, not silently served — an entry cached here
  // under a foreign range would never be found again after its snapshot is
  // filtered to this shard's slice. `sender_hashed` records that the sender
  // proved it routed with a topology this server currently accepts (its own
  // map, or — mid-migration — the incoming one); only then is its
  // fingerprint header trusted below in place of our own canonicalisation.
  auto shard = shard_state();
  bool sender_hashed = false;
  if (shard != nullptr) {
    auto digest = request.headers.find("x-htd-shard-digest");
    if (digest != request.headers.end()) {
      const service::Topology& topology = shard->topology;
      if (!topology.AcceptsDigest(digest->second)) {
        misrouted_->Add();
        return JsonErrorResponse(
            421, "shard map digest mismatch: this shard is " +
                     std::to_string(shard->index) + "/" +
                     std::to_string(topology.current().num_shards()) + " of " +
                     topology.current().Serialise() + " (digest " +
                     topology.current().DigestHex() +
                     (topology.transitioning()
                          ? ", transitioning to " + topology.incoming()->DigestHex()
                          : "") +
                     "); request was routed by digest " + digest->second);
      }
      sender_hashed = true;
    }
    auto fp_header = request.headers.find("x-htd-shard-fingerprint");
    if (fp_header != request.headers.end()) {
      service::Fingerprint fp;
      if (!service::Fingerprint::FromHex(fp_header->second, &fp)) {
        bad_requests_->Add();
        return JsonErrorResponse(400, "x-htd-shard-fingerprint must be 32 hex digits");
      }
      if (!shard->topology.Serves(shard->index, shard->new_index, fp)) {
        misrouted_->Add();
        return JsonErrorResponse(
            421, "misrouted: fingerprint " + fp_header->second +
                     " is outside shard " + std::to_string(shard->index) +
                     "'s range");
      }
    } else {
      sender_hashed = false;  // a digest without a fingerprint proves nothing
    }
  }
  if (request.body.empty()) {
    bad_requests_->Add();
    return JsonErrorResponse(400, route.empty_body);
  }

  // Shedding comes BEFORE the body parse: an overloaded server must reject
  // in O(1), not pay a parse proportional to the body it is about to refuse.
  if (stopping_.load(std::memory_order_acquire)) {
    return JsonErrorResponse(503, "server is shutting down");
  }
  // Admission control: shed rather than queue without bound. The counter is
  // sampled lock-free and approximate (see the header comment); overshoot
  // on the order of the IO and loop thread counts is within the bound's
  // semantics (docs/SERVER.md).
  if (TotalOutstandingJobs() >=
      static_cast<uint64_t>(options_.max_queue_depth)) {
    shed_->Add();
    return RetryLaterResponse(
        429, "queue full: " + std::to_string(options_.max_queue_depth) +
                 " jobs outstanding; retry later");
  }

  // The parse stage is timed unconditionally (histogram) and recorded as a
  // span when the request is traced. The WallTimer is the ground truth —
  // TraceScope::Seconds() is 0 when tracing is off.
  util::WallTimer parse_timer;
  auto parsed = [&] {
    util::TraceScope span("parse", util::TraceParent{request_id, request_id},
                          static_cast<uint64_t>(request.body.size()));
    return route.parse(request.body);
  }();
  *parse_seconds = parse_timer.ElapsedSeconds();
  service_->ObserveParseSeconds(*parse_seconds);
  if (!parsed.ok()) {
    bad_requests_->Add();
    return JsonErrorResponse(400, route.parse_error + parsed.status().message());
  }
  if (shard != nullptr && !sender_hashed) {
    // The sender did not prove it hashed with an accepted map (no digest
    // header, or no fingerprint header to go with it — e.g. a client
    // talking to a shard directly, without --shards, or one sending a
    // crafted fingerprint alone). Enforce the range on OUR fingerprint:
    // admitting would warm a foreign range — the entry would be invisible
    // to correctly-routed traffic and silently dropped by the next
    // range-filtered snapshot. (When both headers are present and the
    // digest matches, the sender demonstrably ran IndexFor on an accepted
    // topology; recomputing here would double-pay canonicalisation on
    // every routed request.)
    const service::Fingerprint fp = route.fingerprint(*parsed);
    if (!shard->topology.Serves(shard->index, shard->new_index, fp)) {
      misrouted_->Add();
      return JsonErrorResponse(
          421, std::string("misrouted: ") + route.subject + " fingerprint " +
                   fp.ToHex() + " belongs to shard " +
                   std::to_string(shard->topology.current().IndexFor(fp)) +
                   ", this is shard " + std::to_string(shard->index) +
                   " (route via the shard map)");
    }
  }
  admitted_->Add();
  *body = std::make_shared<const typename Route::Body>(std::move(*parsed));
  return std::nullopt;
}

HttpResponse DecompositionServer::Serialise(
    uint64_t request_id, const std::function<void(JsonWriter&)>& write,
    double* seconds) {
  util::WallTimer timer;
  HttpResponse response;
  {
    util::TraceScope span("serialise", util::TraceParent{request_id, request_id});
    JsonWriter json;
    write(json.Object());
    response = JsonResponse(json);
  }
  *seconds = timer.ElapsedSeconds();
  service_->ObserveSerialiseSeconds(*seconds);
  return response;
}

HttpServer::Staged DecompositionServer::StageDecompose(
    const HttpRequest& request, const RequestScope& scope) {
  const uint64_t request_id = scope.id();
  auto done = [&](HttpResponse response) -> HttpServer::Staged {
    return {scope.Finish(std::move(response)), nullptr};
  };
  long k;
  if (!util::ParseIntFlag(request.QueryOr("k", ""), 1, options_.max_k, &k)) {
    bad_requests_->Add();
    return done(JsonErrorResponse(
        400, "query parameter k must be an integer in [1, " +
                 std::to_string(options_.max_k) + "]"));
  }
  const std::optional<double> timeout =
      ParseTimeout(request, service_->options().default_timeout_seconds);
  if (!timeout.has_value()) {
    bad_requests_->Add();
    return done(
        JsonErrorResponse(400, "query parameter timeout must be seconds >= 0"));
  }
  const bool async = request.QueryOr("async", "0") == "1";
  const bool include_decomposition = request.QueryOr("decomposition", "0") == "1";
  std::shared_ptr<const Hypergraph> graph;
  double parse_seconds = 0;
  if (auto refused =
          Admit(request, request_id, kDecomposeRoute, &graph, &parse_seconds)) {
    return done(*std::move(refused));
  }

  // Sync requests ride the executor's interactive lane (a client is parked
  // on the answer); polled async jobs take the lower-priority async lane.
  // A cache hit comes back as a ready future.
  std::shared_future<service::JobResult> job =
      service_
          ->Submit(*graph, static_cast<int>(k), *timeout,
                   util::TraceParent{request_id, request_id},
                   async ? util::Executor::Lane::kAsync
                         : util::Executor::Lane::kSync)
          .share();
  if (async) {
    return done(FileJob(
        "j", {[job] { return Ready(job); },
              [job, graph, include_decomposition](JsonWriter& json) {
                WriteResult(json.Object("result"), job.get(), *graph,
                            include_decomposition);
                json.End();
              }}));
  }

  auto answer = [this, scope, job, graph, include_decomposition,
                 parse_seconds] {
    const service::JobResult& result = job.get();
    double serialise_seconds = 0;
    HttpResponse response = Serialise(
        scope.id(),
        [&](JsonWriter& json) {
          WriteResult(json, result, *graph, include_decomposition);
        },
        &serialise_seconds);
    return scope.Finish(
        std::move(response),
        ServerTiming({{"parse", parse_seconds},
                      {"fingerprint", result.stages.fingerprint_seconds},
                      {"cache", result.stages.cache_seconds},
                      {"schedule", result.stages.schedule_seconds},
                      {"solve", result.stages.solve_seconds},
                      {"serialise", serialise_seconds}}));
  };
  // A miss waits on its flight, and waiting belongs on the IO pool.
  if (!Ready(job)) return {{}, answer};
  return {answer(), nullptr};
}

HttpResponse DecompositionServer::HandleQuery(const HttpRequest& request,
                                              uint64_t request_id,
                                              std::string* server_timing) {
  const std::optional<double> timeout =
      ParseTimeout(request, service_->options().default_timeout_seconds);
  if (!timeout.has_value()) {
    bad_requests_->Add();
    return JsonErrorResponse(400, "query parameter timeout must be seconds >= 0");
  }
  const bool async = request.QueryOr("async", "0") == "1";
  const std::string count_param = request.QueryOr("count", "");
  if (!count_param.empty() && count_param != "0" && count_param != "1") {
    bad_requests_->Add();
    return JsonErrorResponse(400, "query parameter count must be 0 or 1");
  }
  std::optional<bool> count_override;
  if (!count_param.empty()) count_override = count_param == "1";
  std::shared_ptr<const qa::QueryRequest> query;
  double parse_seconds = 0;
  if (auto refused =
          Admit(request, request_id, kQueryRoute, &query, &parse_seconds)) {
    return *refused;
  }
  const util::TraceParent trace{request_id, request_id};

  if (async) {
    // The answer runs as a background-lane task on the fleet-wide executor:
    // QueryEngine::Answer blocks on probe flights served by the same
    // executor, which is safe because a worker waiting on them helps run
    // sync/async-lane work (Executor::HelpWhileWaiting) and the background
    // lane is excluded from helping, so query jobs can't recursively stack.
    // The outstanding counter makes the job visible to the 429 bound and
    // lets Stop() wait it out; its decrement is the task's last touch of
    // `this`.
    auto promise =
        std::make_shared<std::promise<util::StatusOr<qa::QueryAnswer>>>();
    std::shared_future<util::StatusOr<qa::QueryAnswer>> answer =
        promise->get_future().share();
    outstanding_query_jobs_.fetch_add(1, std::memory_order_acq_rel);
    service_->executor().Submit(
        [this, query, timeout, trace, count_override, promise] {
          try {
            promise->set_value(query_engine_->Answer(
                query->query, query->db, *timeout, trace, count_override));
          } catch (...) {
            promise->set_value(
                util::Status::Internal("query job failed with an exception"));
          }
          outstanding_query_jobs_.fetch_sub(1, std::memory_order_acq_rel);
        },
        util::Executor::Lane::kBackground);
    return FileJob("q", {[answer] { return Ready(answer); },
                         [answer](JsonWriter& json) {
                           const auto& resolved = answer.get();
                           if (!resolved.ok()) {
                             json.Field("error", resolved.status().message());
                             return;
                           }
                           WriteQueryAnswer(json.Object("result"), *resolved);
                           json.End();
                         }});
  }

  auto answer = query_engine_->Answer(query->query, query->db, *timeout, trace,
                                      count_override);
  if (!answer.ok()) {
    if (answer.status().code() == util::StatusCode::kInvalidArgument) {
      bad_requests_->Add();
      return JsonErrorResponse(400, answer.status().message());
    }
    return JsonErrorResponse(500, answer.status().message());
  }
  double serialise_seconds = 0;
  HttpResponse response = Serialise(
      request_id, [&](JsonWriter& json) { WriteQueryAnswer(json, *answer); },
      &serialise_seconds);
  *server_timing = ServerTiming({{"parse", parse_seconds},
                                 {"decompose", answer->decompose_seconds},
                                 {"pick", answer->pick_seconds},
                                 {"execute", answer->execute_seconds},
                                 {"serialise", serialise_seconds}});
  return response;
}

HttpResponse DecompositionServer::FileJob(const char* prefix, AsyncJob job) {
  const std::string id =
      prefix + std::to_string(next_job_id_.fetch_add(1, std::memory_order_relaxed));
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_.emplace(id, std::move(job));
    job_order_.push_back(id);
    // Evict the oldest *resolved* records over the retention cap; unresolved
    // jobs stay queryable (their count is bounded by admission control).
    for (auto it = job_order_.begin();
         jobs_.size() > kMaxRetainedJobs && it != job_order_.end();) {
      auto found = jobs_.find(*it);
      if (found != jobs_.end() && found->second.done()) {
        jobs_.erase(found);
        it = job_order_.erase(it);
      } else {
        ++it;
      }
    }
  }
  JsonWriter json;
  json.Object().Field("job", id).Field("state", "admitted");
  return JsonResponse(json, 202);
}

HttpResponse DecompositionServer::HandleJob(const std::string& id) {
  AsyncJob job;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return JsonErrorResponse(404, "unknown job id: " + id);
    }
    job = it->second;
  }
  JsonWriter json;
  json.Object().Field("job", id);
  if (job.done()) {
    job.render(json.Field("state", "done"));
  } else {
    json.Field("state", "running");
  }
  return JsonResponse(json);
}

HttpResponse DecompositionServer::HandleStats() {
  // One registry collection: every counter is sampled exactly once, in an
  // order where derived counts precede the totals bounding them, so one
  // poll never reports, e.g., more cache hits than submissions.
  JsonWriter json;
  json.Object().Raw("metrics",
                    RenderMetricsJson(service_->metrics().Collect()));
  auto shard = shard_state();
  json.Object("shard").Field("enabled", shard != nullptr);
  if (shard != nullptr) {
    const service::Topology& topology = shard->topology;
    json.Field("index", shard->index)
        .Field("count", topology.current().num_shards())
        .Field("digest", topology.current().DigestHex())
        .Field("range", shard->range().ToHex())
        .Field("transitioning", topology.transitioning());
    if (topology.transitioning()) {
      json.Field("new_digest", topology.incoming()->DigestHex())
          .Field("new_index", shard->new_index);
      if (shard->new_index >= 0) {
        json.Field("new_range",
                   topology.incoming()->RangeFor(shard->new_index).ToHex());
      }
    }
  }
  json.End()
      .Object("config")
      .Field("max_queue_depth", options_.max_queue_depth)
      .Field("max_connections", options_.http.max_connections)
      .Raw("anti_entropy_interval_seconds",
           util::FormatMetricValue(options_.anti_entropy_interval_seconds))
      .Field("subproblem_store", service_->options().enable_subproblem_store)
      .Field("snapshot_path", options_.snapshot_path);
  return JsonResponse(json);
}

HttpResponse DecompositionServer::HandleMetrics() {
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = service_->metrics().RenderPrometheus();
  return response;
}

HttpResponse DecompositionServer::HandleSnapshot() {
  auto saved = SaveSnapshotNow();
  if (!saved.ok()) {
    int status =
        saved.status().code() == util::StatusCode::kFailedPrecondition ? 412 : 500;
    return JsonErrorResponse(status, saved.status().message());
  }
  JsonWriter json;
  json.Object()
      .Field("saved", true)
      .Field("cache_entries", saved->cache_entries)
      .Field("store_entries", saved->store_entries)
      .Field("bytes", saved->bytes);
  return JsonResponse(json);
}

HttpResponse DecompositionServer::HandleExport(const HttpRequest& request) {
  service::FingerprintRange range;
  const std::string range_text = request.QueryOr("range", "");
  if (range_text.empty()) {
    // No range = everything this server holds (an operator copy drill).
  } else if (!service::FingerprintRange::FromHex(range_text, &range)) {
    return JsonErrorResponse(400, "query parameter range must be HEX-HEX "
                                  "(fingerprint hi bounds, inclusive)");
  }
  service::SnapshotStats written;
  std::string blob = service::EncodeSnapshot(
      service_->result_cache(), service_->subproblem_store(),
      CurrentConfigDigest(), range_text.empty() ? nullptr : &range, &written);
  HttpResponse response;
  response.content_type = "application/octet-stream";
  response.headers.emplace_back("X-HTD-Cache-Entries",
                                std::to_string(written.cache_entries));
  response.headers.emplace_back("X-HTD-Store-Entries",
                                std::to_string(written.store_entries));
  response.body = std::move(blob);
  return response;
}

std::optional<HttpResponse> DecompositionServer::RefuseForeignDigest(
    const HttpRequest& request, const ShardState* shard, const char* routed) {
  if (shard == nullptr) return std::nullopt;
  auto digest = request.headers.find("x-htd-shard-digest");
  const service::Topology& topology = shard->topology;
  if (digest == request.headers.end() ||
      topology.AcceptsDigest(digest->second)) {
    return std::nullopt;
  }
  misrouted_->Add();
  return JsonErrorResponse(
      421, std::string(routed) + " " + digest->second +
               " but this shard accepts " + topology.current().DigestHex() +
               (topology.transitioning()
                    ? " or " + topology.incoming()->DigestHex()
                    : ""));
}

HttpResponse DecompositionServer::HandleImport(const HttpRequest& request) {
  if (request.body.empty()) {
    return JsonErrorResponse(400, "empty body: expected a snapshot blob "
                                  "(service/persistence.h format)");
  }
  auto shard = shard_state();
  if (auto refused = RefuseForeignDigest(request, shard.get(),
                                         "import routed by digest")) {
    return *refused;
  }
  // Filter to the accepted slice of the key space; a migration push built
  // against the right map never loses entries to this (the sender already
  // cut the blob to our range), while a mis-aimed blob is trimmed instead
  // of poisoning a foreign range.
  service::FingerprintRange covering;
  const service::FingerprintRange* range = nullptr;
  if (shard != nullptr) {
    covering = shard->topology.Covering(shard->index, shard->new_index);
    range = &covering;
  }
  auto imported = service::DecodeSnapshot(request.body,
                                          service_->result_cache(),
                                          service_->subproblem_store(), range);
  if (!imported.ok()) {
    bad_requests_->Add();
    return JsonErrorResponse(400, "cannot import snapshot blob: " +
                                      imported.status().message());
  }
  imported_cache_entries_->Add(imported->cache_entries);
  imported_store_entries_->Add(imported->store_entries);
  JsonWriter json;
  json.Object()
      .Field("imported", true)
      .Field("cache_entries", imported->cache_entries)
      .Field("store_entries", imported->store_entries)
      .Field("dropped_out_of_range", imported->dropped_out_of_range);
  return JsonResponse(json);
}

HttpResponse DecompositionServer::HandleMigrate(const HttpRequest& request) {
  // One migration flow at a time; begin, re-drive, and finalise serialise.
  std::lock_guard<std::mutex> migrate_lock(migrate_mutex_);
  auto shard = shard_state();
  if (shard == nullptr) {
    return JsonErrorResponse(412, "not a sharded server: /v1/admin/migrate needs "
                                  "--shard-map/--shard-index");
  }
  if (stopping_.load(std::memory_order_acquire)) {
    return JsonErrorResponse(503, "server is shutting down");
  }

  if (request.QueryOr("finalise", "0") == "1") {
    auto completed = shard->topology.Complete();
    if (!completed.ok()) {
      return JsonErrorResponse(412, completed.status().message());
    }
    if (shard->new_index < 0) {
      return JsonErrorResponse(412, "this backend is leaving the fleet "
                                    "(new_index=-1); shut it down instead of "
                                    "finalising");
    }
    auto next = std::make_shared<const ShardState>(
        ShardState{std::move(completed).value(), shard->new_index});
    SwapShardState(next);
    JsonWriter json;
    json.Object()
        .Field("finalised", true)
        .Field("digest", next->topology.current().DigestHex())
        .Field("index", next->index)
        .Field("range", next->range().ToHex());
    return JsonResponse(json);
  }

  long new_index;
  if (!util::ParseIntFlag(request.QueryOr("new_index", "-1"), -1, 4095,
                          &new_index)) {
    return JsonErrorResponse(400, "query parameter new_index must be an integer "
                                  ">= -1 (-1 = this backend leaves the fleet)");
  }
  // `self` is this process's own endpoint as it appears in the new map. The
  // server cannot know its public host:port, and it matters when the new
  // map REPLICATES this server's own range: the retained slice must be
  // pushed to the new sibling replicas (minus self) or they come up cold.
  // Without `self` the own-range push is skipped entirely — a self-push
  // would tie up an IO thread talking to itself.
  const std::string self_text = request.QueryOr("self", "");
  std::optional<service::ShardEndpoint> self;
  if (!self_text.empty()) {
    self = service::ShardEndpoint::Parse(self_text);
    if (!self.has_value()) {
      return JsonErrorResponse(400, "query parameter self must be host:port");
    }
  }
  auto new_map = ParseMapSpecBody(request.body);
  if (!new_map.ok()) return JsonErrorResponse(400, new_map.status().message());
  if (new_index >= new_map->num_shards()) {
    return JsonErrorResponse(400, "new_index " + std::to_string(new_index) +
                                      " is outside the new map (" +
                                      std::to_string(new_map->num_shards()) +
                                      " shards)");
  }
  auto begun = shard->topology.Begin(*new_map);
  if (!begun.ok()) {
    return JsonErrorResponse(
        begun.status().code() == util::StatusCode::kFailedPrecondition ? 409
                                                                       : 400,
        begun.status().message());
  }
  if (shard->transitioning() && shard->new_index != new_index) {
    return JsonErrorResponse(
        409, "a different migration is already in flight (to digest " +
                 new_map->DigestHex() + ", new_index " +
                 std::to_string(shard->new_index) +
                 "); finalise or restart it with the same arguments");
  }

  // Install the transitioning state BEFORE streaming anything out: from
  // here on this server accepts requests routed by either digest and
  // imports for its new range, so traffic keeps flowing mid-handover.
  // (Re-driving an identical in-flight migration is idempotent — pushes go
  // through the dominance-checked import path.)
  shard = std::make_shared<const ShardState>(ShardState{
      std::move(begun).value(), shard->index, static_cast<int>(new_index)});
  SwapShardState(shard);

  // ?prepare=1 stops here: the orchestrator (tools/hdreshard.cc) prepares
  // EVERY old backend before any of them streams, because migration pushes
  // carry the NEW digest — a receiver that has not yet learned the incoming
  // topology would refuse them with 421.
  JsonWriter json;
  if (request.QueryOr("prepare", "0") == "1") {
    json.Object()
        .Field("prepared", true)
        .Field("transitioning", true)
        .Field("new_digest", new_map->DigestHex())
        .Field("new_index", shard->new_index);
    return JsonResponse(json);
  }

  // Stream the entries leaving this range to their new owners — and, when
  // the new map replicates our OWN range, the retained slice to the new
  // sibling replicas: cut a snapshot blob per overlapping new range and
  // push it to every replica of that range (minus ourselves).
  bool all_ok = true;
  uint64_t moved = 0;
  JsonWriter targets;
  const service::FingerprintRange own = shard->range();
  for (int j = 0; j < new_map->num_shards(); ++j) {
    if (j == shard->new_index && !self.has_value()) continue;
    const service::FingerprintRange owner = new_map->RangeFor(j);
    const service::FingerprintRange leaving{
        std::max(own.first_hi, owner.first_hi),
        std::min(own.last_hi, owner.last_hi)};
    if (leaving.first_hi > leaving.last_hi) continue;  // disjoint
    service::SnapshotStats written;
    std::string blob = service::EncodeSnapshot(
        service_->result_cache(), service_->subproblem_store(),
        CurrentConfigDigest(), &leaving, &written);
    const uint64_t entries = written.cache_entries + written.store_entries;
    bool pushed_any = false;
    for (int r = 0; r < new_map->num_replicas(j); ++r) {
      const service::ShardEndpoint& target = new_map->replica(j, r);
      if (self.has_value() && target == *self) continue;
      FetchOptions fetch;
      fetch.read_timeout_seconds = kMigratePushTimeoutSeconds;
      FetchResult pushed =
          entries == 0
              ? FetchResult{FetchResult::Transport::kOk, 200, {}, "", ""}
              : HttpFetch(target.host, target.port, "POST", "/v1/admin/import",
                          blob,
                          {{"X-HTD-Shard-Digest", new_map->DigestHex()}},
                          fetch);
      pushed_any = true;
      const bool ok = pushed.ok() && pushed.status == 200;
      all_ok = all_ok && ok;
      targets.Object()
          .Field("range", j)
          .Field("endpoint", target.host + ":" + std::to_string(target.port))
          .Field("cache_entries", written.cache_entries)
          .Field("store_entries", written.store_entries)
          .Field("status", pushed.ok() ? pushed.status : 0);
      if (!pushed.ok()) targets.Field("error", pushed.error);
      targets.End();
    }
    if (pushed_any) moved += entries;
  }
  migrated_out_entries_->Add(moved);

  json.Object()
      .Field("migrated", all_ok)
      .Field("transitioning", true)
      .Field("new_digest", new_map->DigestHex())
      .Field("new_index", shard->new_index)
      .Field("entries_out", moved)
      .Raw("targets", "[" + targets.Finish() + "]");
  // Partial pushes are a gateway-level failure: some new owner did NOT
  // receive its slice, and the operator must re-drive before finalising.
  return JsonResponse(json, all_ok ? 200 : 502);
}

HttpResponse DecompositionServer::HandleDigest(const HttpRequest& request) {
  auto shard = shard_state();
  if (auto refused = RefuseForeignDigest(
          request, shard.get(), "digest request routed by shard-map digest")) {
    return *refused;
  }
  // Default to the slice of the key space this server owns (everything when
  // unsharded); an explicit ?range= narrows or widens it — e.g. a sweep
  // asking a transitioning sibling about the OLD range only.
  service::FingerprintRange range;
  if (shard != nullptr) range = shard->range();
  const std::string range_text = request.QueryOr("range", "");
  if (!range_text.empty() &&
      !service::FingerprintRange::FromHex(range_text, &range)) {
    return JsonErrorResponse(400, "query parameter range must be HEX-HEX "
                                  "(fingerprint hi bounds, inclusive)");
  }
  long slices;
  if (!util::ParseIntFlag(
          request.QueryOr("slices", std::to_string(options_.anti_entropy_slices)),
          1, 4096, &slices)) {
    return JsonErrorResponse(400,
                             "query parameter slices must be an integer in [1, 4096]");
  }
  HttpResponse response;
  response.content_type = "text/plain; charset=utf-8";
  response.body = service::RenderDigestSummary(service::ComputeDigestSummary(
      service_->result_cache(), service_->subproblem_store(),
      CurrentConfigDigest(), range, static_cast<int>(slices)));
  return response;
}

HttpResponse DecompositionServer::HandleAntiEntropy() {
  auto swept = RunAntiEntropySweep();
  if (!swept.ok()) {
    int status = swept.status().code() == util::StatusCode::kFailedPrecondition
                     ? 412
                     : 500;
    return JsonErrorResponse(status, swept.status().message());
  }
  JsonWriter json;
  json.Object()
      .Field("swept", true)
      .Field("siblings", swept->siblings)
      .Field("slices_pulled", swept->slices_pulled)
      .Field("cache_entries", swept->cache_entries)
      .Field("store_entries", swept->store_entries)
      .Field("bytes", swept->bytes)
      .Field("errors", swept->errors);
  // Partial failures mirror the migrate contract: some sibling did not
  // complete its exchange, so the operator (or the next round) must re-drive.
  return JsonResponse(json, swept->errors == 0 ? 200 : 502);
}

void DecompositionServer::AntiEntropyLoop() {
  const auto interval = std::chrono::duration<double>(
      options_.anti_entropy_interval_seconds);
  auto next = std::chrono::steady_clock::now() + interval;
  while (!stopping_.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() < next) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }
    // Outcomes land in the htd_antientropy_* counters; a failed round is not
    // fatal to the loop (the next interval retries from the new digests).
    auto swept = RunAntiEntropySweep();
    (void)swept;
    next = std::chrono::steady_clock::now() + interval;
  }
}

service::ShardEndpoint DecompositionServer::SelfEndpoint(
    const ShardState& state) const {
  if (ae_self_.has_value()) return *ae_self_;
  // Fall back to matching the listen port against the replica group —
  // unambiguous whenever replica ports are distinct per host (loopback test
  // fleets always are). No match returns an empty endpoint: Siblings() then
  // yields the whole group, and the self-pull is a digest-equal no-op.
  for (const service::ShardEndpoint& candidate :
       state.topology.current().replicas(state.index)) {
    if (candidate.port == port()) return candidate;
  }
  return service::ShardEndpoint{};
}

util::StatusOr<DecompositionServer::SweepResult>
DecompositionServer::RunAntiEntropySweep() {
  // One round at a time: the background loop and a forced
  // /v1/admin/antientropy must not interleave their pulls.
  std::lock_guard<std::mutex> sweep_lock(ae_mutex_);
  auto state = shard_state();
  if (state == nullptr) {
    return util::Status::FailedPrecondition(
        "not a sharded server: anti-entropy needs --shard-map/--shard-index");
  }
  if (state->transitioning()) {
    // Mid-migration the range boundaries are moving; reconciling against
    // them would tug entries back and forth. Skip; the loop retries after
    // the finalise.
    ae_rounds_skipped_->Add();
    return util::Status::FailedPrecondition(
        "migration in flight; anti-entropy resumes after finalise");
  }
  const std::vector<service::ShardEndpoint> siblings =
      state->topology.current().Siblings(state->index, SelfEndpoint(*state));
  SweepResult result;
  result.siblings = static_cast<int>(siblings.size());
  if (siblings.empty()) {
    ae_rounds_skipped_->Add();
    return result;  // unreplicated range: nothing to reconcile
  }

  util::TraceScope sweep_span("ae_sweep",
                              static_cast<uint64_t>(siblings.size()));
  const uint64_t config_digest = CurrentConfigDigest();
  const service::FingerprintRange range = state->range();
  const std::string& map_digest = state->topology.current().DigestHex();
  service::DigestSummary local = service::ComputeDigestSummary(
      service_->result_cache(), service_->subproblem_store(), config_digest,
      range, options_.anti_entropy_slices);
  const std::string digest_target =
      "/v1/admin/digest?range=" + range.ToHex() +
      "&slices=" + std::to_string(options_.anti_entropy_slices);
  FetchOptions fetch;
  fetch.read_timeout_seconds = kAntiEntropyPullTimeoutSeconds;

  for (size_t s = 0; s < siblings.size(); ++s) {
    if (stopping_.load(std::memory_order_acquire)) break;
    const service::ShardEndpoint& sibling = siblings[s];
    util::TraceScope pull_span("ae_pull", static_cast<uint64_t>(sibling.port));
    uint64_t merged_cache = 0;
    uint64_t merged_store = 0;
    FetchResult digest_response = HttpFetch(
        sibling.host, sibling.port, "GET", digest_target, "",
        {{"X-HTD-Shard-Digest", map_digest}}, fetch);
    if (!digest_response.ok() || digest_response.status != 200) {
      ++result.errors;
      continue;
    }
    auto remote = service::ParseDigestSummary(digest_response.body);
    if (!remote.ok()) {
      // Corrupt digest: abort this sibling's exchange before any pull — a
      // garbled summary must trigger zero imports.
      ++result.errors;
      continue;
    }
    if (remote->config_digest != local.config_digest) {
      // Incomparable warm state (different solver config); not an error,
      // but nothing can be merged either.
      continue;
    }
    if (remote->slices.size() != local.slices.size()) {
      ++result.errors;
      continue;
    }
    bool aligned = true;
    for (size_t i = 0; i < local.slices.size(); ++i) {
      if (!(remote->slices[i].range == local.slices[i].range)) {
        aligned = false;
        break;
      }
    }
    if (!aligned) {
      ++result.errors;
      continue;
    }
    bool sibling_ok = true;
    for (size_t i = 0; i < local.slices.size(); ++i) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (remote->slices[i].digest == local.slices[i].digest) continue;
      ++result.slices_pulled;
      FetchResult blob = HttpFetch(
          sibling.host, sibling.port, "GET",
          "/v1/admin/export?range=" + local.slices[i].range.ToHex(), "",
          {{"X-HTD-Shard-Digest", map_digest}}, fetch);
      if (!blob.ok() || blob.status != 200) {
        ++result.errors;
        sibling_ok = false;
        break;
      }
      // DecodeSnapshot stages the whole blob before touching the live
      // state, so a truncated or bit-flipped transfer merges nothing.
      auto merged = service::DecodeSnapshot(
          blob.body, service_->result_cache(), service_->subproblem_store(),
          &local.slices[i].range);
      if (!merged.ok()) {
        ++result.errors;
        sibling_ok = false;
        break;
      }
      result.bytes += blob.body.size();
      merged_cache += merged->cache_entries;
      merged_store += merged->store_entries;
    }
    result.cache_entries += merged_cache;
    result.store_entries += merged_store;
    // What we merged from this sibling changes OUR digests; recompute before
    // comparing against the next sibling or its unchanged slices would look
    // spuriously different.
    if (sibling_ok && merged_cache + merged_store > 0 &&
        s + 1 < siblings.size()) {
      local = service::ComputeDigestSummary(
          service_->result_cache(), service_->subproblem_store(), config_digest,
          range, options_.anti_entropy_slices);
    }
  }

  ae_entries_cache_->Add(result.cache_entries);
  ae_entries_store_->Add(result.store_entries);
  ae_bytes_->Add(result.bytes);
  if (result.errors == 0) {
    ae_rounds_ok_->Add();
  } else {
    ae_rounds_error_->Add();
  }
  return result;
}

}  // namespace htd::net
