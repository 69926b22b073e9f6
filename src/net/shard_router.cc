#include "net/shard_router.h"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <functional>
#include <set>

#include "net/http_client.h"
#include "net/json.h"
#include "net/routes.h"
#include "net/trace_json.h"
#include "util/cli.h"
#include "util/timer.h"

namespace htd::net {

namespace {

/// Ceiling of the doubling per-endpoint backoff after transport failures.
constexpr double kBackoffMaxSeconds = 30.0;

/// Inserts `prefix` in front of the job id in a 202/200 job body.
void PrefixJobIdRaw(HttpResponse* response, const std::string& prefix) {
  const std::string marker = "\"job\": \"";
  size_t pos = response->body.find(marker);
  if (pos != std::string::npos) {
    response->body.insert(pos + marker.size(), prefix);
  }
}

/// Prefixes the job id in a 202 body with the shard AND replica that minted
/// it ("j7" -> "s1r0.j7") so a later GET /v1/jobs/<id> can route statelessly
/// to the exact process. The replica matters: backends mint their own local
/// counters, so "j7" on replica 0 and "j7" on replica 1 are DIFFERENT jobs.
void PrefixJobId(HttpResponse* response, int shard, int replica) {
  PrefixJobIdRaw(response,
                 "s" + std::to_string(shard) + "r" + std::to_string(replica) +
                     ".");
}

}  // namespace

ShardRouter::ShardRouter(ShardRouterOptions options)
    : options_(std::move(options)),
      topology_(std::make_shared<const service::Topology>(options_.map)) {
  metrics_.SetHelp("htd_router_request_seconds",
                   "Router HTTP request latency by route (includes the "
                   "forwarded exchange).");
}

std::shared_ptr<const service::Topology> ShardRouter::topology() const {
  std::lock_guard<std::mutex> lock(topology_mutex_);
  return topology_;
}

bool ShardRouter::transitioning() const {
  return topology()->transitioning();
}

template <typename Step>
util::Status ShardRouter::Transition(const Step& step) {
  std::lock_guard<std::mutex> lock(topology_mutex_);
  util::StatusOr<service::Topology> next = step(*topology_);
  if (!next.ok()) return next.status();
  topology_ = std::make_shared<const service::Topology>(std::move(next).value());
  return util::Status::Ok();
}

util::Status ShardRouter::BeginTransition(const service::ShardMap& new_map) {
  return Transition(
      [&](const service::Topology& topology) { return topology.Begin(new_map); });
}

util::Status ShardRouter::CompleteTransition() {
  return Transition(std::mem_fn(&service::Topology::Complete));
}

util::Status ShardRouter::AbortTransition() {
  return Transition(std::mem_fn(&service::Topology::Abort));
}

std::vector<ShardRouter::AddressedEndpoint> ShardRouter::AddressedEndpoints(
    const service::Topology& topology) {
  std::vector<AddressedEndpoint> out;
  std::set<std::string> seen;
  for (const service::ShardMap* map : {&topology.current(), topology.incoming()}) {
    if (map == nullptr) continue;
    for (service::ShardMap::Member& member : map->Members()) {
      if (!seen.insert(HealthKey(member.endpoint)).second) continue;
      out.push_back({std::move(member), map, map != &topology.current()});
    }
  }
  return out;
}

std::vector<ShardRouter::ShardStats> ShardRouter::shard_stats() const {
  return StatsForTargets(AddressedEndpoints(*topology()));
}

std::vector<ShardRouter::ShardStats> ShardRouter::StatsForTargets(
    const std::vector<AddressedEndpoint>& targets) const {
  std::vector<ShardStats> out;
  out.reserve(targets.size());
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(health_mutex_);
  for (const AddressedEndpoint& target : targets) {
    ShardStats stats;
    stats.host = target.member.endpoint.host;
    stats.port = target.member.endpoint.port;
    stats.range = target.member.range;
    stats.replica = target.member.replica;
    stats.new_map_only = target.new_map_only;
    auto it = health_.find(HealthKey(target.member.endpoint));
    if (it != health_.end()) {
      stats.forwarded = it->second.forwarded;
      stats.transport_errors = it->second.transport_errors;
      stats.backoff_shed = it->second.backoff_shed;
      stats.consecutive_failures = it->second.consecutive_failures;
      stats.backing_off = it->second.retry_at > now;
    }
    out.push_back(std::move(stats));
  }
  return out;
}

bool ShardRouter::InBackoff(const std::string& key) {
  std::lock_guard<std::mutex> lock(health_mutex_);
  EndpointHealth& health = health_[key];
  if (health.retry_at > std::chrono::steady_clock::now()) {
    ++health.backoff_shed;
    return true;
  }
  return false;
}

void ShardRouter::RecordSuccess(const std::string& key) {
  std::lock_guard<std::mutex> lock(health_mutex_);
  health_[key].consecutive_failures = 0;
  health_[key].retry_at = {};
}

void ShardRouter::RecordFailure(const std::string& key) {
  std::lock_guard<std::mutex> lock(health_mutex_);
  EndpointHealth& health = health_[key];
  ++health.transport_errors;
  health.consecutive_failures =
      std::min(health.consecutive_failures + 1, 30);  // cap the shift below
  const double backoff =
      std::min(kBackoffMaxSeconds,
               options_.backoff_base_seconds *
                   static_cast<double>(1ULL << (health.consecutive_failures - 1)));
  health.retry_at = std::chrono::steady_clock::now() +
                    std::chrono::microseconds(static_cast<int64_t>(backoff * 1e6));
}

HttpResponse ShardRouter::ForwardToEndpoint(
    const service::ShardEndpoint& endpoint, const std::string& digest_hex,
    const std::string& method, const std::string& target,
    const std::string& body, const std::string& fingerprint_hex,
    const std::string& request_id_hex, double read_timeout_seconds,
    bool* transport_failed) {
  const std::string key = HealthKey(endpoint);
  *transport_failed = true;
  if (InBackoff(key)) {
    return RetryLaterResponse(
        503, "endpoint " + key +
                 " is backing off after transport failures; retry later");
  }
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    ++health_[key].forwarded;
  }

  FetchHeaders headers;
  // Single-hop marker: a router receiving this answers 508, never forwards.
  headers.emplace_back("X-HTD-Forwarded", "1");
  headers.emplace_back("X-HTD-Shard-Digest", digest_hex);
  if (!fingerprint_hex.empty()) {
    headers.emplace_back("X-HTD-Shard-Fingerprint", fingerprint_hex);
  }
  if (!request_id_hex.empty()) {
    // The backend adopts this as its root span id, stitching its trace onto
    // the router's "route" span under one request id.
    headers.emplace_back("X-HTD-Request-Id", request_id_hex);
  }
  FetchOptions fetch;
  fetch.connect_timeout_seconds = options_.connect_timeout_seconds;
  fetch.read_timeout_seconds = read_timeout_seconds;
  FetchResult result = upstream_.Fetch(endpoint.host, endpoint.port, method,
                                      target, body, headers, fetch);
  if (!result.ok()) {
    RecordFailure(key);
    switch (result.transport) {
      case FetchResult::Transport::kConnectFailed:
        return RetryLaterResponse(
            503, "endpoint " + key + " unreachable: " + result.error);
      case FetchResult::Transport::kRecvTimeout:
        return JsonErrorResponse(504, "endpoint " + key + " response timed out");
      case FetchResult::Transport::kParseFailed:
        return JsonErrorResponse(502, "endpoint " + key +
                                          " sent a malformed HTTP response");
      default:
        return JsonErrorResponse(502, "exchange with endpoint " + key +
                                          " failed: " + result.error);
    }
  }
  RecordSuccess(key);
  *transport_failed = false;

  // Pass the endpoint's answer through verbatim — status (incl. its own
  // 429/503 load shedding), Retry-After, and body; the client's backoff
  // logic works unchanged behind the router.
  HttpResponse response;
  response.status = result.status;
  response.body = std::move(result.body);
  auto content_type = result.headers.find("content-type");
  if (content_type != result.headers.end()) {
    response.content_type = content_type->second;
  }
  auto retry_after = result.headers.find("retry-after");
  if (retry_after != result.headers.end()) {
    response.headers.emplace_back("Retry-After", retry_after->second);
  }
  // Observability headers pass through: the client sees the backend's stage
  // breakdown and the request id its trace is filed under.
  auto server_timing = result.headers.find("server-timing");
  if (server_timing != result.headers.end()) {
    response.headers.emplace_back("Server-Timing", server_timing->second);
  }
  auto echoed_id = result.headers.find("x-htd-request-id");
  if (echoed_id != result.headers.end()) {
    response.headers.emplace_back("X-HTD-Request-Id", echoed_id->second);
  }
  return response;
}

HttpResponse ShardRouter::ForwardToRange(
    const service::ShardMap& map, int index, const std::string& method,
    const std::string& target,
    const std::string& body, const std::string& fingerprint_hex,
    const std::string& request_id_hex, double read_timeout_seconds,
    util::TraceParent trace, int* served_replica) {
  // Round-robin over the range's replicas, failing over on transport-level
  // trouble (down or backing off). A replica's own HTTP answer — including
  // its 429/503 load shedding — is final: overload on one replica is not a
  // license to double the fleet-wide load by retrying siblings.
  const int replicas = map.num_replicas(index);
  const int start =
      static_cast<int>(round_robin_.fetch_add(1, std::memory_order_relaxed) %
                       static_cast<uint64_t>(replicas));
  HttpResponse last;
  bool answered = false;
  for (int attempt = 0; attempt < replicas; ++attempt) {
    const int r = (start + attempt) % replicas;
    bool transport_failed = false;
    // One span per attempt, tagged with the owning (range, replica) — a
    // trace of a failover shows every endpoint tried, not just the winner.
    util::TraceScope span(
        "forward", trace,
        (static_cast<uint64_t>(index) << 8) | static_cast<uint64_t>(r));
    HttpResponse response =
        ForwardToEndpoint(map.replica(index, r), map.DigestHex(), method, target,
                          body, fingerprint_hex, request_id_hex,
                          read_timeout_seconds, &transport_failed);
    if (!transport_failed) {
      if (served_replica != nullptr) *served_replica = r;
      return response;
    }
    last = std::move(response);
    answered = true;
  }
  if (answered) return last;  // every replica down/backing off: best error
  return RetryLaterResponse(503, "every replica of shard " +
                                     std::to_string(index) +
                                     " is backing off; retry later");
}

std::vector<HttpResponse> ShardRouter::ForwardAll(
    const std::vector<AddressedEndpoint>& targets, const std::string& method,
    const std::string& target, double read_timeout_seconds) {
  // Concurrent fan-out: the per-endpoint exchanges are independent, and
  // doing them sequentially would serialise the connect timeouts of every
  // not-yet-backing-off down endpoint (k dead endpoints = k *
  // connect_timeout per stats call, on a router IO thread decompose
  // forwards also need).
  const int n = static_cast<int>(targets.size());
  std::vector<HttpResponse> responses(static_cast<size_t>(n));
  constexpr int kMaxFanOutThreads = 16;
  const int num_threads = std::min(n, kMaxFanOutThreads);
  std::atomic<int> next{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    workers.emplace_back([&] {
      for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        bool transport_failed = false;
        const AddressedEndpoint& addressed = targets[static_cast<size_t>(i)];
        responses[static_cast<size_t>(i)] = ForwardToEndpoint(
            addressed.member.endpoint, addressed.map->DigestHex(), method,
            target, "", "", "", read_timeout_seconds, &transport_failed);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return responses;
}

HttpResponse ShardRouter::Handle(const HttpRequest& request) {
  util::WallTimer timer;
  HttpResponse response = Dispatch(request);
  metrics_
      .GetHistogram("htd_router_request_seconds",
                    std::string("route=\"") + RouteLabel(request.path) + "\"")
      .Observe(timer.ElapsedSeconds());
  return response;
}

HttpResponse ShardRouter::Dispatch(const HttpRequest& request) {
  if (request.headers.count("x-htd-forwarded") != 0) {
    return JsonErrorResponse(
        508, "routing loop: this router received an already-forwarded request "
             "(is a router listed in its own --route-to map?)");
  }
  if (request.path == "/healthz") {
    auto snapshot = topology();
    auto stats = StatsForTargets(AddressedEndpoints(*snapshot));
    int backing_off = 0;
    for (const ShardStats& endpoint : stats) {
      backing_off += endpoint.backing_off ? 1 : 0;
    }
    JsonWriter json;
    json.Object()
        .Field("ok", true)
        .Field("role", "router")
        .Field("shards", snapshot->current().num_shards())
        .Field("endpoints", stats.size())
        .Field("backing_off", backing_off)
        .Field("transitioning", snapshot->transitioning());
    return JsonResponse(json);
  }
  if (request.path == "/v1/decompose") {
    return OnlyMethod(request, "POST",
                      [&] { return HandleRouted(request, kDecomposeRoute); });
  }
  if (request.path == "/v1/query") {
    return OnlyMethod(request, "POST",
                      [&] { return HandleRouted(request, kQueryRoute); });
  }
  if (request.path.rfind("/v1/jobs/", 0) == 0) {
    if (request.method != "GET") {
      return JsonErrorResponse(405, "use GET for /v1/jobs/<id>");
    }
    return HandleJob(request);
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
  if (request.path == "/v1/admin/transition") {
    return OnlyMethod(request, "POST",
                      [&] { return HandleTransition(request); });
  }
  return JsonErrorResponse(404, "unknown route (router): " + request.path);
}

template <typename Route>
HttpResponse ShardRouter::HandleRouted(const HttpRequest& request,
                                       const Route& route) {
  if (request.body.empty()) return JsonErrorResponse(400, route.empty_body);
  // The router pays one parse + canonicalisation per request to learn the
  // routing key. The shard parses again — the body crosses a process
  // boundary either way, and re-deriving beats trusting a proxy's bytes.
  auto parsed = route.parse(request.body);
  if (!parsed.ok()) {
    return JsonErrorResponse(400, route.parse_error + parsed.status().message());
  }
  return RouteByFingerprint(request, route.fingerprint(*parsed));
}

HttpResponse ShardRouter::RouteByFingerprint(const HttpRequest& request,
                                             const service::Fingerprint& fp) {
  auto snapshot = topology();
  const service::ShardMap& map = snapshot->current();

  const bool async = request.QueryOr("async", "0") == "1";
  double read_timeout = options_.read_timeout_seconds;
  if (!async) {
    // A synchronous solve legitimately runs for the job's own deadline; the
    // forward must outlast it (same policy as hdclient's transport timeout).
    double job_timeout;
    if (util::ParseDoubleFlag(request.QueryOr("timeout", ""), 0.0, &job_timeout)) {
      read_timeout =
          job_timeout == 0 ? 0 : std::max(read_timeout, job_timeout + 60.0);
    }
  }

  // One request id for the whole fleet trip: the router's root span, every
  // forward attempt, and the backend's own trace all file under it, and the
  // client reads it back from X-HTD-Request-Id.
  const uint64_t request_id = util::TraceRegistry::Instance().NextId();
  const std::string request_id_hex = util::TraceIdHex(request_id);
  util::TraceScope root_span("route", util::TraceRootId{request_id});
  const util::TraceParent forward_trace{request_id, request_id};

  // Current owner first: during a live reshard the donor still holds the
  // warm entry, so routing by the old map preserves every cache hit until
  // the fleet flips.
  const int owner = map.IndexFor(fp);
  root_span.set_tag(static_cast<uint64_t>(owner));
  int served_replica = 0;
  HttpResponse response =
      ForwardToRange(map, owner, request.method, request.target, request.body,
                     fp.ToHex(), request_id_hex, read_timeout, forward_trace,
                     &served_replica);
  int served_by = owner;
  const service::ShardMap* new_map = snapshot->incoming();
  if (new_map != nullptr &&
      (response.status == 421 || response.status == 502 ||
       response.status == 503 || response.status == 504)) {
    // Double-route: the old owner already finalised onto the new map (421)
    // or is gone mid-handover — retry the NEW owner under the new digest so
    // the client never sees the topology change. Exception: when the new
    // owner is served by the SAME processes, a 5xx is that process's own
    // answer (its load shedding, its timeout) — re-sending the body there
    // would double the load on an endpoint that just asked us to back off.
    // A 421 still retries: it means "wrong digest", and the new digest is
    // exactly the cure.
    const int new_owner = new_map->IndexFor(fp);
    const std::vector<service::ShardEndpoint>& old_group = map.replicas(owner);
    const std::vector<service::ShardEndpoint>& new_group =
        new_map->replicas(new_owner);
    if (response.status == 421 ||
        !std::is_permutation(old_group.begin(), old_group.end(),
                             new_group.begin(), new_group.end())) {
      response = ForwardToRange(*new_map, new_owner, request.method,
                                request.target, request.body, fp.ToHex(),
                                request_id_hex, read_timeout, forward_trace,
                                &served_replica);
      served_by = new_owner;
    }
  }
  if (async && response.status == 202) {
    PrefixJobId(&response, served_by, served_replica);
  }
  // A router-generated error (every replica down) never touched a backend,
  // so no echoed id passed through — attach ours so the client can still
  // find the router-side trace of the failed routing attempt.
  bool has_id = false;
  for (const auto& header : response.headers) {
    if (header.first == "X-HTD-Request-Id") has_id = true;
  }
  if (!has_id) {
    response.headers.emplace_back("X-HTD-Request-Id", request_id_hex);
  }
  return response;
}

HttpResponse ShardRouter::HandleJob(const HttpRequest& request) {
  // Job ids minted through the router are "s<shard>r<replica>.<id on that
  // process>" — backends mint their own local counters, so the replica slot
  // is part of the identity ("j7" on two replicas = two different jobs).
  // Bare "s<shard>.<id>" ids (pre-replication) poll every replica.
  std::string id = request.path.substr(sizeof("/v1/jobs/") - 1);
  if (id.size() < 3 || id[0] != 's') {
    return JsonErrorResponse(404, "unknown job id: " + id +
                                      " (router job ids look like s0r0.j7)");
  }
  // "s" digits ["r" digits] "." — each number is parsed over its exact
  // digit span, so "s1r.j7", "s+1r0.j7" and "s1r+0.j7" are unknown ids.
  const std::string_view view(id);
  const size_t dot = view.find('.');
  const size_t shard_end = view.find_first_not_of("0123456789", 1);
  long shard = -1;
  long replica = -1;  // -1 = unqualified: poll every replica
  bool prefix_ok =
      dot != std::string_view::npos &&
      util::ParseIntFlag(view.substr(1, shard_end - 1), 0, INT_MAX, &shard);
  if (prefix_ok && shard_end != dot) {
    prefix_ok = view[shard_end] == 'r' &&
                view.find_first_not_of("0123456789", shard_end + 1) == dot &&
                util::ParseIntFlag(view.substr(shard_end + 1, dot - shard_end - 1),
                                   0, INT_MAX, &replica);
  }
  // The job lives on whichever replica admitted it, under whichever map
  // minted the id: the current map, the incoming one mid-transition, or —
  // for a job admitted just before a flip — the map the last transition
  // retired. Poll every candidate until one recognises the id.
  auto snapshot = topology();
  const std::vector<const service::ShardMap*> generations =
      snapshot->Generations();
  const bool in_some_map =
      std::any_of(generations.begin(), generations.end(),
                  [&](const service::ShardMap* map) {
                    return shard < map->num_shards();
                  });
  if (!prefix_ok || shard < 0 || !in_some_map) {
    return JsonErrorResponse(404, "unknown job id: " + id +
                                      " (no such shard in the map)");
  }
  const std::string remote_id = id.substr(dot + 1);

  std::vector<std::pair<service::ShardEndpoint, const std::string*>> candidates;
  std::set<std::string> seen;
  for (const service::ShardMap* map : generations) {
    for (const service::ShardMap::Member& member : map->Members()) {
      if (member.range != shard || (replica >= 0 && member.replica != replica)) {
        continue;
      }
      if (seen.insert(HealthKey(member.endpoint)).second) {
        candidates.emplace_back(member.endpoint, &map->DigestHex());
      }
    }
  }

  HttpResponse last = JsonErrorResponse(404, "unknown job id: " + id);
  for (const auto& [endpoint, digest_hex] : candidates) {
    bool transport_failed = false;
    HttpResponse response = ForwardToEndpoint(
        endpoint, *digest_hex, "GET", "/v1/jobs/" + remote_id, "", "", "",
        options_.read_timeout_seconds, &transport_failed);
    if (!transport_failed && response.status != 404) {
      if (response.status == 200) {
        // Re-prefix the id in the shard's answer with the ORIGINAL prefix
        // so clients can keep polling the value they read back.
        PrefixJobIdRaw(&response, id.substr(0, dot + 1));
      }
      return response;
    }
    last = std::move(response);
  }
  return last;
}

ShardRouter::FleetScrape ShardRouter::ScrapeFleet() {
  FleetScrape scrape;
  scrape.topology = topology();
  scrape.targets = AddressedEndpoints(*scrape.topology);
  // Full read timeout, not the connect timeout: a backend whose IO threads
  // are pinned by long solves answers slowly, and timing it out here would
  // RecordFailure a healthy endpoint into backoff — shedding live decompose
  // traffic because an operator looked at a dashboard.
  scrape.responses = ForwardAll(scrape.targets, "GET", "/v1/metrics",
                                options_.read_timeout_seconds);

  // Identical series (same family, name and label set) are SUMMED —
  // counters add, histogram bucket counts add, gauges add (entries/bytes
  // gauges are fleet totals) — and each family keeps its first-seen
  // HELP/TYPE, so the page stays one contiguous block per family.
  std::vector<util::MetricFamily> summed;
  std::map<std::string, size_t> family_at;
  std::map<std::string, size_t> series_at;  // "family|name{labels}"
  for (const HttpResponse& response : scrape.responses) {
    if (response.status != 200) continue;
    ++scrape.scraped;
    for (util::MetricFamily& family : util::ParsePrometheusText(response.body)) {
      auto [at, added] = family_at.emplace(family.name, summed.size());
      if (added) summed.push_back({family.name, family.type, family.help, {}});
      std::vector<util::MetricSample>& into = summed[at->second].samples;
      for (util::MetricSample& sample : family.samples) {
        auto [series, fresh] = series_at.emplace(
            family.name + "|" + sample.name + "{" + sample.labels + "}",
            into.size());
        if (fresh) {
          into.push_back(std::move(sample));
        } else {
          into[series->second].value += sample.value;
        }
      }
    }
  }

  scrape.families = {
      {"htd_fleet_endpoints_scraped", "gauge",
       "Backends that answered this aggregated scrape.",
       {{"htd_fleet_endpoints_scraped", "",
         static_cast<double>(scrape.scraped)}}},
      {"htd_fleet_endpoints", "gauge", "Backends addressed by the router.",
       {{"htd_fleet_endpoints", "",
         static_cast<double>(scrape.targets.size())}}},
  };
  for (util::MetricFamily& family : summed) {
    scrape.families.push_back(std::move(family));
  }
  // Router-local series last; htd_router_* names never collide with the
  // summed backend families.
  for (util::MetricFamily& family : metrics_.Collect()) {
    scrape.families.push_back(std::move(family));
  }
  return scrape;
}

HttpResponse ShardRouter::HandleStats() {
  FleetScrape scrape = ScrapeFleet();
  const service::Topology& snapshot = *scrape.topology;
  // Health rows for the SAME target list the fan-out used: re-enumerating
  // endpoints here could race a transition and misattribute counters.
  auto health = StatsForTargets(scrape.targets);
  JsonWriter json;
  json.Object()
      .Field("role", "router")
      .Field("shard_count", snapshot.current().num_shards())
      .Field("endpoint_count", scrape.targets.size())
      .Field("reachable", scrape.scraped)
      .Field("map_digest", snapshot.current().DigestHex())
      .Field("transitioning", snapshot.transitioning());
  if (snapshot.transitioning()) {
    json.Field("new_map_digest", snapshot.incoming()->DigestHex());
  }
  json.Raw("metrics", RenderMetricsJson(scrape.families)).Array("shards");
  for (size_t i = 0; i < scrape.targets.size(); ++i) {
    const AddressedEndpoint& target = scrape.targets[i];
    const int status = scrape.responses[i].status;
    json.Object()
        .Field("index", target.member.range)
        .Field("replica", target.member.replica)
        .Field("endpoint", HealthKey(target.member.endpoint));
    if (target.new_map_only) json.Field("new_map_only", true);
    json.Field("forwarded", health[i].forwarded)
        .Field("transport_errors", health[i].transport_errors)
        .Field("backoff_shed", health[i].backoff_shed)
        .Field("reachable", status == 200)
        .Field("status", status)
        .End();
  }
  return JsonResponse(json);
}

HttpResponse ShardRouter::HandleMetrics() {
  FleetScrape scrape = ScrapeFleet();
  HttpResponse response;
  // Prometheus text exposition format 0.0.4.
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.status = scrape.scraped > 0 || scrape.targets.empty() ? 200 : 502;
  response.body = util::RenderPrometheusText(scrape.families);
  return response;
}

HttpResponse ShardRouter::HandleSnapshot() {
  auto snapshot = topology();
  std::vector<AddressedEndpoint> targets = AddressedEndpoints(*snapshot);
  std::vector<HttpResponse> responses = ForwardAll(
      targets, "POST", "/v1/admin/snapshot", options_.read_timeout_seconds);
  const bool all_saved =
      std::all_of(responses.begin(), responses.end(),
                  [](const HttpResponse& r) { return r.status == 200; });
  JsonWriter json;
  json.Object().Field("saved", all_saved).Array("shards");
  for (size_t i = 0; i < targets.size(); ++i) {
    // The endpoint's own JSON body, embedded without its trailing newline.
    std::string_view body = responses[i].body;
    while (!body.empty() && (body.back() == '\n' || body.back() == '\r')) {
      body.remove_suffix(1);
    }
    json.Object()
        .Field("index", targets[i].member.range)
        .Field("replica", targets[i].member.replica)
        .Field("endpoint", HealthKey(targets[i].member.endpoint))
        .Field("status", responses[i].status)
        .Raw("response", body.empty() ? "null" : body)
        .End();
  }
  // Partial success is a gateway-level failure: some process's warm state is
  // NOT on disk, and the operator must know before trusting a restart.
  return JsonResponse(json, all_saved ? 200 : 502);
}

HttpResponse ShardRouter::HandleTransition(const HttpRequest& request) {
  const bool complete = request.QueryOr("complete", "0") == "1";
  if (complete || request.QueryOr("abort", "0") == "1") {
    auto status = complete ? CompleteTransition() : AbortTransition();
    if (!status.ok()) return JsonErrorResponse(412, status.message());
    JsonWriter json;
    json.Object()
        .Field("transitioning", false)
        .Field("map_digest", topology()->current().DigestHex())
        .Field(complete ? "completed" : "aborted", true);
    return JsonResponse(json);
  }
  auto new_map = ParseMapSpecBody(request.body);
  if (!new_map.ok()) return JsonErrorResponse(400, new_map.status().message());
  auto status = BeginTransition(*new_map);
  if (!status.ok()) {
    return JsonErrorResponse(
        status.code() == util::StatusCode::kFailedPrecondition ? 409 : 400,
        status.message());
  }
  auto snapshot = topology();
  JsonWriter json;
  json.Object()
      .Field("transitioning", true)
      .Field("map_digest", snapshot->current().DigestHex())
      .Field("new_map_digest", snapshot->incoming()->DigestHex());
  return JsonResponse(json);
}

}  // namespace htd::net
