// net/shard_router.h end to end: a two-shard fleet of real
// DecompositionServers behind a router — deterministic fingerprint routing,
// async job-id prefixing, stats aggregation, per-shard health/backoff, the
// single-hop loop guard, and the backends' shard-digest enforcement
// (DecompositionServerOptions::shard_map).
#include "net/shard_router.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cq/query.h"
#include "hypergraph/generators.h"
#include "hypergraph/writer.h"
#include "net/decomposition_server.h"
#include "qa/wire.h"
#include "service/canonical.h"
#include "util/metrics.h"

namespace htd::net {
namespace {

service::ShardMap MustParse(const std::string& spec) {
  auto map = service::ShardMap::Parse(spec);
  EXPECT_TRUE(map.ok()) << map.status().message();
  return *map;
}

/// One series of `server`'s metrics registry (NaN when unregistered).
double Metric(DecompositionServer& server, const std::string& name,
              const std::string& labels = "") {
  return server.decomposition_service().metrics().Value(name, labels);
}

HttpRequest Request(const std::string& method, const std::string& target,
                    std::string body = "") {
  HttpRequest request;
  request.method = method;
  request.target = target;
  size_t q = target.find('?');
  request.path = target.substr(0, q);
  if (q != std::string::npos) {
    std::string query = target.substr(q + 1);
    while (!query.empty()) {
      size_t amp = query.find('&');
      std::string pair = query.substr(0, amp);
      size_t eq = pair.find('=');
      request.query[pair.substr(0, eq)] =
          eq == std::string::npos ? "" : pair.substr(eq + 1);
      query = amp == std::string::npos ? "" : query.substr(amp + 1);
    }
  }
  request.version = "HTTP/1.1";
  request.body = std::move(body);
  return request;
}

/// A live two-shard fleet on ephemeral ports plus a router over it.
struct Fleet {
  std::vector<std::unique_ptr<DecompositionServer>> shards;
  std::unique_ptr<ShardRouter> router;
  /// HyperBench instances owned by shard 0 / shard 1 respectively.
  std::string on_shard0, on_shard1;

  static Fleet Start() {
    Fleet fleet;
    // Two servers first (ephemeral ports), then the map naming them.
    for (int i = 0; i < 2; ++i) {
      DecompositionServerOptions options;
      options.http.port = 0;
      options.http.io_threads = 2;
      options.service.default_timeout_seconds = 30.0;
      auto server = DecompositionServer::Create(options);
      EXPECT_TRUE(server.ok()) << server.status().message();
      EXPECT_TRUE((*server)->Start().ok());
      fleet.shards.push_back(std::move(*server));
    }
    const std::string spec =
        "127.0.0.1:" + std::to_string(fleet.shards[0]->port()) + ",127.0.0.1:" +
        std::to_string(fleet.shards[1]->port());
    ShardRouterOptions router_options{MustParse(spec)};
    router_options.backoff_base_seconds = 0.05;
    fleet.router = std::make_unique<ShardRouter>(std::move(router_options));

    // Paths of growing length have ~uniform fingerprints; a few tries find
    // one instance per shard (30 misses in a row ~ 2^-30: not flaky).
    for (int length = 3; length < 33; ++length) {
      Hypergraph graph = MakePath(length);
      int owner = fleet.router->options().map.IndexFor(
          service::CanonicalFingerprint(graph));
      std::string& slot = owner == 0 ? fleet.on_shard0 : fleet.on_shard1;
      if (slot.empty()) slot = WriteHyperBench(graph);
      if (!fleet.on_shard0.empty() && !fleet.on_shard1.empty()) break;
    }
    EXPECT_FALSE(fleet.on_shard0.empty());
    EXPECT_FALSE(fleet.on_shard1.empty());
    return fleet;
  }

  void Stop() {
    for (auto& shard : shards) shard->Stop();
  }
};

TEST(ShardRouterTest, RoutesDeterministicallyAndWarmStateSplits) {
  Fleet fleet = Fleet::Start();

  // Cold solve, then a renamed-but-isomorphic resubmission: both land on
  // the owning shard, so the second is that shard's cache hit.
  for (const std::string* instance : {&fleet.on_shard0, &fleet.on_shard1}) {
    HttpResponse first =
        fleet.router->Handle(Request("POST", "/v1/decompose?k=2", *instance));
    ASSERT_EQ(first.status, 200) << first.body;
    EXPECT_NE(first.body.find("\"cache_hit\": false"), std::string::npos);
    HttpResponse again =
        fleet.router->Handle(Request("POST", "/v1/decompose?k=2", *instance));
    ASSERT_EQ(again.status, 200);
    EXPECT_NE(again.body.find("\"cache_hit\": true"), std::string::npos)
        << "resubmission must reach the same shard's cache: " << again.body;
  }

  // The warm state is a partition: each shard solved and cached exactly one
  // of the two instances.
  for (auto& shard : fleet.shards) {
    EXPECT_EQ(Metric(*shard, "htd_admission_requests_total", "result=\"admitted\""), 2);
    EXPECT_EQ(shard->decomposition_service().cache_stats().entries, 1u);
  }

  // Aggregated stats sum across the fleet.
  HttpResponse stats = fleet.router->Handle(Request("GET", "/v1/stats"));
  ASSERT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"role\": \"router\""), std::string::npos);
  EXPECT_NE(stats.body.find("\"htd_admission_requests_total\": {\"admitted\": 4,"),
            std::string::npos)
      << stats.body;
  EXPECT_NE(stats.body.find("\"htd_cache_entries\": 2"), std::string::npos)
      << stats.body;
  EXPECT_NE(stats.body.find("\"reachable\": 2"), std::string::npos) << stats.body;

  // /v1/stats renders the same fleet sum as /v1/metrics: every non-histogram
  // family on the router's page is a key of its metrics object.
  HttpResponse page = fleet.router->Handle(Request("GET", "/v1/metrics"));
  ASSERT_EQ(page.status, 200);
  int families = 0;
  for (const util::MetricFamily& family : util::ParsePrometheusText(page.body)) {
    if (family.type == "histogram") continue;
    ++families;
    EXPECT_NE(stats.body.find("\"" + family.name + "\": "), std::string::npos)
        << "router /v1/stats is missing " << family.name;
  }
  EXPECT_GE(families, 20);

  fleet.Stop();
}

TEST(ShardRouterTest, AsyncJobIdsCarryTheirShard) {
  Fleet fleet = Fleet::Start();

  HttpResponse admitted = fleet.router->Handle(
      Request("POST", "/v1/decompose?k=2&async=1", fleet.on_shard1));
  ASSERT_EQ(admitted.status, 202) << admitted.body;
  size_t pos = admitted.body.find("\"job\": \"s1r0.");
  ASSERT_NE(pos, std::string::npos)
      << "router job ids must carry shard AND replica: " << admitted.body;
  size_t start = pos + 8;  // skip `"job": "`
  std::string id =
      admitted.body.substr(start, admitted.body.find('"', start) - start);

  // Poll through the router until done (a tiny path solves instantly).
  HttpResponse job;
  for (int i = 0; i < 200; ++i) {
    job = fleet.router->Handle(Request("GET", "/v1/jobs/" + id));
    ASSERT_EQ(job.status, 200) << job.body;
    if (job.body.find("\"state\": \"done\"") != std::string::npos) break;
  }
  EXPECT_NE(job.body.find("\"state\": \"done\""), std::string::npos) << job.body;
  EXPECT_NE(job.body.find("\"job\": \"" + id + "\""), std::string::npos)
      << "polled id must echo back prefixed: " << job.body;

  EXPECT_EQ(fleet.router->Handle(Request("GET", "/v1/jobs/j7")).status, 404)
      << "unprefixed ids are not routable";
  EXPECT_EQ(fleet.router->Handle(Request("GET", "/v1/jobs/s9.j7")).status, 404)
      << "shard index outside the map";
  // Malformed prefixes around the live job's own id are unknown ids, not
  // shard 1 replica 0.
  const std::string remote = id.substr(id.find('.'));
  for (const std::string prefix : {"s1r", "s+1r0", "s1r+0"}) {
    EXPECT_EQ(
        fleet.router->Handle(Request("GET", "/v1/jobs/" + prefix + remote)).status,
        404)
        << prefix + remote << " is not a router job id";
  }

  fleet.Stop();
}

TEST(ShardRouterTest, SingleHopLoopGuard) {
  Fleet fleet = Fleet::Start();
  HttpRequest forwarded = Request("POST", "/v1/decompose?k=2", fleet.on_shard0);
  forwarded.headers["x-htd-forwarded"] = "1";
  EXPECT_EQ(fleet.router->Handle(forwarded).status, 508);
  fleet.Stop();
}

TEST(ShardRouterTest, DeadShardBacksOffWith503) {
  // One-shard map pointing at a port nobody listens on: every request owns
  // that shard, the first pays a connect failure, the rest are shed from
  // the backoff window without touching the socket.
  ShardRouterOptions options{MustParse("127.0.0.1:1")};
  options.connect_timeout_seconds = 1.0;
  options.backoff_base_seconds = 30.0;
  ShardRouter router(std::move(options));

  std::string instance = WriteHyperBench(MakePath(4));
  HttpResponse first =
      router.Handle(Request("POST", "/v1/decompose?k=2", instance));
  EXPECT_EQ(first.status, 503) << first.body;
  bool has_retry_after = false;
  for (const auto& [key, value] : first.headers) {
    has_retry_after |= key == "Retry-After";
  }
  EXPECT_TRUE(has_retry_after);

  HttpResponse second =
      router.Handle(Request("POST", "/v1/decompose?k=2", instance));
  EXPECT_EQ(second.status, 503);
  auto stats = router.shard_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].transport_errors, 1u) << "second request must not retry";
  EXPECT_EQ(stats[0].backoff_shed, 1u);
  EXPECT_TRUE(stats[0].backing_off);

  // /healthz stays local and honest about the fleet.
  HttpResponse health = router.Handle(Request("GET", "/healthz"));
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"backing_off\": 1"), std::string::npos)
      << health.body;
}

TEST(ShardRouterTest, ForwardsReuseKeepAliveConnections) {
  Fleet fleet = Fleet::Start();
  const double before =
      Metric(*fleet.shards[0], "htd_connections_accepted_total");
  for (int i = 0; i < 50; ++i) {
    HttpResponse response = fleet.router->Handle(
        Request("POST", "/v1/decompose?k=2", fleet.on_shard0));
    ASSERT_EQ(response.status, 200) << response.body;
  }
  const double accepted =
      Metric(*fleet.shards[0], "htd_connections_accepted_total") - before;
  EXPECT_GE(accepted, 1);
  EXPECT_LE(accepted, static_cast<double>(ConnectionPool::kMaxIdlePerEndpoint))
      << "each forward must not open its own connection";
  fleet.Stop();
}

TEST(ShardRouterTest, ConnectionPoolReusesTheLongestIdleSocketFirst) {
  // Oldest first, so forwards rotate over every pooled connection (and so
  // over the backend's loops); the excess beyond the cap is closed.
  ConnectionPool pool;
  std::vector<int> fds;
  for (size_t i = 0; i <= ConnectionPool::kMaxIdlePerEndpoint; ++i) {
    util::Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
    ASSERT_TRUE(socket.valid());
    fds.push_back(socket.fd());
    pool.Give("127.0.0.1:1", std::move(socket));
  }
  for (size_t i = 0; i < ConnectionPool::kMaxIdlePerEndpoint; ++i) {
    util::Socket socket = pool.Take("127.0.0.1:1");
    ASSERT_TRUE(socket.valid());
    EXPECT_EQ(socket.fd(), fds[i]);
  }
  EXPECT_FALSE(pool.Take("127.0.0.1:1").valid());
  EXPECT_FALSE(pool.Take("127.0.0.1:2").valid());
}

TEST(ShardRouterTest, PooledSocketClosedByTheBackendIsRetriedTransparently) {
  // A backend that reaps idle keep-alive connections after 100 ms: the
  // router's pooled socket is closed under it between two forwards.
  DecompositionServerOptions options;
  options.http.port = 0;
  options.http.idle_timeout_seconds = 0.1;
  options.service.default_timeout_seconds = 30.0;
  auto backend = DecompositionServer::Create(options);
  ASSERT_TRUE(backend.ok()) << backend.status().message();
  ASSERT_TRUE((*backend)->Start().ok());
  ShardRouter router(ShardRouterOptions{
      MustParse("127.0.0.1:" + std::to_string((*backend)->port()))});
  const std::string instance = WriteHyperBench(MakePath(4));

  HttpResponse first =
      router.Handle(Request("POST", "/v1/decompose?k=2", instance));
  ASSERT_EQ(first.status, 200) << first.body;
  for (int i = 0;
       i < 200 && Metric(**backend, "htd_connections_reaped_total") < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(Metric(**backend, "htd_connections_reaped_total"), 1)
      << "the backend must have closed the pooled connection";

  HttpResponse again =
      router.Handle(Request("POST", "/v1/decompose?k=2", instance));
  EXPECT_EQ(again.status, 200) << again.body;
  EXPECT_NE(again.body.find("\"cache_hit\": true"), std::string::npos);
  auto stats = router.shard_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].transport_errors, 0u);
  EXPECT_EQ(stats[0].consecutive_failures, 0);
  EXPECT_FALSE(stats[0].backing_off);
  EXPECT_EQ(Metric(**backend, "htd_connections_accepted_total"), 2)
      << "the retry opens one fresh connection";
  (*backend)->Stop();
}

TEST(ShardRouterTest, RouterRejectsGarbageBeforeForwarding) {
  ShardRouterOptions options{MustParse("127.0.0.1:1")};  // dead shard
  ShardRouter router(std::move(options));
  EXPECT_EQ(router.Handle(Request("POST", "/v1/decompose?k=2", "")).status, 400);
  EXPECT_EQ(router.Handle(Request("POST", "/v1/decompose?k=2", "((((")).status,
            400);
  EXPECT_EQ(router.Handle(Request("GET", "/v1/decompose?k=2")).status, 405);
  EXPECT_EQ(router.Handle(Request("GET", "/nope")).status, 404);
  auto stats = router.shard_stats();
  EXPECT_EQ(stats[0].forwarded, 0u)
      << "bad requests must be refused without a forward";
}

TEST(ShardRouterTest, NumericQueryParametersParseAlikeOnBothSides) {
  // A value with leading whitespace is malformed on the backend exactly as
  // on the router; requests go through the wire parser, so %20 decodes the
  // way it does off a socket.
  Fleet fleet = Fleet::Start();
  auto parsed = [](const std::string& target, const std::string& body) {
    const std::string method = body.empty() ? "GET " : "POST ";
    HttpRequestParser parser;
    EXPECT_EQ(parser.Consume(method + target + " HTTP/1.1\r\nContent-Length: " +
                             std::to_string(body.size()) + "\r\n\r\n" + body),
              HttpRequestParser::State::kDone)
        << target;
    return parser.TakeRequest();
  };
  auto query = cq::ParseQuery("R(X,Y), S(Y,Z).");
  ASSERT_TRUE(query.ok());
  cq::Database db;
  db.AddRelation({"R", 2, {{1, 2}}});
  db.AddRelation({"S", 2, {{2, 3}}});
  auto query_body = qa::RenderQueryRequest(*query, db);
  ASSERT_TRUE(query_body.ok());
  const std::string& instance = fleet.on_shard0;
  const std::vector<std::pair<std::string, std::string>> malformed = {
      {"/v1/decompose?k=%202", instance},
      {"/v1/decompose?k=2&timeout=%201", instance},
      {"/v1/query?timeout=%201", *query_body},
      {"/v1/trace?n=%2016", ""},
  };
  for (const auto& [target, body] : malformed) {
    EXPECT_EQ(fleet.shards[0]->Handle(parsed(target, body)).status, 400)
        << "backend: " << target;
    EXPECT_EQ(fleet.router->Handle(parsed(target, body)).status, 400)
        << "router: " << target;
  }
  // The same parameters without the space are accepted on both sides.
  for (const auto& [target, body] :
       std::vector<std::pair<std::string, std::string>>{
           {"/v1/decompose?k=2&timeout=1", instance},
           {"/v1/query?timeout=1", *query_body},
           {"/v1/trace?n=16", ""}}) {
    EXPECT_EQ(fleet.shards[0]->Handle(parsed(target, body)).status, 200)
        << "backend: " << target;
    EXPECT_EQ(fleet.router->Handle(parsed(target, body)).status, 200)
        << "router: " << target;
  }
  fleet.Stop();
}

TEST(ShardRouterTest, BackendRejectsMismatchedDigestWith421) {
  // A backend configured as its instance's OWNING shard of map A receives a
  // request hashed against map B: refused, counted, never admitted.
  Hypergraph graph = MakePath(4);
  std::string instance = WriteHyperBench(graph);
  DecompositionServerOptions options;
  options.http.port = 0;
  options.shard_map = MustParse("127.0.0.1:1001,127.0.0.1:1002");
  const int owner =
      options.shard_map->IndexFor(service::CanonicalFingerprint(graph));
  options.shard_index = owner;
  auto server = DecompositionServer::Create(options);
  ASSERT_TRUE(server.ok()) << server.status().message();

  HttpRequest stale = Request("POST", "/v1/decompose?k=2", instance);
  stale.headers["x-htd-shard-digest"] =
      MustParse("127.0.0.1:1001,127.0.0.1:1002,127.0.0.1:1003").DigestHex();
  HttpResponse refused = (*server)->Handle(stale);
  EXPECT_EQ(refused.status, 421) << refused.body;
  EXPECT_EQ(Metric(**server, "htd_admission_requests_total", "result=\"misrouted\""), 1);
  EXPECT_EQ(Metric(**server, "htd_admission_requests_total", "result=\"admitted\""), 0);

  // The matching digest is served.
  HttpRequest fresh = Request("POST", "/v1/decompose?k=2", instance);
  fresh.headers["x-htd-shard-digest"] = options.shard_map->DigestHex();
  EXPECT_EQ((*server)->Handle(fresh).status, 200);

  // A fingerprint header outside this shard's range is misrouted too.
  service::Fingerprint outside;
  outside.hi = owner == 0 ? ~0ULL : 0;  // the OTHER shard's half
  HttpRequest misrouted = Request("POST", "/v1/decompose?k=2", instance);
  misrouted.headers["x-htd-shard-fingerprint"] = outside.ToHex();
  EXPECT_EQ((*server)->Handle(misrouted).status, 421);
  EXPECT_EQ(Metric(**server, "htd_admission_requests_total", "result=\"misrouted\""), 2);
}

TEST(ShardRouterTest, BackendSelfEnforcesItsRangeOnDirectRequests) {
  // No X-HTD-Shard-* headers at all (a client talking to the shard
  // directly): the backend fingerprints the instance itself and refuses
  // foreign ranges — silently admitting would warm state the next
  // range-filtered snapshot drops.
  DecompositionServerOptions options;
  options.http.port = 0;
  options.shard_map = MustParse("127.0.0.1:1001,127.0.0.1:1002");
  options.shard_index = 0;
  auto server = DecompositionServer::Create(options);
  ASSERT_TRUE(server.ok()) << server.status().message();

  std::string owned, foreign;
  for (int length = 3; length < 33 && (owned.empty() || foreign.empty());
       ++length) {
    Hypergraph graph = MakePath(length);
    std::string& slot =
        options.shard_map->IndexFor(service::CanonicalFingerprint(graph)) == 0
            ? owned
            : foreign;
    if (slot.empty()) slot = WriteHyperBench(graph);
  }
  ASSERT_FALSE(owned.empty());
  ASSERT_FALSE(foreign.empty());

  EXPECT_EQ((*server)->Handle(Request("POST", "/v1/decompose?k=2", owned)).status,
            200);
  HttpResponse refused =
      (*server)->Handle(Request("POST", "/v1/decompose?k=2", foreign));
  EXPECT_EQ(refused.status, 421) << refused.body;
  EXPECT_NE(refused.body.find("belongs to shard 1"), std::string::npos)
      << refused.body;
  EXPECT_EQ(Metric(**server, "htd_admission_requests_total", "result=\"misrouted\""), 1);
  EXPECT_EQ(Metric(**server, "htd_admission_requests_total", "result=\"admitted\""), 1);

  // A crafted in-range fingerprint header WITHOUT the digest header proves
  // nothing: the backend still fingerprints the instance itself, so the
  // foreign instance is refused rather than silently warming this shard.
  service::Fingerprint in_range;
  in_range.hi = 1;  // squarely in shard 0's half
  HttpRequest crafted = Request("POST", "/v1/decompose?k=2", foreign);
  crafted.headers["x-htd-shard-fingerprint"] = in_range.ToHex();
  EXPECT_EQ((*server)->Handle(crafted).status, 421)
      << "fingerprint header alone must not be trusted";
  EXPECT_EQ(Metric(**server, "htd_admission_requests_total", "result=\"misrouted\""), 2);
  EXPECT_EQ(Metric(**server, "htd_admission_requests_total", "result=\"admitted\""), 1);
}

TEST(ShardRouterTest, ServerRejectsShardConfigWithoutValidIndex) {
  DecompositionServerOptions options;
  options.shard_map = MustParse("a:1,b:2");
  options.shard_index = 2;
  EXPECT_FALSE(DecompositionServer::Create(options).ok());
  options.shard_index = -1;
  EXPECT_FALSE(DecompositionServer::Create(options).ok());
}

}  // namespace
}  // namespace htd::net
