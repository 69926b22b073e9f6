// Byte-for-byte pins of the JSON bodies the backend and the shard router
// send: decompose and query answers, the async job lifecycle of both job
// kinds, /v1/stats (unsharded and mid-migration), the admin routes, and the
// router's own bodies. Wall-clock fields (seconds, *_seconds, *_ms) and
// trace ids vary run to run, so Mask() replaces their values before the
// comparison; every other byte — key order, separators, escaping, trailing
// newline — must match exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <future>
#include <regex>
#include <string>
#include <thread>

#include "cq/query.h"
#include "hypergraph/generators.h"
#include "hypergraph/writer.h"
#include "net/decomposition_server.h"
#include "net/json.h"
#include "net/shard_router.h"
#include "net/trace_json.h"
#include "qa/wire.h"
#include "util/executor.h"
#include "util/trace.h"

namespace htd::net {
namespace {

using namespace std::chrono_literals;

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

/// Replaces the values of wall-clock fields and trace ids with fixed tokens.
std::string Mask(const std::string& body) {
  static const std::regex seconds("(\"[a-z_]*seconds\": )[0-9.]+");
  static const std::regex millis("(\"[a-z_]*_ms\": )[0-9.]+");
  static const std::regex ids("(\"(id|parent)\": \")[0-9a-f]{16}\"");
  std::string out = std::regex_replace(body, seconds, "$1S");
  out = std::regex_replace(out, millis, "$1M");
  return std::regex_replace(out, ids, "$1ID\"");
}

std::string QueryText() {
  auto query = cq::ParseQuery("R(X,Y), S(Y,Z).");
  EXPECT_TRUE(query.ok());
  cq::Database db;
  db.AddRelation({"R", 2, {{1, 2}, {3, 2}, {4, 5}}});
  db.AddRelation({"S", 2, {{2, 7}, {2, 8}, {5, 9}}});
  auto text = qa::RenderQueryRequest(*query, db);
  EXPECT_TRUE(text.ok()) << text.status().message();
  return text.ok() ? *text : "";
}

/// A cold backend's /v1/stats body around the given shard object.
std::string StatsBody(int skipped_rounds, const std::string& shard,
                      const std::string& snapshot_path) {
  return "{\"metrics\": {\"htd_scheduler_cache_hits_total\": 0, "
         "\"htd_scheduler_dedup_joins_total\": 0, "
         "\"htd_scheduler_solves_total\": 0, \"htd_scheduler_completed_total\": "
         "0, \"htd_scheduler_submitted_total\": 0, \"htd_queue_depth\": 0, "
         "\"htd_outstanding_jobs\": 0, \"htd_executor_queue_depth\": 0, "
         "\"htd_executor_workers_busy\": 0, "
         "\"htd_executor_workers\": 1, \"htd_executor_steals_total\": 0, "
         "\"htd_cache_hits_total\": 0, \"htd_cache_misses_total\": 0, "
         "\"htd_cache_evictions_total\": 0, \"htd_cache_insertions_total\": 0, "
         "\"htd_cache_entries\": 0, \"htd_cache_capacity\": 4096, "
         "\"htd_admission_requests_total\": {\"admitted\": 0, \"shed\": 0, "
         "\"bad_request\": 0, \"misrouted\": 0}, \"htd_migration_entries_total\": "
         "{\"imported_cache\": 0, \"imported_store\": 0, \"migrated_out\": 0}, "
         "\"htd_antientropy_rounds_total\": {\"ok\": 0, \"error\": 0, "
         "\"skipped\": " + std::to_string(skipped_rounds) + "}, "
         "\"htd_antientropy_entries_total\": {\"cache\": 0, \"store\": 0}, "
         "\"htd_antientropy_bytes_total\": 0, \"htd_connections_shed_total\": 0, "
         "\"htd_connections_reaped_total\": 0, \"htd_accept_failures_total\": 0, "
         "\"htd_connections\": {\"idle\": 0, \"reading\": 0, \"dispatched\": 0, "
         "\"writing\": 0}, \"htd_snapshot_restored_entries\": {\"cache\": 0, "
         "\"store\": 0, \"dropped_out_of_range\": 0}}, \"shard\": " + shard +
         ", \"config\": {\"max_queue_depth\": 64, \"max_connections\": 64, "
         "\"anti_entropy_interval_seconds\": 0, \"subproblem_store\": false, "
         "\"snapshot_path\": \"" + JsonEscape(snapshot_path) + "\"}}\n";
}

/// Polls GET /v1/jobs/<id> until the job is done (bounded).
HttpResponse AwaitJob(DecompositionServer& server, const std::string& id) {
  HttpResponse response;
  for (int i = 0; i < 3000; ++i) {
    response = server.Handle(Request("GET", "/v1/jobs/" + id));
    if (response.body.find("\"state\": \"done\"") != std::string::npos) break;
    std::this_thread::sleep_for(10ms);
  }
  return response;
}

TEST(WireBodiesTest, DecomposeQueryAndJobBodies) {
  std::atomic<bool> parked{false};
  util::Executor executor(1);
  DecompositionServerOptions options;
  options.http.port = 0;
  options.service.executor = &executor;
  options.service.default_timeout_seconds = 30.0;
  auto created = DecompositionServer::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().message();
  DecompositionServer& server = **created;

  HttpResponse decomposed = server.Handle(Request(
      "POST", "/v1/decompose?k=2&decomposition=1", WriteHyperBench(MakePath(5))));
  EXPECT_EQ(decomposed.status, 200);
  EXPECT_EQ(Mask(decomposed.body),
            "{\"outcome\": \"yes\", \"width\": 2, \"cache_hit\": false, "
            "\"deduplicated\": false, \"seconds\": S, \"threads_used\": 1, "
            "\"fingerprint\": \"41569efcef1044e903797c641515d4ff\", "
            "\"decomposition\": {\"width\": 2, \"nodes\": [{\"id\": 0, "
            "\"parent\": -1, \"lambda\": [\"R2\"], \"chi\": [\"x1\", \"x2\"]}, "
            "{\"id\": 1, \"parent\": 0, \"lambda\": [\"R1\"], \"chi\": [\"x0\", "
            "\"x1\"]}, {\"id\": 2, \"parent\": 0, \"lambda\": [\"R3\", \"R4\"], "
            "\"chi\": [\"x2\", \"x3\", \"x4\"]}]}}\n");

  HttpResponse answered =
      server.Handle(Request("POST", "/v1/query?count=1", QueryText()));
  EXPECT_EQ(answered.status, 200);
  EXPECT_EQ(Mask(answered.body),
            "{\"outcome\": \"satisfiable\", \"witness\": {\"X\": 1, "
            "\"Y\": 2, \"Z\": 7}, \"count\": 5, \"count_saturated\": false, "
            "\"width\": 1, \"fractional_width\": 1.000000, \"estimated_cost\": "
            "6.000000, \"portfolio\": {\"picked\": 0, \"size\": 2}, "
            "\"fingerprint\": \"8c04073fdcbbe080763d4a32dd659540\", "
            "\"cache_hit\": false, \"probes\": 2, \"decompose_seconds\": S, "
            "\"pick_seconds\": S, \"execute_seconds\": S}\n");

  // Park the executor's only worker so both async jobs are observably
  // running before they resolve.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  executor.Submit([opened, &parked] {
    parked = true;
    opened.wait();
  });
  while (!parked) std::this_thread::sleep_for(1ms);

  HttpResponse admitted_j = server.Handle(Request(
      "POST", "/v1/decompose?k=2&async=1&decomposition=1",
      WriteHyperBench(MakePath(7))));
  EXPECT_EQ(admitted_j.status, 202);
  EXPECT_EQ(admitted_j.body, "{\"job\": \"j1\", \"state\": \"admitted\"}\n");
  HttpResponse admitted_q =
      server.Handle(Request("POST", "/v1/query?async=1", QueryText()));
  EXPECT_EQ(admitted_q.status, 202);
  EXPECT_EQ(admitted_q.body, "{\"job\": \"q2\", \"state\": \"admitted\"}\n");

  EXPECT_EQ(server.Handle(Request("GET", "/v1/jobs/j1")).body,
            "{\"job\": \"j1\", \"state\": \"running\"}\n");
  EXPECT_EQ(server.Handle(Request("GET", "/v1/jobs/q2")).body,
            "{\"job\": \"q2\", \"state\": \"running\"}\n");
  gate.set_value();

  EXPECT_EQ(Mask(AwaitJob(server, "j1").body),
            "{\"job\": \"j1\", \"state\": \"done\", \"result\": {\"outcome\": "
            "\"yes\", \"width\": 2, \"cache_hit\": false, \"deduplicated\": "
            "false, \"seconds\": S, \"threads_used\": 1, \"fingerprint\": "
            "\"431ce9a075e289d3bf76f9b04bdad9c1\", \"decomposition\": "
            "{\"width\": 2, \"nodes\": [{\"id\": 0, \"parent\": -1, \"lambda\": "
            "[\"R3\"], \"chi\": [\"x2\", \"x3\"]}, {\"id\": 1, \"parent\": 0, "
            "\"lambda\": [\"R1\", \"R2\"], \"chi\": [\"x0\", \"x1\", \"x2\"]}, "
            "{\"id\": 2, \"parent\": 0, \"lambda\": [\"R4\"], \"chi\": [\"x3\", "
            "\"x4\"]}, {\"id\": 3, \"parent\": 2, \"lambda\": [\"R5\"], \"chi\": "
            "[\"x4\", \"x5\"]}, {\"id\": 4, \"parent\": 3, \"lambda\": [\"R6\"], "
            "\"chi\": [\"x5\", \"x6\"]}]}}}\n");
  EXPECT_EQ(Mask(AwaitJob(server, "q2").body),
            "{\"job\": \"q2\", \"state\": \"done\", \"result\": {\"outcome\": \"satisfiable\", \"witness\": {\"X\": 1, "
            "\"Y\": 2, \"Z\": 7}, \"count\": 5, \"count_saturated\": false, "
            "\"width\": 1, \"fractional_width\": 1.000000, \"estimated_cost\": "
            "6.000000, \"portfolio\": {\"picked\": 0, \"size\": 2}, "
            "\"fingerprint\": \"8c04073fdcbbe080763d4a32dd659540\", "
            "\"cache_hit\": true, \"probes\": 2, \"decompose_seconds\": S, "
            "\"pick_seconds\": S, \"execute_seconds\": S}}\n");

  HttpResponse unknown = server.Handle(Request("GET", "/v1/jobs/q99"));
  EXPECT_EQ(unknown.status, 404);
  EXPECT_EQ(unknown.body, "{\"error\": \"unknown job id: q99\"}\n");
  EXPECT_EQ(server.Handle(Request("GET", "/healthz")).body, "{\"ok\": true}\n");
  server.Stop();
}

TEST(WireBodiesTest, StatsAndAdminBodies) {
  util::Executor executor(1);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "htd_wire_bodies_test";
  std::filesystem::create_directories(dir);
  DecompositionServerOptions options;
  options.http.port = 0;
  options.service.executor = &executor;
  const std::string snapshot_path = (dir / "snap \"1\".bin").string();
  options.snapshot_path = snapshot_path;
  options.load_snapshot_on_start = false;
  {
    auto created = DecompositionServer::Create(options);
    ASSERT_TRUE(created.ok()) << created.status().message();
    HttpResponse stats = (*created)->Handle(Request("GET", "/v1/stats"));
    EXPECT_EQ(stats.body,
              StatsBody(0, "{\"enabled\": false}", snapshot_path));
    HttpResponse saved =
        (*created)->Handle(Request("POST", "/v1/admin/snapshot"));
    EXPECT_EQ(saved.body, "{\"saved\": true, \"cache_entries\": 0, "
                          "\"store_entries\": 0, \"bytes\": 52}\n");
    HttpResponse exported =
        (*created)->Handle(Request("GET", "/v1/admin/export"));
    HttpResponse imported = (*created)->Handle(
        Request("POST", "/v1/admin/import", exported.body));
    EXPECT_EQ(imported.body,
              "{\"imported\": true, \"cache_entries\": 0, \"store_entries\": 0, "
              "\"dropped_out_of_range\": 0}\n");
  }

  options.shard_map = *service::ShardMap::Parse("a:1001,b:1002");
  options.shard_index = 0;
  options.anti_entropy_self = "a:1001";  // the only replica: nothing to pull
  auto created = DecompositionServer::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().message();
  DecompositionServer& server = **created;
  EXPECT_EQ(server.Handle(Request("POST", "/v1/admin/antientropy")).body,
            "{\"swept\": true, \"siblings\": 0, \"slices_pulled\": 0, "
            "\"cache_entries\": 0, \"store_entries\": 0, \"bytes\": 0, "
            "\"errors\": 0}\n");
  HttpResponse prepared = server.Handle(Request(
      "POST", "/v1/admin/migrate?new_index=0&prepare=1", "a:1001,b:1002,c:1003"));
  EXPECT_EQ(prepared.body,
            "{\"prepared\": true, \"transitioning\": true, \"new_digest\": "
            "\"afe816b9423a53d3\", \"new_index\": 0}\n");
  HttpResponse stats = server.Handle(Request("GET", "/v1/stats"));
  EXPECT_EQ(stats.body,
            StatsBody(1,
                      "{\"enabled\": true, \"index\": 0, \"count\": 2, "
                      "\"digest\": \"7de23155e02bb8cb\", \"range\": "
                      "\"0000000000000000-7fffffffffffffff\", "
                      "\"transitioning\": true, \"new_digest\": "
                      "\"afe816b9423a53d3\", \"new_index\": 0, \"new_range\": "
                      "\"0000000000000000-5555555555555555\"}",
                      snapshot_path));
  // Cold: every push is empty, so no socket is opened.
  HttpResponse migrated = server.Handle(Request(
      "POST", "/v1/admin/migrate?new_index=0", "a:1001,b:1002,c:1003"));
  EXPECT_EQ(migrated.body,
            "{\"migrated\": true, \"transitioning\": true, \"new_digest\": "
            "\"afe816b9423a53d3\", \"new_index\": 0, \"entries_out\": 0, "
            "\"targets\": [{\"range\": 1, \"endpoint\": \"b:1002\", "
            "\"cache_entries\": 0, \"store_entries\": 0, \"status\": 200}]}\n");
  HttpResponse misrouted = server.Handle(
      [] {
        HttpRequest request =
            Request("POST", "/v1/decompose?k=2", WriteHyperBench(MakePath(5)));
        request.headers["x-htd-shard-digest"] = "0123";
        return request;
      }());
  EXPECT_EQ(misrouted.status, 421);
  EXPECT_EQ(misrouted.body,
            "{\"error\": \"shard map digest mismatch: this shard is 0/2 of "
            "a:1001,b:1002 (digest 7de23155e02bb8cb, transitioning to "
            "afe816b9423a53d3); request was routed by digest 0123\"}\n");
  HttpResponse finalised =
      server.Handle(Request("POST", "/v1/admin/migrate?finalise=1"));
  EXPECT_EQ(finalised.body,
            "{\"finalised\": true, \"digest\": \"afe816b9423a53d3\", "
            "\"index\": 0, \"range\": \"0000000000000000-5555555555555555\"}\n");
  std::filesystem::remove_all(dir);
}

TEST(WireBodiesTest, TraceAndMetricsJson) {
  DecompositionServerOptions options;
  options.http.port = 0;
  auto created = DecompositionServer::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().message();
  HttpRequest request =
      Request("POST", "/v1/decompose?k=2", WriteHyperBench(MakePath(4)));
  request.headers["x-htd-request-id"] = "00000000000000ab";
  ASSERT_EQ((*created)->Handle(request).status, 200);
  auto span = [](const char* name, int tag) {
    return std::string("{\"id\": \"ID\", \"parent\": \"ID\", \"name\": \"") +
           name + "\", \"start_ms\": M, \"duration_ms\": M, \"tag\": " +
           std::to_string(tag) + "}";
  };
  EXPECT_EQ(Mask(HandleTrace(Request("GET", "/v1/trace?n=1")).body),
            "{\"enabled\": true, \"traces\": [{\"id\": \"ID\", \"name\": "
            "\"request\", \"start_ms\": M, \"duration_ms\": M, \"tag\": 33, "
            "\"spans\": [" + span("parse", 33) + ", " + span("fingerprint", 0) +
            ", " + span("cache", 0) + ", " + span("schedule", 0) + ", " +
            span("solve", 1) + ", " + span("sep_search", 0) + ", " +
            span("serialise", 0) + "]}]}\n");

  const std::vector<util::MetricFamily> families = {
      {"plain", "counter", "", {{"plain", "", 3}}},
      {"labelled", "gauge", "", {{"labelled", "k=\"a\\\"b\"", 1.5},
                                 {"labelled", "k=\"c\"", 0}}},
      {"multi", "gauge", "", {{"multi", "a=\"1\",b=\"2\"", -2}}},
      {"nan", "gauge", "", {{"nan", "", std::nan("")}}},
      {"hist", "histogram", "", {{"hist_count", "", 1}}},
  };
  EXPECT_EQ(RenderMetricsJson(families),
            "{\"plain\": 3, \"labelled\": {\"a\\\\\\\"b\": 1.5, \"c\": 0}, "
            "\"multi\": {\"a=\\\"1\\\",b=\\\"2\\\"\": -2}, \"nan\": null}");
  EXPECT_EQ(JsonErrorResponse(418, "tab\there \"quoted\" \x01").body,
            "{\"error\": \"tab\\there \\\"quoted\\\" \\u0001\"}\n");
}

TEST(WireBodiesTest, RouterBodies) {
  // A live backend behind the router, so /v1/admin/snapshot embeds a real
  // forwarded body (412: no snapshot path configured).
  DecompositionServerOptions backend_options;
  backend_options.http.port = 0;
  auto backend = DecompositionServer::Create(backend_options);
  ASSERT_TRUE(backend.ok()) << backend.status().message();
  ASSERT_TRUE((*backend)->Start().ok());
  const std::string endpoint =
      "127.0.0.1:" + std::to_string((*backend)->port());
  ShardRouter router(ShardRouterOptions{*service::ShardMap::Parse(endpoint)});

  const std::string next_map = endpoint + ",127.0.0.1:1";
  const std::string digest = service::ShardMap::Parse(endpoint)->DigestHex();
  const std::string next_digest =
      service::ShardMap::Parse(next_map)->DigestHex();

  EXPECT_EQ(router.Handle(Request("GET", "/healthz")).body,
            "{\"ok\": true, \"role\": \"router\", \"shards\": 1, "
            "\"endpoints\": 1, \"backing_off\": 0, \"transitioning\": false}\n");
  HttpResponse saved = router.Handle(Request("POST", "/v1/admin/snapshot"));
  EXPECT_EQ(saved.status, 502);
  EXPECT_EQ(saved.body,
            "{\"saved\": false, \"shards\": [{\"index\": 0, \"replica\": 0, "
            "\"endpoint\": \"" + endpoint + "\", \"status\": 412, "
            "\"response\": {\"error\": \"no snapshot path configured "
            "(--snapshot)\"}}]}\n");

  HttpResponse begun =
      router.Handle(Request("POST", "/v1/admin/transition", next_map));
  EXPECT_EQ(begun.body, "{\"transitioning\": true, \"map_digest\": \"" +
                            digest + "\", \"new_map_digest\": \"" +
                            next_digest + "\"}\n");
  HttpResponse aborted =
      router.Handle(Request("POST", "/v1/admin/transition?abort=1"));
  EXPECT_EQ(aborted.body, "{\"transitioning\": false, \"map_digest\": \"" +
                              digest + "\", \"aborted\": true}\n");
  router.Handle(Request("POST", "/v1/admin/transition", next_map));
  HttpResponse completed =
      router.Handle(Request("POST", "/v1/admin/transition?complete=1"));
  EXPECT_EQ(completed.body, "{\"transitioning\": false, \"map_digest\": \"" +
                                next_digest + "\", \"completed\": true}\n");
  (*backend)->Stop();

  // Nothing listens on port 1: the scrape fails fast with a refused connect.
  ShardRouter unreachable(
      ShardRouterOptions{*service::ShardMap::Parse("127.0.0.1:1")});
  EXPECT_EQ(unreachable.Handle(Request("GET", "/v1/stats")).body,
            "{\"role\": \"router\", \"shard_count\": 1, \"endpoint_count\": 1, "
            "\"reachable\": 0, \"map_digest\": \"" +
                service::ShardMap::Parse("127.0.0.1:1")->DigestHex() +
                "\", \"transitioning\": false, \"metrics\": "
                "{\"htd_fleet_endpoints_scraped\": 0, \"htd_fleet_endpoints\": "
                "1}, \"shards\": [{\"index\": 0, \"replica\": 0, \"endpoint\": "
                "\"127.0.0.1:1\", \"forwarded\": 1, \"transport_errors\": 1, "
                "\"backoff_shed\": 0, \"reachable\": false, \"status\": 503}]}\n");
}

}  // namespace
}  // namespace htd::net
