// net/decomposition_server.h end to end: real sockets on an ephemeral port,
// route behaviour, admission-control load shedding, async jobs, and
// snapshot-based warm restart (including corrupt-snapshot cold start).
#include "net/decomposition_server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "hypergraph/generators.h"
#include "hypergraph/writer.h"
#include "cq/query.h"
#include "net/http.h"
#include "qa/wire.h"
#include "util/metrics.h"
#include "util/socket.h"

namespace htd::net {
namespace {

using namespace std::chrono_literals;

struct WireResponse {
  int status = 0;
  std::map<std::string, std::string> headers;
  std::string body;
};

/// Minimal HTTP client: one Connection: close exchange against localhost.
/// `extra_headers` are raw header lines including their trailing CRLF.
WireResponse Exchange(int port, const std::string& method,
                      const std::string& target, const std::string& body = "",
                      const std::string& extra_headers = "") {
  WireResponse out;
  auto sock = util::ConnectTcp("127.0.0.1", port, /*timeout_seconds=*/120.0);
  EXPECT_TRUE(sock.ok()) << sock.status().message();
  if (!sock.ok()) return out;
  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  request += extra_headers;
  request += "Connection: close\r\n\r\n" + body;
  EXPECT_TRUE(util::SendAll(sock->fd(), request));
  std::string blob;
  char buffer[8192];
  while (true) {
    long n = util::RecvSome(sock->fd(), buffer, sizeof(buffer));
    if (n <= 0) break;
    blob.append(buffer, static_cast<size_t>(n));
  }
  EXPECT_TRUE(ParseHttpResponseBlob(blob, &out.status, &out.headers, &out.body))
      << "unparseable response: " << blob;
  return out;
}

/// One series of `server`'s metrics registry (NaN when unregistered).
double Metric(DecompositionServer& server, const std::string& name,
              const std::string& labels = "") {
  return server.decomposition_service().metrics().Value(name, labels);
}

DecompositionServerOptions BaseOptions() {
  DecompositionServerOptions options;
  options.http.port = 0;  // ephemeral
  options.http.io_threads = 4;
  options.service.default_timeout_seconds = 30.0;
  return options;
}

std::string PathInstance() { return WriteHyperBench(MakePath(5)); }

TEST(NetServerTest, DecomposeSyncAndCacheHit) {
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok()) << server.status().message();
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  WireResponse first =
      Exchange(port, "POST", "/v1/decompose?k=2&decomposition=1", PathInstance());
  EXPECT_EQ(first.status, 200);
  EXPECT_NE(first.body.find("\"outcome\": \"yes\""), std::string::npos) << first.body;
  EXPECT_NE(first.body.find("\"cache_hit\": false"), std::string::npos);
  EXPECT_NE(first.body.find("\"decomposition\""), std::string::npos);

  // The same instance under renamed vertices still hits (canonical keys).
  WireResponse second =
      Exchange(port, "POST", "/v1/decompose?k=2", PathInstance());
  EXPECT_EQ(second.status, 200);
  EXPECT_NE(second.body.find("\"cache_hit\": true"), std::string::npos) << second.body;

  WireResponse stats = Exchange(port, "GET", "/v1/stats");
  EXPECT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"htd_scheduler_cache_hits_total\": 1"),
            std::string::npos)
      << stats.body;
  (*server)->Stop();
}

TEST(NetServerTest, ValidationAndRouting) {
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  EXPECT_EQ(Exchange(port, "POST", "/v1/decompose", PathInstance()).status, 400)
      << "missing k";
  EXPECT_EQ(Exchange(port, "POST", "/v1/decompose?k=abc", PathInstance()).status,
            400);
  EXPECT_EQ(Exchange(port, "POST", "/v1/decompose?k=2", "").status, 400)
      << "empty body";
  EXPECT_EQ(Exchange(port, "POST", "/v1/decompose?k=2", "((((").status, 400)
      << "unparseable hypergraph";
  EXPECT_EQ(Exchange(port, "GET", "/v1/decompose?k=2").status, 405);
  EXPECT_EQ(Exchange(port, "GET", "/nope").status, 404);
  EXPECT_EQ(Exchange(port, "GET", "/v1/jobs/j999").status, 404);
  EXPECT_EQ(Exchange(port, "GET", "/healthz").status, 200);

  WireResponse stats = Exchange(port, "GET", "/v1/stats");
  EXPECT_NE(stats.body.find("\"bad_request\": 4"), std::string::npos) << stats.body;
  (*server)->Stop();
}

TEST(NetServerTest, AsyncJobLifecycle) {
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  WireResponse admitted =
      Exchange(port, "POST", "/v1/decompose?k=2&async=1", PathInstance());
  EXPECT_EQ(admitted.status, 202);
  size_t id_pos = admitted.body.find("\"job\": \"");
  ASSERT_NE(id_pos, std::string::npos) << admitted.body;
  size_t id_start = id_pos + 8;
  std::string id = admitted.body.substr(
      id_start, admitted.body.find('"', id_start) - id_start);

  // Poll until resolved (a path at k=2 solves in microseconds).
  WireResponse job;
  for (int i = 0; i < 200; ++i) {
    job = Exchange(port, "GET", "/v1/jobs/" + id);
    ASSERT_EQ(job.status, 200);
    if (job.body.find("\"state\": \"done\"") != std::string::npos) break;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_NE(job.body.find("\"state\": \"done\""), std::string::npos) << job.body;
  EXPECT_NE(job.body.find("\"outcome\": \"yes\""), std::string::npos) << job.body;
  (*server)->Stop();
}

TEST(NetServerTest, AdmissionControlShedsWith429) {
  DecompositionServerOptions options = BaseOptions();
  options.max_queue_depth = 2;
  auto server = DecompositionServer::Create(options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  // A clique this size at k=4 runs far longer than the test (it is shed or
  // cancelled long before finishing), so it pins the single worker while
  // the flood arrives.
  std::string slow = WriteHyperBench(MakeClique(24));
  int accepted = 0, shed = 0;
  for (int i = 0; i < 6; ++i) {
    WireResponse r = Exchange(
        port, "POST", "/v1/decompose?k=4&async=1&timeout=30", slow);
    if (r.status == 202) {
      ++accepted;
    } else {
      ASSERT_EQ(r.status, 429) << r.body;
      EXPECT_EQ(r.headers.at("retry-after"), "1");
      ++shed;
    }
  }
  EXPECT_EQ(accepted, 2) << "bounded queue must stop admitting at the bound";
  EXPECT_EQ(shed, 4);

  WireResponse stats = Exchange(port, "GET", "/v1/stats");
  EXPECT_NE(stats.body.find("\"shed\": 4"), std::string::npos) << stats.body;

  // Stop() cancels the pinned solves; it must return promptly rather than
  // wait out the 30 s deadlines.
  (*server)->Stop();
}

TEST(NetServerTest, SyncFloodShedsAtTheConnectionBound) {
  DecompositionServerOptions options = BaseOptions();
  options.http.io_threads = 2;
  options.http.max_connections = 2;  // both slots will be pinned
  auto server = DecompositionServer::Create(options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  // Two synchronous requests pin both connection slots (the single worker
  // solves one; the other waits in the scheduler) — no async, so the
  // application-level queue bound alone could never shed this shape. The
  // pinning connections are opened HERE, sequentially, before any stats
  // probe: the kernel's accept queue is FIFO, so they own the two slots
  // before a probe can steal one (probe threads racing the pins for slots
  // made the original formulation flaky).
  std::string slow = WriteHyperBench(MakeClique(24));
  std::string pin_request =
      "POST /v1/decompose?k=4&timeout=30 HTTP/1.1\r\n"
      "Content-Length: " + std::to_string(slow.size()) +
      "\r\nConnection: close\r\n\r\n" + slow;
  auto pin1 = util::ConnectTcp("127.0.0.1", port, /*timeout_seconds=*/120.0);
  ASSERT_TRUE(pin1.ok()) << pin1.status().message();
  ASSERT_TRUE(util::SendAll(pin1->fd(), pin_request));
  auto pin2 = util::ConnectTcp("127.0.0.1", port, /*timeout_seconds=*/120.0);
  ASSERT_TRUE(pin2.ok()) << pin2.status().message();
  ASSERT_TRUE(util::SendAll(pin2->fd(), pin_request));

  // Once the acceptor has admitted both, the next connection must be shed
  // with 503 at the transport instead of queueing in the IO pool.
  WireResponse shed;
  for (int i = 0; i < 200; ++i) {
    shed = Exchange(port, "GET", "/v1/stats");
    if (shed.status == 503) break;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(shed.status, 503) << shed.body;
  EXPECT_EQ(shed.headers.at("retry-after"), "1");

  // The acceptor counts a connection live before its handler task has run;
  // stopping now could 503 the pins before they are admitted. Wait until
  // both have reached the scheduler.
  const std::string admitted = "result=\"admitted\"";
  for (int i = 0;
       i < 500 &&
       Metric(**server, "htd_admission_requests_total", admitted) < 2;
       ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(Metric(**server, "htd_admission_requests_total", admitted), 2);

  // Stop() cancels the pinned solves but flushes their in-flight responses
  // (read-side-only shutdown): both pinned connections still read an
  // orderly 200 (outcome: cancelled).
  (*server)->Stop();
  for (util::Socket* pin : {&*pin1, &*pin2}) {
    std::string blob;
    char buffer[8192];
    while (true) {
      long n = util::RecvSome(pin->fd(), buffer, sizeof(buffer));
      if (n <= 0) break;
      blob.append(buffer, static_cast<size_t>(n));
    }
    WireResponse response;
    ASSERT_TRUE(ParseHttpResponseBlob(blob, &response.status, &response.headers,
                                      &response.body))
        << "pinned connection must still get its response: " << blob;
    EXPECT_EQ(response.status, 200);
  }
}

TEST(NetServerTest, AsyncQueryJobsCountAgainstTheAdmissionBound) {
  // Regression: async /v1/query jobs used to run on detached std::async
  // threads invisible to outstanding_jobs(), so a query flood sailed past
  // the 429 bound without limit. They now run on the executor's background
  // lane and are counted, so the same bound covers both job kinds.
  DecompositionServerOptions options = BaseOptions();
  options.max_queue_depth = 2;
  auto server = DecompositionServer::Create(options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  // A conjunctive query whose hypergraph is a big clique: the k-sweep's
  // probes run far longer than the test, so every admitted query job stays
  // outstanding while the flood arrives.
  std::string atoms;
  for (int i = 0; i < 24; ++i) {
    for (int j = i + 1; j < 24; ++j) {
      if (!atoms.empty()) atoms += ", ";
      atoms += "R(X" + std::to_string(i) + ",X" + std::to_string(j) + ")";
    }
  }
  auto query = cq::ParseQuery(atoms + ".");
  ASSERT_TRUE(query.ok()) << query.status().message();
  cq::Database db;
  db.AddRelation({"R", 2, {{1, 2}, {2, 3}}});
  auto body = qa::RenderQueryRequest(*query, db);
  ASSERT_TRUE(body.ok()) << body.status().message();

  int accepted = 0, shed = 0;
  for (int i = 0; i < 8; ++i) {
    WireResponse r =
        Exchange(port, "POST", "/v1/query?async=1&timeout=30", *body);
    if (r.status == 202) {
      ++accepted;
    } else {
      ASSERT_EQ(r.status, 429) << r.body;
      EXPECT_EQ(r.headers.at("retry-after"), "1");
      ++shed;
    }
  }
  // A query job's own probe flight may briefly double-count against the
  // bound, so the exact split can vary by one — but the bound must engage.
  EXPECT_GE(accepted, 1);
  EXPECT_LE(accepted, 2) << "the bound must stop admitting query jobs";
  EXPECT_GE(shed, 6);

  WireResponse stats = Exchange(port, "GET", "/v1/stats");
  EXPECT_NE(stats.body.find("\"shed\": " + std::to_string(shed)),
            std::string::npos)
      << stats.body;

  // Stop() must cancel the pinned probes AND wait out the query tasks —
  // returning while one still runs would be a use-after-free.
  (*server)->Stop();
}

TEST(NetServerTest, SnapshotWarmRestartServesCacheHits) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "htd_net_server_warm.snap").string();
  std::filesystem::remove(path);

  DecompositionServerOptions options = BaseOptions();
  options.snapshot_path = path;
  options.service.enable_subproblem_store = true;

  {
    auto server = DecompositionServer::Create(options);
    ASSERT_TRUE(server.ok());
    ASSERT_TRUE((*server)->Start().ok());
    int port = (*server)->port();
    EXPECT_EQ(Exchange(port, "POST", "/v1/decompose?k=2",
                       WriteHyperBench(MakeCycle(6))).status, 200);
    EXPECT_EQ(Exchange(port, "POST", "/v1/decompose?k=2", PathInstance()).status,
              200);
    WireResponse snap = Exchange(port, "POST", "/v1/admin/snapshot");
    EXPECT_EQ(snap.status, 200) << snap.body;
    EXPECT_NE(snap.body.find("\"saved\": true"), std::string::npos);
    (*server)->Stop();
  }

  {
    auto server = DecompositionServer::Create(options);
    ASSERT_TRUE(server.ok());
    EXPECT_EQ((*server)->restored().cache_entries, 2u);
    ASSERT_TRUE((*server)->Start().ok());
    int port = (*server)->port();
    WireResponse replay =
        Exchange(port, "POST", "/v1/decompose?k=2", WriteHyperBench(MakeCycle(6)));
    EXPECT_EQ(replay.status, 200);
    EXPECT_NE(replay.body.find("\"cache_hit\": true"), std::string::npos)
        << "warm restart must serve previously-solved instances from cache: "
        << replay.body;
    WireResponse stats = Exchange(port, "GET", "/v1/stats");
    EXPECT_NE(stats.body.find("\"htd_snapshot_restored_entries\": {\"cache\": 2,"),
              std::string::npos)
        << stats.body;
    (*server)->Stop();
  }
  std::filesystem::remove(path);
}

TEST(NetServerTest, CorruptSnapshotStartsCold) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "htd_net_server_corrupt.snap")
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "HTDSNAP1 but then garbage follows";
  }
  DecompositionServerOptions options = BaseOptions();
  options.snapshot_path = path;
  auto server = DecompositionServer::Create(options);
  ASSERT_TRUE(server.ok()) << "corrupt snapshot must not abort startup";
  EXPECT_EQ((*server)->restored().cache_entries, 0u);
  EXPECT_EQ((*server)->restored().store_entries, 0u);
  ASSERT_TRUE((*server)->Start().ok());
  EXPECT_EQ(Exchange((*server)->port(), "POST", "/v1/decompose?k=2",
                     PathInstance()).status, 200);
  (*server)->Stop();
  std::filesystem::remove(path);
}

bool IsHex16(const std::string& text) {
  if (text.size() != 16) return false;
  for (char c : text) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

TEST(NetServerTest, SyncDecomposeCarriesObservabilityHeaders) {
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  WireResponse r =
      Exchange(port, "POST", "/v1/decompose?k=2", PathInstance());
  ASSERT_EQ(r.status, 200);
  ASSERT_TRUE(r.headers.count("x-htd-request-id")) << r.body;
  EXPECT_TRUE(IsHex16(r.headers.at("x-htd-request-id")))
      << r.headers.at("x-htd-request-id");
  ASSERT_TRUE(r.headers.count("server-timing"));
  const std::string& timing = r.headers.at("server-timing");
  for (const char* stage :
       {"parse", "fingerprint", "cache", "schedule", "solve", "serialise"}) {
    EXPECT_NE(timing.find(std::string(stage) + ";dur="), std::string::npos)
        << "missing stage " << stage << " in: " << timing;
  }
  (*server)->Stop();
}

TEST(NetServerTest, AdoptedRequestIdIsEchoedAndTraceable) {
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  const std::string id = "00deadbeef00f00d";
  WireResponse r = Exchange(port, "POST", "/v1/decompose?k=2", PathInstance(),
                            "X-HTD-Request-Id: " + id + "\r\n");
  ASSERT_EQ(r.status, 200);
  ASSERT_TRUE(r.headers.count("x-htd-request-id"));
  EXPECT_EQ(r.headers.at("x-htd-request-id"), id)
      << "a valid propagated request id must be adopted, not re-minted";

  WireResponse trace = Exchange(port, "GET", "/v1/trace?n=32");
  ASSERT_EQ(trace.status, 200);
  EXPECT_NE(trace.body.find("\"id\": \"" + id + "\""), std::string::npos)
      << "adopted id must be retrievable as a root span: " << trace.body;
  EXPECT_NE(trace.body.find("\"name\": \"request\""), std::string::npos);
  EXPECT_NE(trace.body.find("\"name\": \"solve\""), std::string::npos)
      << "stage spans must be attached to the root: " << trace.body;
  (*server)->Stop();
}

TEST(NetServerTest, MalformedRequestIdIsReplacedNotAdopted) {
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  WireResponse r = Exchange(port, "POST", "/v1/decompose?k=2", PathInstance(),
                            "X-HTD-Request-Id: not-a-trace-id\r\n");
  ASSERT_EQ(r.status, 200);
  ASSERT_TRUE(r.headers.count("x-htd-request-id"));
  EXPECT_NE(r.headers.at("x-htd-request-id"), "not-a-trace-id");
  EXPECT_TRUE(IsHex16(r.headers.at("x-htd-request-id")));
  (*server)->Stop();
}

TEST(NetServerTest, MetricsEndpointRendersPrometheusText) {
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  ASSERT_EQ(
      Exchange(port, "POST", "/v1/decompose?k=2", PathInstance()).status, 200);

  WireResponse metrics = Exchange(port, "GET", "/v1/metrics");
  ASSERT_EQ(metrics.status, 200);
  ASSERT_TRUE(metrics.headers.count("content-type"));
  EXPECT_NE(metrics.headers.at("content-type").find("version=0.0.4"),
            std::string::npos);
  // Stage histograms are populated after one sync decompose.
  for (const char* stage :
       {"parse", "fingerprint", "cache", "schedule", "solve", "serialise"}) {
    std::string count_line =
        "htd_stage_seconds_count{stage=\"" + std::string(stage) + "\"}";
    size_t pos = metrics.body.find(count_line);
    ASSERT_NE(pos, std::string::npos) << "missing " << count_line;
    EXPECT_EQ(metrics.body.find(count_line + " 0\n"), std::string::npos)
        << "stage " << stage << " must have observations";
  }
  EXPECT_NE(metrics.body.find("# TYPE htd_stage_seconds histogram"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("htd_request_seconds_bucket{route=\"decompose\""),
            std::string::npos);
  EXPECT_NE(metrics.body.find("htd_admission_requests_total{result=\"admitted\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("htd_scheduler_submitted_total"),
            std::string::npos);
  EXPECT_EQ(Exchange(port, "POST", "/v1/metrics").status, 405);
  (*server)->Stop();
}

TEST(NetServerTest, StatsReadFromOneSnapshotStayConsistent) {
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  int port = (*server)->port();

  ASSERT_EQ(
      Exchange(port, "POST", "/v1/decompose?k=2", PathInstance()).status, 200);
  WireResponse stats = Exchange(port, "GET", "/v1/stats");
  ASSERT_EQ(stats.status, 200);
  EXPECT_EQ(stats.body.rfind("{\"metrics\": {", 0), 0u) << stats.body;
  EXPECT_NE(stats.body.find("\"shard\": {\"enabled\": false}"),
            std::string::npos)
      << stats.body;
  EXPECT_NE(stats.body.find("\"config\": {\"max_queue_depth\": 64"),
            std::string::npos)
      << stats.body;
  // One snapshot, one name per counter: every non-histogram family of
  // /v1/metrics is a key of the stats metrics object, admission and
  // scheduler counters included.
  WireResponse page = Exchange(port, "GET", "/v1/metrics");
  ASSERT_EQ(page.status, 200);
  int families = 0;
  for (const util::MetricFamily& family : util::ParsePrometheusText(page.body)) {
    if (family.type == "histogram") continue;
    ++families;
    EXPECT_NE(stats.body.find("\"" + family.name + "\": "), std::string::npos)
        << "missing stats family " << family.name << " in: " << stats.body;
  }
  EXPECT_GE(families, 20);
  for (const char* key :
       {"\"admitted\": 1", "\"shed\": 0", "\"bad_request\": 0",
        "\"htd_scheduler_submitted_total\": 1",
        "\"htd_scheduler_completed_total\": 1", "\"htd_queue_depth\": 0"}) {
    EXPECT_NE(stats.body.find(key), std::string::npos)
        << "missing stats key " << key << " in: " << stats.body;
  }
  (*server)->Stop();
}

TEST(NetServerTest, SnapshotRouteWithoutPathIs412) {
  auto server = DecompositionServer::Create(BaseOptions());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  EXPECT_EQ(Exchange((*server)->port(), "POST", "/v1/admin/snapshot").status, 412);
  (*server)->Stop();
}

// ---------------------------------------------------------------------------
// Epoll-core transport behaviour: slow-loris reaping, write-timeout slot
// recovery, io_threads-independent admission, and accept-failure backoff.
// These drive a bare HttpServer — the contract under test is the readiness
// loop itself, not the decomposition routes.

/// Polls `condition` until it holds or `deadline` elapses.
bool WaitFor(const std::function<bool()>& condition,
             std::chrono::milliseconds deadline) {
  auto give_up = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < give_up) {
    if (condition()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return condition();
}

HttpResponse OkHandler(const HttpRequest&) {
  HttpResponse response;
  response.body = "{\"ok\": true}\n";
  return response;
}

TEST(NetServerTest, SlowLorisIsReapedWhileFastClientsAreServed) {
  HttpServer::Options options;
  options.io_threads = 2;
  options.loop_threads = 1;
  options.header_timeout_seconds = 0.5;
  options.idle_timeout_seconds = 30.0;  // the loris must hit the HEADER clock
  HttpServer server(options, OkHandler);
  ASSERT_TRUE(server.Start().ok());

  // The loris: drips a valid request one byte at a time, far slower than
  // the header timeout allows.
  auto loris = util::ConnectTcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(loris.ok());
  util::SetRecvTimeout(loris->fd(), 10.0);
  std::atomic<bool> drip_done{false};
  std::thread dripper([&] {
    const std::string request = "GET /healthz HTTP/1.1\r\nHost: drip\r\n\r\n";
    for (char c : request) {
      if (!util::SendAll(loris->fd(), std::string_view(&c, 1))) break;
      std::this_thread::sleep_for(50ms);
    }
    drip_done.store(true);
  });

  // Fast clients during the drip: unchanged latency, all 200.
  for (int i = 0; i < 5; ++i) {
    auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(Exchange(server.port(), "GET", "/anything").status, 200);
    EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
  }

  // The loris is reaped by the header timeout: best-effort 408 then close.
  std::string blob;
  char buffer[1024];
  while (true) {
    long n = util::RecvSome(loris->fd(), buffer, sizeof(buffer));
    if (n <= 0) break;
    blob.append(buffer, static_cast<size_t>(n));
  }
  EXPECT_NE(blob.find(" 408 "), std::string::npos) << blob;
  EXPECT_GE(server.connections_reaped(), 1u);
  dripper.join();
  EXPECT_TRUE(drip_done.load());
  server.Stop();
}

TEST(NetServerTest, StalledReaderIsAbandonedAtWriteTimeoutWithoutLeakingSlot) {
  HttpServer::Options options;
  options.io_threads = 2;
  options.loop_threads = 1;
  options.max_connections = 1;  // ONE slot — a leak would starve the retry
  options.write_timeout_seconds = 0.5;
  HttpServer server(options, [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/octet-stream";
    response.body.assign(32 * 1024 * 1024, 'x');  // far past any socket buffer
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  // A reader that requests the huge response and then never reads: the
  // kernel buffers fill, the flush stalls, and the write timeout must
  // abandon the connection rather than hold its slot forever. SO_RCVBUF is
  // pinned tiny BEFORE connect so autotuned loopback windows can never
  // swallow the whole response and let the flush complete.
  int stalled_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(stalled_fd, 0);
  int tiny = 16 * 1024;
  ::setsockopt(stalled_fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  sockaddr_in server_addr{};
  server_addr.sin_family = AF_INET;
  server_addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  server_addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(stalled_fd, reinterpret_cast<sockaddr*>(&server_addr),
                      sizeof(server_addr)),
            0);
  util::Socket stalled(stalled_fd);
  ASSERT_TRUE(util::SendAll(stalled.fd(),
                            "GET /blob HTTP/1.1\r\nConnection: close\r\n\r\n"));
  ASSERT_TRUE(WaitFor([&] { return server.connections_reaped() >= 1; }, 15s))
      << "write timeout never fired";

  // The slot must be free again: a well-behaved client succeeds.
  ASSERT_TRUE(WaitFor(
      [&] { return server.connection_counts().total() == 0; }, 10s));
  auto probe = util::ConnectTcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(probe.ok());
  util::SetRecvTimeout(probe->fd(), 30.0);
  ASSERT_TRUE(util::SendAll(probe->fd(),
                            "GET /blob HTTP/1.1\r\nConnection: close\r\n\r\n"));
  std::string head;
  char buffer[4096];
  long n = util::RecvSome(probe->fd(), buffer, sizeof(buffer));
  ASSERT_GT(n, 0);
  head.assign(buffer, static_cast<size_t>(n));
  EXPECT_NE(head.find(" 200 "), std::string::npos) << head;
  server.Stop();
}

TEST(NetServerTest, IdleKeepAliveConnectionsArentBoundedByThreadCounts) {
  HttpServer::Options options;
  options.io_threads = 2;    // the whole point: 2 threads, hundreds of conns
  options.loop_threads = 2;
  options.backlog = 256;
  options.max_connections = 600;
  options.idle_timeout_seconds = 60.0;
  HttpServer server(options, OkHandler);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kIdle = 300;
  std::vector<util::Socket> held;
  held.reserve(kIdle);
  for (int i = 0; i < kIdle; ++i) {
    auto sock = util::ConnectTcp("127.0.0.1", server.port(), 10.0);
    ASSERT_TRUE(sock.ok()) << "connect " << i << ": " << sock.status().message();
    held.push_back(std::move(*sock));
  }
  ASSERT_TRUE(WaitFor(
      [&] { return server.connection_counts().idle >= kIdle; }, 20s))
      << "only " << server.connection_counts().idle << " idle";
  // The thread-per-connection core shed at io_threads; the loop must not.
  EXPECT_EQ(server.connections_shed(), 0u);
  EXPECT_GE(server.connections_accepted(), static_cast<uint64_t>(kIdle));

  // The held connections are live, not zombies: a sample of them still
  // serves requests, as does a brand-new one.
  for (int i : {0, kIdle / 2, kIdle - 1}) {
    ASSERT_TRUE(util::SendAll(held[static_cast<size_t>(i)].fd(),
                              "GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n"));
    util::SetRecvTimeout(held[static_cast<size_t>(i)].fd(), 10.0);
    std::string blob;
    char buffer[4096];
    while (true) {
      long n = util::RecvSome(held[static_cast<size_t>(i)].fd(), buffer,
                              sizeof(buffer));
      if (n <= 0) break;
      blob.append(buffer, static_cast<size_t>(n));
    }
    EXPECT_NE(blob.find(" 200 "), std::string::npos) << blob;
  }
  EXPECT_EQ(Exchange(server.port(), "GET", "/fresh").status, 200);
  EXPECT_EQ(server.connections_shed(), 0u);
  held.clear();
  server.Stop();
}

TEST(NetServerTest, AcceptBackoffRecoversFromFdExhaustion) {
  HttpServer::Options options;
  options.io_threads = 2;
  options.loop_threads = 1;
  HttpServer server(options, OkHandler);
  ASSERT_TRUE(server.Start().ok());

  // The client's fd is allocated BEFORE exhaustion; connect() itself needs
  // no new descriptor in this process.
  int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);

  // Exhaust the fd budget: lower the soft limit to just above current use,
  // then fill what remains. accept() in the server (same process) now fails
  // with EMFILE while the connection waits in the listen queue.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit tight = saved;
  tight.rlim_cur = 256;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::vector<int> fillers;
  while (true) {
    int fd = ::dup(client);
    if (fd < 0) break;
    fillers.push_back(fd);
  }
  ASSERT_FALSE(fillers.empty());

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_TRUE(util::SendAll(client,
                            "GET /after HTTP/1.1\r\nConnection: close\r\n\r\n"));

  // The acceptor must be failing AND backing off (not spinning): failures
  // accrue at roughly one per 10 ms backoff, not tens of thousands.
  ASSERT_TRUE(WaitFor([&] { return server.accept_failures() >= 2; }, 10s));
  uint64_t failures_during_exhaustion = server.accept_failures();
  EXPECT_LT(failures_during_exhaustion, 2000u) << "acceptor is spinning";

  // Recovery: free the budget and the queued connection gets served.
  for (int fd : fillers) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  util::SetRecvTimeout(client, 20.0);
  std::string blob;
  char buffer[4096];
  while (true) {
    long n = util::RecvSome(client, buffer, sizeof(buffer));
    if (n <= 0) break;
    blob.append(buffer, static_cast<size_t>(n));
  }
  EXPECT_NE(blob.find(" 200 "), std::string::npos)
      << "queued connection not served after recovery: " << blob;
  ::close(client);
  server.Stop();
}

TEST(NetServerTest, StopDrainsInFlightResponsesAndRefusesNewWork) {
  // Re-pin the PR 3 drain contract on the epoll core directly: a response
  // in flight at Stop() is flushed; the port stops answering afterwards.
  HttpServer::Options options;
  options.io_threads = 2;
  options.loop_threads = 1;
  std::atomic<bool> release{false};
  HttpServer server(options, [&](const HttpRequest&) {
    while (!release.load()) std::this_thread::sleep_for(1ms);
    HttpResponse response;
    response.body = "{\"drained\": true}\n";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  int port = server.port();

  auto pinned = util::ConnectTcp("127.0.0.1", port, 5.0);
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(util::SendAll(pinned->fd(),
                            "GET /slow HTTP/1.1\r\nConnection: close\r\n\r\n"));
  ASSERT_TRUE(WaitFor(
      [&] { return server.connection_counts().dispatched >= 1; }, 10s));

  std::thread stopper([&] { server.Stop(); });
  std::this_thread::sleep_for(50ms);
  release.store(true);
  stopper.join();
  EXPECT_FALSE(server.running());

  // The dispatched response was flushed during the drain.
  util::SetRecvTimeout(pinned->fd(), 10.0);
  std::string blob;
  char buffer[4096];
  while (true) {
    long n = util::RecvSome(pinned->fd(), buffer, sizeof(buffer));
    if (n <= 0) break;
    blob.append(buffer, static_cast<size_t>(n));
  }
  EXPECT_NE(blob.find("\"drained\": true"), std::string::npos) << blob;
  EXPECT_EQ(server.connection_counts().total(), 0u);
}

}  // namespace
}  // namespace htd::net
