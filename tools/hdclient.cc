// hdclient: command-line client for hdserver (docs/SERVER.md).
//
//   $ hdclient decompose instance.hg --k 3 --timeout 5 --decomposition
//   $ hdclient decompose instance.hg --k 3 --async      # prints a job id
//   $ hdclient query request.qr --timeout 5             # HTDQUERY1 body
//   $ hdclient job j42                                  # or q42 (query job)
//   $ hdclient stats
//   $ hdclient metrics                    # /v1/metrics, histograms condensed
//   $ hdclient trace --last 5             # /v1/trace?n=5
//   $ hdclient snapshot
//
// --verbose prints the response's observability headers (X-HTD-Request-Id,
// Server-Timing stage breakdown) to stderr on decompose, and the raw
// Prometheus page (HELP/TYPE lines, every histogram bucket) on metrics.
//
// Sharded fleets (docs/SERVER.md "Sharding the warm state"): with
// --shards host:port,host:port the client hashes the instance's canonical
// fingerprint itself and talks straight to the owning shard — no proxy hop.
// The shared ShardMap's digest rides along on every request, so a client
// holding a stale topology is refused with 421 instead of warming the wrong
// shard. `stats` and `snapshot` fan out to every shard.
//
// Speaks HTTP/1.1 over a raw TCP socket (Connection: close per request) —
// no external dependencies. The response body is printed to stdout.
//
// Exit codes: 0 = 2xx, 3 = other HTTP error, 4 = load shed (429/503),
// 2 = usage/transport error, 5 = --expect-cache-hit unmet.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/http_client.h"
#include "net/routes.h"
#include "service/shard_map.h"
#include "util/cli.h"
#include "util/metrics.h"

namespace {

struct Args {
  std::string host = "127.0.0.1";
  int port = 8080;
  /// Transport timeout (connect + response read). For synchronous decompose
  /// requests the effective read timeout is stretched to cover the job's own
  /// --timeout (the server legitimately takes that long to answer); a job
  /// with no deadline (--timeout 0) waits indefinitely.
  double connect_timeout = 120.0;
  std::string command;
  std::string file;    // decompose: instance path ("-" = stdin)
  std::string job_id;  // job
  int k = 0;
  double timeout = -1.0;  // <0 = server default
  int count = -1;         // query: <0 = server default, 0/1 = override
  bool async = false;
  bool decomposition = false;
  bool expect_cache_hit = false;
  bool quiet = false;
  bool verbose = false;
  long trace_n = 16;  // trace: how many recent root spans to fetch
  /// Client-side sharding: fingerprint the instance locally and pick the
  /// owning endpoint from this map (overrides --host/--port for decompose).
  std::optional<htd::service::ShardMap> shards;
};

/// The commands that address every shard of a --shards map.
bool FansOut(const std::string& command) {
  return command == "stats" || command == "snapshot" || command == "metrics" ||
         command == "trace" || command == "sync";
}

/// Declares every flag of `args`; positionals are checked by ParseArgs.
htd::util::FlagTable Flags(Args& args) {
  htd::util::FlagTable flags(
      "[--host H] [--port N] [--shards H:P,H:P,...] COMMAND",
      "commands:\n"
      "  decompose FILE   POST /v1/decompose (needs --k); FILE '-' reads stdin\n"
      "  query FILE       POST /v1/query of an HTDQUERY1 query+database\n"
      "                   (docs/QUERIES.md); FILE '-' reads stdin\n"
      "  job ID           poll an async job (j* or q*)\n"
      "  stats | metrics | trace | snapshot | sync\n"
      "                   GET /v1/stats, /v1/metrics (condensed unless "
      "--verbose),\n"
      "                   /v1/trace?n=N; POST /v1/admin/snapshot, "
      "/v1/admin/antientropy\n");
  flags.Text("--host", "H", &args.host, "server address")
      .Int("--port", &args.port, 1, 65535, "server port")
      .Parsed("--shards", "H:P,...", &args.shards,
              "shared shard map: decompose routes to the shard owning the "
              "instance's fingerprint; stats/metrics/trace/snapshot fan out "
              "to every shard")
      .Int("--k", &args.k, 1, 1'000'000, "decompose: width parameter")
      .Seconds("--timeout", &args.timeout,
               "job deadline (default: the server's)")
      .Int("--count", &args.count, 0, 1,
           "query: 1 = count solutions, 0 = skip (default: the server's)")
      .Seconds("--connect-timeout", &args.connect_timeout,
               "transport timeout; sync decompose reads wait at least the "
               "job timeout + 60")
      .Switch("--async", &args.async, "admit as an async job, print its id")
      .Switch("--decomposition", &args.decomposition,
              "decompose: include the HD in the response")
      .Switch("--expect-cache-hit", &args.expect_cache_hit,
              "exit 5 unless the response reports a cache hit")
      .Switch("--quiet", &args.quiet, "suppress the response body on success")
      .Switch("--verbose", &args.verbose,
              "print X-HTD-Request-Id and the Server-Timing stage breakdown "
              "(decompose), or the full Prometheus page (metrics)")
      .Int("--last", &args.trace_n, 1, 256,
           "trace: how many recent root spans to fetch");
  return flags;
}

/// Fills `args` from argv, or says why not on stderr (usage + exit 2).
bool ParseArgs(const htd::util::FlagTable& flags, int argc, char** argv,
               Args& args) {
  const std::vector<std::string> words = flags.ParseOrExit(argc, argv, 2);
  if (!words.empty()) args.command = words[0];
  const bool takes_operand = args.command == "decompose" ||
                             args.command == "query" || args.command == "job";
  if (words.size() == 2 && !takes_operand) {
    std::fprintf(stderr, "unexpected argument: %s\n\n", words[1].c_str());
    return false;
  }
  if (words.size() == 2) {
    (args.command == "job" ? args.job_id : args.file) = words[1];
  } else if (takes_operand) {
    return false;
  }
  return args.command == "decompose" ? args.k >= 1
                                     : takes_operand || FansOut(args.command);
}

/// One HTTP exchange (Connection: close) over the shared client
/// (net/http_client.h). Returns false on transport errors.
bool Exchange(const Args& args, const std::string& host, int port,
              const std::string& method, const std::string& target,
              const std::string& body,
              const std::vector<std::pair<std::string, std::string>>&
                  extra_headers,
              int* status, std::string* response_body,
              std::map<std::string, std::string>* response_headers = nullptr) {
  double io_timeout = args.connect_timeout;
  if ((args.command == "decompose" || args.command == "query") && !args.async) {
    // A synchronous solve may legitimately run for the job's full deadline;
    // the transport must outlast it. --timeout 0 = no deadline: wait forever.
    io_timeout = args.timeout == 0.0
                     ? 0.0
                     : std::max(io_timeout, args.timeout + 60.0);
  }
  htd::net::FetchOptions options;
  options.connect_timeout_seconds = io_timeout;
  options.read_timeout_seconds = io_timeout;
  htd::net::FetchResult result = htd::net::HttpFetch(
      host, port, method, target, body, extra_headers, options);
  if (!result.ok()) {
    std::fprintf(stderr, "hdclient: %s\n", result.error.c_str());
    return false;
  }
  *status = result.status;
  *response_body = std::move(result.body);
  if (response_headers != nullptr) {
    *response_headers = std::move(result.headers);  // keys lower-cased
  }
  return true;
}

/// Condensed /v1/metrics rendering: drops HELP/TYPE comments and per-bucket
/// histogram lines, keeping the _count/_sum rollups and every counter and
/// gauge — the 30-second "is the fleet healthy" read. --verbose prints the
/// raw page instead.
std::string PrettyMetrics(const std::string& text) {
  std::vector<htd::util::MetricFamily> families =
      htd::util::ParsePrometheusText(text);
  for (htd::util::MetricFamily& family : families) {
    family.help.clear();
    family.type.clear();
    std::erase_if(family.samples, [](const htd::util::MetricSample& sample) {
      return sample.name.ends_with("_bucket");
    });
  }
  return htd::util::RenderPrometheusText(families);
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", seconds);
  return buf;
}

int ExitCodeFor(int status) {
  if (status >= 200 && status < 300) return 0;
  return status == 429 || status == 503 ? 4 : 3;
}

/// stats/snapshot against a shard map: one exchange per PROCESS (every
/// replica of every range), each body printed under its endpoint. Fails
/// with the worst per-endpoint exit code.
int FanOut(const Args& args, const std::string& method,
           const std::string& target) {
  const htd::service::ShardMap& map = *args.shards;
  const std::vector<std::pair<std::string, std::string>> digest_header = {
      {"X-HTD-Shard-Digest", map.DigestHex()}};
  int worst = 0;
  for (const htd::service::ShardMap::Member& member : map.Members()) {
    const htd::service::ShardEndpoint& endpoint = member.endpoint;
    int status = 0;
    std::string response;
    if (!Exchange(args, endpoint.host, endpoint.port, method, target, "",
                  digest_header, &status, &response)) {
      worst = std::max(worst, 2);
      continue;
    }
    if (args.command == "metrics" && !args.verbose && status == 200) {
      response = PrettyMetrics(response);
    }
    if (!args.quiet || status < 200 || status >= 300) {
      std::printf("shard %d replica %d (%s:%d): HTTP %d\n%s", member.range,
                  member.replica, endpoint.host.c_str(), endpoint.port, status,
                  response.c_str());
    }
    worst = std::max(worst, ExitCodeFor(status));
  }
  return worst;
}

/// The shard routing key of `body` under `route` — the fingerprint the
/// router (net/routes.h) computes for the same body; nullopt (reported on
/// stderr) when the body does not parse.
template <typename Route>
std::optional<htd::service::Fingerprint> RoutingKey(const Route& route,
                                                    const std::string& body,
                                                    const std::string& file) {
  auto parsed = route.parse(body);
  if (!parsed.ok()) {
    std::fprintf(stderr, "hdclient: cannot parse %s: %s\n", file.c_str(),
                 parsed.status().message().c_str());
    return std::nullopt;
  }
  return route.fingerprint(*parsed);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const htd::util::FlagTable flags = Flags(args);
  if (!ParseArgs(flags, argc, argv, args)) {
    std::fputs(flags.Usage(argv[0]).c_str(), stderr);
    return 2;
  }

  std::string method = "GET", target, body;
  if (args.command == "decompose" || args.command == "query") {
    std::string text;
    if (args.file == "-") {
      std::ostringstream buffer;
      buffer << std::cin.rdbuf();
      text = buffer.str();
    } else {
      std::ifstream in(args.file, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "hdclient: cannot open %s\n", args.file.c_str());
        return 2;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      text = buffer.str();
    }
    method = "POST";
    if (args.command == "decompose") {
      target = "/v1/decompose?k=" + std::to_string(args.k);
      if (args.timeout >= 0) target += "&timeout=" + FormatSeconds(args.timeout);
      if (args.async) target += "&async=1";
      if (args.decomposition) target += "&decomposition=1";
    } else {
      target = "/v1/query";
      std::string sep = "?";
      if (args.timeout >= 0) {
        target += sep + "timeout=" + FormatSeconds(args.timeout);
        sep = "&";
      }
      if (args.async) {
        target += sep + "async=1";
        sep = "&";
      }
      if (args.count >= 0) {
        target += sep + "count=" + std::to_string(args.count);
        sep = "&";
      }
    }
    body = std::move(text);
  } else if (args.command == "job") {
    target = "/v1/jobs/" + args.job_id;
  } else if (args.command == "stats") {
    target = "/v1/stats";
  } else if (args.command == "metrics") {
    target = "/v1/metrics";
  } else if (args.command == "trace") {
    target = "/v1/trace?n=" + std::to_string(args.trace_n);
  } else if (args.command == "sync") {
    method = "POST";
    target = "/v1/admin/antientropy";
  } else {  // snapshot
    method = "POST";
    target = "/v1/admin/snapshot";
  }

  std::string host = args.host;
  int port = args.port;
  std::vector<std::pair<std::string, std::string>> extra_headers;
  /// Sibling replicas of the chosen shard, tried in order on transport
  /// failure (client-side analogue of the router's replica failover).
  std::vector<std::pair<std::string, int>> replica_fallbacks;
  if (args.shards.has_value()) {
    if (FansOut(args.command)) return FanOut(args, method, target);
    if (args.command == "job") {
      std::fprintf(stderr,
                   "hdclient: `job` with --shards is ambiguous; poll the "
                   "shard that admitted the job via --host/--port\n");
      return 2;
    }
    // Client-side hashing: the canonical fingerprint decides the shard, so
    // every renaming of this instance lands on the same warm state. A query
    // hashes the fingerprint of its hypergraph — the same key the backend
    // decomposes under.
    const std::optional<htd::service::Fingerprint> key =
        args.command == "query"
            ? RoutingKey(htd::net::kQueryRoute, body, args.file)
            : RoutingKey(htd::net::kDecomposeRoute, body, args.file);
    if (!key.has_value()) return 2;
    const htd::service::Fingerprint fp = *key;
    const int shard = args.shards->IndexFor(fp);
    // A replicated range (host:port*R in the map) spreads clients over its
    // replicas by the fingerprint's low word — stateless, deterministic per
    // instance — and the remaining replicas are kept as transport-failure
    // fallbacks below, so one dead replica does not fail the request.
    const int replicas = args.shards->num_replicas(shard);
    const int first = static_cast<int>(fp.lo % static_cast<uint64_t>(replicas));
    const htd::service::ShardEndpoint& endpoint =
        args.shards->replica(shard, first);
    host = endpoint.host;
    port = endpoint.port;
    for (int attempt = 1; attempt < replicas; ++attempt) {
      const htd::service::ShardEndpoint& fallback =
          args.shards->replica(shard, (first + attempt) % replicas);
      replica_fallbacks.emplace_back(fallback.host, fallback.port);
    }
    extra_headers = {{"X-HTD-Shard-Digest", args.shards->DigestHex()},
                     {"X-HTD-Shard-Fingerprint", fp.ToHex()}};
    if (!args.quiet) {
      std::fprintf(stderr, "hdclient: %s -> shard %d (%s:%d)\n",
                   fp.ToHex().c_str(), shard, host.c_str(), port);
    }
  }

  int status = 0;
  std::string response;
  std::map<std::string, std::string> response_headers;
  while (!Exchange(args, host, port, method, target, body, extra_headers,
                   &status, &response, &response_headers)) {
    if (replica_fallbacks.empty()) return 2;
    std::tie(host, port) = replica_fallbacks.front();
    replica_fallbacks.erase(replica_fallbacks.begin());
    std::fprintf(stderr, "hdclient: failing over to replica %s:%d\n",
                 host.c_str(), port);
  }
  if (args.verbose &&
      (args.command == "decompose" || args.command == "query")) {
    auto request_id = response_headers.find("x-htd-request-id");
    if (request_id != response_headers.end()) {
      std::fprintf(stderr, "hdclient: request id %s\n",
                   request_id->second.c_str());
    }
    auto server_timing = response_headers.find("server-timing");
    if (server_timing != response_headers.end()) {
      std::fprintf(stderr, "hdclient: server timing %s\n",
                   server_timing->second.c_str());
    }
  }

  if (status >= 200 && status < 300) {
    if (args.command == "metrics" && !args.verbose) {
      response = PrettyMetrics(response);
    }
    if (!args.quiet) std::fputs(response.c_str(), stdout);
    if (args.expect_cache_hit &&
        response.find("\"cache_hit\": true") == std::string::npos) {
      std::fprintf(stderr, "hdclient: expected a cache hit, got: %s",
                   response.c_str());
      return 5;
    }
    return 0;
  }
  std::fprintf(stderr, "hdclient: HTTP %d: %s", status, response.c_str());
  return ExitCodeFor(status);
}
