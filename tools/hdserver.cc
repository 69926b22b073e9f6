// hdserver: the standalone decomposition server (docs/SERVER.md).
//
//   $ hdserver --port 8080 --solver logk --workers 8 --threads 0 \
//              --queue-depth 64 --snapshot /var/lib/htd/warm.snap --store
//
// Serves POST /v1/decompose, GET /v1/jobs/<id>, GET /v1/stats,
// GET /v1/metrics (Prometheus text), GET /v1/trace (recent request traces),
// and POST /v1/admin/snapshot over HTTP/1.1. With --snapshot the server restores
// the result cache and subproblem store at startup (warm start) and saves
// them on clean shutdown (SIGINT/SIGTERM) unless --no-save-on-exit;
// --snapshot-interval additionally saves periodically in the background.
//
// Sharded deployments (docs/SERVER.md "Sharding the warm state"):
//
//   $ hdserver --route-to 10.0.0.1:8080,10.0.0.2:8080         # proxy mode
//   $ hdserver --shard-map 10.0.0.1:8080,10.0.0.2:8080 \
//              --shard-index 0 --snapshot shard0.snap          # backend
//
// Proxy mode forwards each /v1/decompose to the shard owning the instance's
// canonical fingerprint (net/shard_router.h), aggregates GET /v1/metrics
// across the fleet, and serves nothing else locally;
// backend mode restricts snapshots to this shard's fingerprint range and
// refuses requests routed by a mismatched map digest with 421. A map item
// "host:port*2" declares a replicated range (that endpoint plus the next
// one serve the same range; the router round-robins over them). Topologies
// change at runtime: tools/hdreshard.cc drives a live N->M reshard through
// POST /v1/admin/transition (router) and /v1/admin/migrate (backends)
// without dropping warm state — see docs/OPERATIONS.md.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include "net/decomposition_server.h"
#include "net/server.h"
#include "net/shard_router.h"
#include "util/cli.h"
#include "util/executor.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

/// Proxy mode: an HttpServer whose handler is the ShardRouter; no local
/// service, no snapshot — the shards own the warm state.
int RunRouter(htd::net::HttpServer::Options http,
              htd::net::ShardRouterOptions router_options) {
  htd::net::ShardRouter router(std::move(router_options));
  htd::net::HttpServer http_server(
      http, [&router](const htd::net::HttpRequest& request) {
        return router.Handle(request);
      });
  if (auto status = http_server.Start(); !status.ok()) {
    std::fprintf(stderr, "hdserver: %s\n", status.message().c_str());
    return 2;
  }
  std::printf("hdserver: routing on %s:%d across %d shards (%s), digest %s\n",
              http.host.c_str(), http_server.port(),
              router.options().map.num_shards(),
              router.options().map.Serialise().c_str(),
              router.options().map.DigestHex().c_str());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("hdserver: router shutting down\n");
  http_server.Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  htd::net::DecompositionServerOptions options;
  options.http.port = 8080;
  options.service.solve.num_threads = 0;  // batch-aware auto
  options.service.default_timeout_seconds = 30.0;
  bool save_on_exit = true;
  int workers = 4;
  double snapshot_interval = 0.0;
  bool have_shard_index = false;
  std::optional<htd::service::ShardMap> route_to;
  htd::net::ShardRouterOptions router_options{
      htd::service::ShardMap::Parse("unused:1").value()};
  htd::net::HttpServer::Options& http = options.http;
  htd::service::ServiceOptions& service = options.service;

  htd::util::FlagTable flags(
      "[options]",
      "sharding: docs/SERVER.md, docs/OPERATIONS.md. Live resharding: drive "
      "with\nhdreshard (POST /v1/admin/transition on the router, "
      "/v1/admin/migrate on\neach backend)\n");
  flags.Text("--host", "ADDR", &http.host, "listen address")
      .Int("--port", &http.port, 0, 65535, "listen port, 0 = ephemeral")
      .Int("--io-threads", &http.io_threads, 1, 1024,
           "handler threads; a synchronous solve blocks one while it runs")
      .Int("--loop-threads", &http.loop_threads, 1, 256,
           "epoll loops driving connection I/O (a few carry 10k+ sockets)")
      .Int("--workers", &workers, 1, 1024,
           "fleet executor width, shared by every solve and async query job")
      .Int("--threads", &service.solve.num_threads, 0, 1024,
           "intra-solve threads per job; 0 = batch-aware auto")
      .Text("--solver", "NAME", &service.solver_name,
            "logk | logk-basic | detk | hybrid | balsep-ghd")
      .Int("--queue-depth", &options.max_queue_depth, 1, 1'000'000,
           "admission bound: shed with 429 beyond N outstanding jobs")
      .Int("--max-connections", &http.max_connections, 1, 1'000'000,
           "live-connection bound: further connections get 503 and close")
      .Seconds("--idle-timeout", &http.idle_timeout_seconds,
               "close keep-alive connections idle past S seconds")
      .Seconds("--header-timeout", &http.header_timeout_seconds,
               "408 a connection still mid-request after S seconds "
               "(slow-loris guard; 0 = use --idle-timeout)")
      .Seconds("--write-timeout", &http.write_timeout_seconds,
               "abandon a response stalled mid-flush after S seconds")
      .Seconds("--default-timeout", &service.default_timeout_seconds,
               "deadline for requests without ?timeout= (0 = none)")
      .Int("--cache-capacity", &service.cache_capacity, 1, 1'000'000'000,
           "result-cache entries")
      .Switch("--store", &service.enable_subproblem_store,
              "enable the cross-instance subproblem store")
      .Int("--store-budget-mb", 1, 1'000'000,
           [&service](long mb) {
             service.subproblem_store.byte_budget = static_cast<size_t>(mb) << 20;
             service.enable_subproblem_store = true;
           },
           "subproblem store byte budget (implies --store)",
           static_cast<long>(service.subproblem_store.byte_budget >> 20))
      .Int("--max-k", &options.max_k, 1, 1'000'000,
           "largest accepted width parameter")
      .Text("--snapshot", "PATH", &options.snapshot_path,
            "warm-state file: /v1/admin/snapshot, startup restore, exit save")
      .Seconds("--snapshot-interval", &snapshot_interval,
               "also save the snapshot every S seconds (0 = off)")
      .Switch("--no-load", &options.load_snapshot_on_start,
              "do not restore the snapshot at startup", false)
      .Switch("--no-save-on-exit", &save_on_exit,
              "do not save the snapshot on clean shutdown", false)
      .Parsed("--shard-map", "H:P,H:P,...", &options.shard_map,
              "fleet topology; \"H:P*2\" marks a replicated range (this "
              "endpoint plus the next serve it)")
      .Int("--shard-index", 0, 4095,
           [&](long index) {
             options.shard_index = static_cast<int>(index);
             have_shard_index = true;
           },
           "the RANGE of --shard-map served here (shared by its replicas)",
           std::nullopt)
      .Parsed("--route-to", "H:P,H:P,...", &route_to,
              "proxy mode: forward to the owning shard, serve nothing locally")
      .Seconds("--route-backoff", &router_options.backoff_base_seconds,
               "backoff after a shard transport failure, doubling up to 30 s")
      .Seconds("--anti-entropy-interval", &options.anti_entropy_interval_seconds,
               "pull warm state from this range's replica siblings every S "
               "seconds (0 = off; POST /v1/admin/antientropy forces a round)")
      .Int("--anti-entropy-slices", &options.anti_entropy_slices, 1, 4096,
           "digest sub-slices per comparison")
      .Text("--self", "H:P", &options.anti_entropy_self,
            "this process as written in --shard-map, so the sweep skips it "
            "(default: inferred from the listen port)");
  flags.ParseOrExit(argc, argv);

  if (route_to.has_value()) {
    if (options.shard_map.has_value() || have_shard_index ||
        !options.snapshot_path.empty()) {
      std::fprintf(stderr,
                   "--route-to (proxy mode) excludes --shard-map, "
                   "--shard-index, and --snapshot: the shards own the warm "
                   "state, the router owns none\n");
      return 2;
    }
    router_options.map = *std::move(route_to);
    return RunRouter(options.http, std::move(router_options));
  }
  if (options.shard_map.has_value() != have_shard_index) {
    std::fprintf(stderr, "--shard-map and --shard-index go together\n");
    return 2;
  }
  if (snapshot_interval > 0 && options.snapshot_path.empty()) {
    std::fprintf(stderr, "--snapshot-interval requires --snapshot PATH\n");
    return 2;
  }

  // Size the fleet-wide executor before anything touches Global(): every
  // flight, chunk task, and async query job in this process runs on it.
  htd::util::Executor::InitGlobal(workers);
  auto server = htd::net::DecompositionServer::Create(options);
  if (!server.ok()) {
    std::fprintf(stderr, "hdserver: %s\n", server.status().message().c_str());
    return 2;
  }
  if (auto status = (*server)->Start(); !status.ok()) {
    std::fprintf(stderr, "hdserver: %s\n", status.message().c_str());
    return 2;
  }

  const auto& restored = (*server)->restored();
  std::printf(
      "hdserver: listening on %s:%d (solver %s, %d workers, queue depth %d)\n",
      options.http.host.c_str(), (*server)->port(),
      options.service.solver_name.c_str(),
      htd::util::Executor::Global().num_workers(),
      options.max_queue_depth);
  if (options.shard_map.has_value()) {
    std::printf("hdserver: shard %d/%d of %s (digest %s)\n",
                options.shard_index, options.shard_map->num_shards(),
                options.shard_map->Serialise().c_str(),
                options.shard_map->DigestHex().c_str());
  }
  if (options.anti_entropy_interval_seconds > 0) {
    std::printf("hdserver: anti-entropy sweep every %.3gs (%d digest slices)\n",
                options.anti_entropy_interval_seconds,
                options.anti_entropy_slices);
  }
  if (restored.cache_entries > 0 || restored.store_entries > 0 ||
      restored.dropped_out_of_range > 0) {
    std::printf("hdserver: warm start — restored %zu cache entries, "
                "%zu store keys from %s (%zu dropped out of shard range)\n",
                restored.cache_entries, restored.store_entries,
                options.snapshot_path.c_str(), restored.dropped_out_of_range);
  }
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  // Periodic background snapshot (--snapshot-interval): bounds warm-state
  // loss on crash to one interval. SaveSnapshotNow serialises writers, so a
  // colliding /v1/admin/snapshot or exit save stays safe.
  auto last_save = std::chrono::steady_clock::now();
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (snapshot_interval > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (std::chrono::duration<double>(now - last_save).count() >=
          snapshot_interval) {
        last_save = now;
        auto saved = (*server)->SaveSnapshotNow();
        if (!saved.ok()) {
          std::fprintf(stderr, "hdserver: periodic snapshot failed: %s\n",
                       saved.status().message().c_str());
        }
      }
    }
  }

  std::printf("hdserver: shutting down\n");
  if (save_on_exit && !options.snapshot_path.empty()) {
    auto saved = (*server)->SaveSnapshotNow();
    if (saved.ok()) {
      std::printf("hdserver: snapshot saved (%zu cache entries, %zu store keys, "
                  "%zu bytes)\n",
                  saved->cache_entries, saved->store_entries, saved->bytes);
    } else {
      std::fprintf(stderr, "hdserver: snapshot save failed: %s\n",
                   saved.status().message().c_str());
    }
  }
  (*server)->Stop();
  return 0;
}
