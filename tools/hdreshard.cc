// hdreshard: drives a live N→M reshard of a sharded hdserver fleet
// (docs/OPERATIONS.md has the full runbook and a worked 2→3 transcript).
//
//   $ hdreshard --from 10.0.0.1:8080,10.0.0.2:8080 \
//               --to   10.0.0.1:8080,10.0.0.2:8080,10.0.0.3:8080 \
//               --router 10.0.0.9:8080
//
// Sequence (each step is an idempotent HTTP call; re-running a failed
// reshard with the same arguments is safe):
//
//   1. announce  POST /v1/admin/transition on the router: it starts
//                double-routing (old owner first, new owner on 421/5xx) so
//                no request 421s while the fleet is mid-topology.
//   2. prepare   POST /v1/admin/migrate?prepare=1&new_index=J on every OLD
//                backend: each enters its transitioning state (accepts both
//                digests) BEFORE any entry moves, so peers' new-digest
//                pushes are welcome everywhere.
//   3. migrate   POST /v1/admin/migrate?new_index=J on every old backend:
//                streams the entries leaving its range to every replica of
//                their new owners via /v1/admin/import.
//   4. flip      POST /v1/admin/transition?complete=1 on the router: the
//                new map becomes the only map.
//   5. finalise  POST /v1/admin/migrate?finalise=1 on every old backend
//                that stays in the fleet; backends that left the map are
//                reported for shutdown instead.
//   6. verify    GET /v1/metrics on every new endpoint: prints the
//                imported counters (htd_migration_entries_total) so the
//                operator can see the warm state actually moved.
//
// Backends keep serving throughout — donors retain their entries until the
// flip, so warm hits survive the whole transition. Exits non-zero on the
// first failed step; nothing is rolled back automatically (the router can
// be reverted with POST /v1/admin/transition?abort=1 — see the runbook).
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "net/http_client.h"
#include "service/shard_map.h"
#include "util/cli.h"
#include "util/metrics.h"

namespace {

struct Args {
  std::optional<htd::service::ShardMap> from;
  std::optional<htd::service::ShardMap> to;
  std::optional<htd::service::ShardEndpoint> router;
  bool dry_run = false;
  double timeout = 300.0;
};

/// One HTTP step against a backend or the router; prints and fails loudly.
bool Step(const Args& args, const std::string& what, const std::string& host,
          int port, const std::string& method, const std::string& target,
          const std::string& body) {
  htd::net::FetchOptions fetch;
  fetch.read_timeout_seconds = args.timeout;
  htd::net::FetchResult result =
      htd::net::HttpFetch(host, port, method, target, body, {}, fetch);
  if (!result.ok()) {
    std::fprintf(stderr, "hdreshard: %s (%s:%d): transport failure: %s\n",
                 what.c_str(), host.c_str(), port, result.error.c_str());
    return false;
  }
  if (result.status != 200) {
    std::fprintf(stderr, "hdreshard: %s (%s:%d): HTTP %d: %s",
                 what.c_str(), host.c_str(), port, result.status,
                 result.body.c_str());
    return false;
  }
  std::printf("hdreshard: %s (%s:%d): ok %s", what.c_str(), host.c_str(), port,
              result.body.c_str());
  return true;
}

/// One htd_migration_entries_total series (`direction` = imported_cache,
/// imported_store or migrated_out) from the backend's /v1/metrics page, read
/// with the shared parser (util/metrics.h); -1 when unreachable.
long long MigrationCounter(const Args& args,
                           const htd::service::ShardEndpoint& endpoint,
                           const std::string& direction) {
  htd::net::FetchOptions fetch;
  fetch.read_timeout_seconds = args.timeout;
  htd::net::FetchResult page = htd::net::HttpFetch(
      endpoint.host, endpoint.port, "GET", "/v1/metrics", "", {}, fetch);
  if (!page.ok() || page.status != 200) return -1;
  for (const auto& family : htd::util::ParsePrometheusText(page.body)) {
    if (family.name != "htd_migration_entries_total") continue;
    for (const auto& sample : family.samples) {
      if (sample.labels == "direction=\"" + direction + "\"") {
        return static_cast<long long>(sample.value);
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  htd::util::FlagTable flags("--from H:P,... --to H:P,... [options]");
  flags.Parsed("--from", "SPEC", &args.from, "the fleet's CURRENT shard map")
      .Parsed("--to", "SPEC", &args.to,
              "the new shard map (host:port*2 = replicated range)")
      .Parsed("--router", "H:P",
              [&args](const std::string& text) {
                args.router = htd::service::ShardEndpoint::Parse(text);
                return std::string(args.router ? "" : "expected host:port");
              },
              "a --route-to proxy to transition and flip (omit for fleets "
              "addressed by hdclient --shards)")
      .Seconds("--timeout", &args.timeout, "per-step HTTP timeout")
      .Switch("--dry-run", &args.dry_run, "print the migration plan and exit");
  flags.ParseOrExit(argc, argv);
  if (!args.from || !args.to) {
    std::fprintf(stderr, "--from and --to are required\n\n%s",
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  const std::optional<htd::service::ShardMap>& from = args.from;
  const std::optional<htd::service::ShardMap>& to = args.to;
  if (from->Digest() == to->Digest()) {
    std::fprintf(stderr, "hdreshard: --from and --to are the same map "
                         "(digest %s); nothing to do\n",
                 from->DigestHex().c_str());
    return 2;
  }

  // Plan: every OLD process migrates; its identity under the new map is
  // found by endpoint equality (-1 = it leaves the fleet). NEW-only
  // endpoints must already be running with the new map before step 2 pushes
  // entries at them.
  struct OldBackend {
    htd::service::ShardEndpoint endpoint;
    int old_range = 0;
    int new_index = -1;
  };
  std::vector<OldBackend> old_backends;
  for (const htd::service::ShardMap::Member& member : from->Members()) {
    old_backends.push_back({member.endpoint, member.range,
                            to->RangeOfEndpoint(member.endpoint)});
  }
  std::vector<htd::service::ShardMap::Member> new_only;
  for (const htd::service::ShardMap::Member& member : to->Members()) {
    if (from->RangeOfEndpoint(member.endpoint) < 0) new_only.push_back(member);
  }

  std::printf("hdreshard: %d -> %d ranges (digests %s -> %s)\n",
              from->num_shards(), to->num_shards(), from->DigestHex().c_str(),
              to->DigestHex().c_str());
  for (const OldBackend& backend : old_backends) {
    if (backend.new_index >= 0) {
      std::printf("  %s:%d  range %d -> range %d\n",
                  backend.endpoint.host.c_str(), backend.endpoint.port,
                  backend.old_range, backend.new_index);
    } else {
      std::printf("  %s:%d  range %d -> LEAVES the fleet (shut down after "
                  "the flip)\n",
                  backend.endpoint.host.c_str(), backend.endpoint.port,
                  backend.old_range);
    }
  }
  for (const htd::service::ShardMap::Member& member : new_only) {
    std::printf("  %s:%d  JOINS as range %d (must already run with the new "
                "map)\n",
                member.endpoint.host.c_str(), member.endpoint.port,
                member.range);
  }
  if (args.dry_run) return 0;

  // 1. Announce the transition to the router: double-routing starts here.
  if (args.router &&
      !Step(args, "announce transition", args.router->host, args.router->port,
            "POST", "/v1/admin/transition", to->Serialise())) {
    return 1;
  }

  // 2. Prepare every old backend: all of them must accept the new digest
  // before any of them pushes entries at a peer.
  for (const OldBackend& backend : old_backends) {
    if (!Step(args, "prepare range " + std::to_string(backend.old_range),
              backend.endpoint.host, backend.endpoint.port, "POST",
              "/v1/admin/migrate?prepare=1&new_index=" +
                  std::to_string(backend.new_index),
              to->Serialise())) {
      return 1;
    }
  }

  // 3. Migrate every old backend (streams the entries leaving its range).
  long long total_out = 0;
  for (const OldBackend& backend : old_backends) {
    // The pushed-out count is the donor's migrated_out delta across the call.
    const long long out_before =
        MigrationCounter(args, backend.endpoint, "migrated_out");
    // `self` lets the backend push its RETAINED slice to new sibling
    // replicas of its own range (it skips itself by endpoint identity).
    if (!Step(args,
              "migrate range " + std::to_string(backend.old_range),
              backend.endpoint.host, backend.endpoint.port, "POST",
              "/v1/admin/migrate?new_index=" + std::to_string(backend.new_index) +
                  "&self=" + backend.endpoint.host + ":" +
                  std::to_string(backend.endpoint.port),
              to->Serialise())) {
      std::fprintf(stderr, "hdreshard: migration incomplete — fix the backend "
                           "and re-run (all steps are idempotent), or revert "
                           "the router with /v1/admin/transition?abort=1\n");
      return 1;
    }
    const long long out_after =
        MigrationCounter(args, backend.endpoint, "migrated_out");
    if (out_before >= 0 && out_after > out_before) {
      total_out += out_after - out_before;
    }
  }

  // 4. Flip the router onto the new map.
  if (args.router &&
      !Step(args, "flip router", args.router->host, args.router->port, "POST",
            "/v1/admin/transition?complete=1", "")) {
    return 1;
  }

  // 5. Finalise the backends that stay (adopt the new map exclusively).
  for (const OldBackend& backend : old_backends) {
    if (backend.new_index < 0) {
      std::printf("hdreshard: %s:%d left the map — drain and shut it down\n",
                  backend.endpoint.host.c_str(), backend.endpoint.port);
      continue;
    }
    if (!Step(args, "finalise range " + std::to_string(backend.new_index),
              backend.endpoint.host, backend.endpoint.port, "POST",
              "/v1/admin/migrate?finalise=1", "")) {
      return 1;
    }
  }

  // 6. Verify: the new fleet's counters show the warm state arrived.
  long long total_in = 0;
  bool verified = true;
  for (const htd::service::ShardMap::Member& member : to->Members()) {
    const htd::service::ShardEndpoint& endpoint = member.endpoint;
    const long long cache_in =
        MigrationCounter(args, endpoint, "imported_cache");
    const long long store_in =
        MigrationCounter(args, endpoint, "imported_store");
    if (cache_in < 0 || store_in < 0) {
      std::fprintf(stderr, "hdreshard: verify %s:%d: unreachable\n",
                   endpoint.host.c_str(), endpoint.port);
      verified = false;
      continue;
    }
    std::printf("hdreshard: verify range %d (%s:%d): imported %lld cache + "
                "%lld store entries\n",
                member.range, endpoint.host.c_str(), endpoint.port, cache_in,
                store_in);
    total_in += cache_in + store_in;
  }
  std::printf("hdreshard: done — %lld entries pushed out, %lld accepted by "
              "new owners\n", total_out, total_in);
  return verified ? 0 : 1;
}
